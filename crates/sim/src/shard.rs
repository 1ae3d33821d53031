//! Shard layout: the contiguous partition of node ids that every sharded
//! layer (TSDB partitions, scheduler candidate merge) agrees on.
//!
//! A layout is a pure function of `(nodes, shards)`: node `i` belongs to
//! shard `i / ceil(nodes / shards)`. Contiguity is the load-bearing
//! property — concatenating per-shard results in shard order reproduces
//! global node order exactly, which is why every sharded layer can join
//! its results by index and stay bit-identical to the single-shard path
//! regardless of shard count.

use std::ops::Range;

/// Contiguous partition of `nodes` node ids into `shards` ranges.
///
/// The requested shard count is clamped to `[1, max(nodes, 1)]` so every
/// shard is non-empty (an empty cluster degenerates to one empty shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    nodes: usize,
    shards: usize,
    /// Nodes per shard (the last shard may be smaller).
    chunk: usize,
}

impl ShardLayout {
    /// Build a layout over `nodes` node ids split into `shards` contiguous
    /// ranges. `shards == 0` and `shards > nodes` clamp into range.
    pub fn new(nodes: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, nodes.max(1));
        let chunk = nodes.div_ceil(shards).max(1);
        // Clamping by chunk keeps every shard non-empty even when the
        // requested count does not divide the node count evenly
        // (e.g. 10 nodes / 4 shards -> chunk 3 -> 4 ranges of 3/3/3/1).
        let shards = nodes.div_ceil(chunk).max(1);
        ShardLayout { nodes, shards, chunk }
    }

    /// Total node count covered by the layout.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Effective shard count after clamping.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Nodes per full shard.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Shard owning node id `i`. Ids past the end map to the last shard so
    /// routing never panics on stale ids.
    pub fn shard_of(&self, i: usize) -> usize {
        (i / self.chunk).min(self.shards - 1)
    }

    /// Node-id range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        let start = (s * self.chunk).min(self.nodes);
        let end = ((s + 1) * self.chunk).min(self.nodes);
        start..end
    }

    /// All shard ranges in shard order; concatenated they cover `0..nodes`
    /// exactly once, in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_in_order() {
        for nodes in [0usize, 1, 2, 7, 10, 64, 100, 1024] {
            for shards in [1usize, 2, 3, 4, 8, 16, 2000] {
                let l = ShardLayout::new(nodes, shards);
                let flat: Vec<usize> = l.ranges().flatten().collect();
                let expect: Vec<usize> = (0..nodes).collect();
                assert_eq!(flat, expect, "nodes={nodes} shards={shards}");
                for i in 0..nodes {
                    let s = l.shard_of(i);
                    assert!(l.range(s).contains(&i), "node {i} not in its shard {s}");
                }
            }
        }
    }

    #[test]
    fn clamps_to_non_empty_shards() {
        let l = ShardLayout::new(4, 8);
        assert_eq!(l.shards(), 4);
        let l = ShardLayout::new(0, 8);
        assert_eq!(l.shards(), 1);
        assert_eq!(l.range(0), 0..0);
        let l = ShardLayout::new(10, 4);
        assert_eq!(l.chunk(), 3);
        assert_eq!(l.shards(), 4);
        assert_eq!(l.range(3), 9..10);
    }

    #[test]
    fn out_of_range_ids_route_to_last_shard() {
        let l = ShardLayout::new(8, 4);
        assert_eq!(l.shard_of(7), 3);
        assert_eq!(l.shard_of(99), 3);
    }
}
