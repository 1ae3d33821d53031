//! The workspace lock-acquisition-order graph behind rule C2.
//!
//! Every [`LockEdge`] says "site S acquired lock B
//! while lock A was held". Collected across the whole workspace they form
//! a directed graph over lock identities; a cycle in that graph means two
//! code paths nest the same locks in opposite orders, which is the classic
//! ABBA deadlock. The graph is tiny (locks are named by `crate::field`),
//! so the analysis is a plain DFS with an explicit stack — deterministic
//! because nodes and edges are iterated in sorted order.
//!
//! One diagnostic is emitted per distinct cycle, anchored at the site of
//! the cycle's lexicographically smallest edge so re-runs always point at
//! the same line. `--lock-graph` dumps the whole graph as JSON for
//! dashboards and postmortems.

use std::collections::{BTreeMap, BTreeSet};

use crate::conc::LockEdge;
use crate::diag::Diagnostic;
use crate::rules;

/// One witness site for an edge: `(path, line, col)`.
pub type Site = (String, u32, u32);

/// The aggregated graph: adjacency plus every witness site per edge.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `held → acquired-while-held` adjacency.
    pub adj: BTreeMap<String, BTreeSet<String>>,
    /// Witness sites per `(held, acquired)` edge, sorted.
    pub sites: BTreeMap<(String, String), Vec<Site>>,
}

/// Build the graph from edges (any order; the graph sorts internally).
pub fn build(edges: &[LockEdge]) -> LockGraph {
    let mut g = LockGraph::default();
    for e in edges {
        g.adj.entry(e.held.clone()).or_default().insert(e.acquired.clone());
        g.adj.entry(e.acquired.clone()).or_default();
        let sites = g.sites.entry((e.held.clone(), e.acquired.clone())).or_default();
        let site = (e.path.clone(), e.line, e.col);
        if !sites.contains(&site) {
            sites.push(site);
        }
    }
    for sites in g.sites.values_mut() {
        sites.sort();
    }
    g
}

/// Find every elementary cycle reachable by DFS and emit one C2 diagnostic
/// per distinct cycle (canonicalized by rotating to the smallest node).
pub fn cycles(graph: &LockGraph) -> Vec<Diagnostic> {
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();
    for start in graph.adj.keys() {
        let mut stack: Vec<String> = vec![start.clone()];
        let mut on_stack: BTreeSet<String> = BTreeSet::new();
        on_stack.insert(start.clone());
        dfs(graph, start, &mut stack, &mut on_stack, &mut seen, &mut out);
    }
    out
}

fn dfs(
    graph: &LockGraph,
    node: &str,
    stack: &mut Vec<String>,
    on_stack: &mut BTreeSet<String>,
    seen: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(nexts) = graph.adj.get(node) else { return };
    for next in nexts {
        if let Some(pos) = stack.iter().position(|n| n == next) {
            // Cycle: stack[pos..] + back-edge to `next`.
            let cycle = canonicalize(&stack[pos..]);
            if seen.insert(cycle.clone()) {
                out.push(cycle_diag(graph, &cycle));
            }
            continue;
        }
        if on_stack.contains(next) {
            continue;
        }
        stack.push(next.clone());
        on_stack.insert(next.clone());
        dfs(graph, &next.clone(), stack, on_stack, seen, out);
        stack.pop();
        // `next` deliberately stays in `on_stack`, which doubles as a
        // per-start visited set. This is not a full elementary-cycle
        // enumeration (Johnson's); the guarantee that matters for a lint
        // holds: a cyclic graph always yields at least one diagnostic,
        // because some start node's DFS walks the cycle into its own
        // stack. Fix, re-run, repeat.
    }
}

/// Rotate a cycle so it starts at its smallest node.
fn canonicalize(nodes: &[String]) -> Vec<String> {
    let min = nodes.iter().enumerate().min_by_key(|(_, n)| *n).map(|(i, _)| i).unwrap_or(0);
    let mut out = Vec::with_capacity(nodes.len());
    out.extend_from_slice(&nodes[min..]);
    out.extend_from_slice(&nodes[..min]);
    out
}

/// One C2 diagnostic for a canonical cycle, anchored at the first witness
/// site of its lexicographically smallest edge.
fn cycle_diag(graph: &LockGraph, cycle: &[String]) -> Diagnostic {
    let r = rules::C2;
    let mut best: Option<(String, u32, u32)> = None;
    let mut edges: Vec<(String, String)> = Vec::new();
    for i in 0..cycle.len() {
        let a = cycle[i].clone();
        let b = cycle[(i + 1) % cycle.len()].clone();
        edges.push((a, b));
    }
    edges.sort();
    for e in &edges {
        if let Some(sites) = graph.sites.get(e) {
            if let Some(site) = sites.first() {
                if best.as_ref().is_none_or(|b| site < b) {
                    best = Some(site.clone());
                }
            }
        }
    }
    let (path, line, col) = best.unwrap_or(("<unknown>".to_string(), 0, 0));
    let ring: Vec<&str> = cycle.iter().map(String::as_str).chain([cycle[0].as_str()]).collect();
    Diagnostic {
        rule: r.id,
        severity: r.severity,
        path,
        line,
        col,
        message: format!("lock-order cycle: {}", ring.join(" -> ")),
        hint: r.hint,
    }
}

/// Render the graph as stable JSON: sorted nodes, sorted edges, each edge
/// carrying its witness sites.
pub fn to_json(graph: &LockGraph) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("{\n  \"nodes\": [");
    for (i, n) in graph.adj.keys().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", esc(n)));
    }
    out.push_str("\n  ],\n  \"edges\": [");
    let mut first = true;
    for ((held, acquired), sites) in &graph.sites {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"held\":\"{}\",\"acquired\":\"{}\",\"sites\":[",
            esc(held),
            esc(acquired)
        ));
        for (j, (path, line, col)) in sites.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"path\":\"{}\",\"line\":{line},\"col\":{col}}}", esc(path)));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(held: &str, acquired: &str, line: u32) -> LockEdge {
        LockEdge {
            held: held.into(),
            acquired: acquired.into(),
            path: "crates/sim/src/x.rs".into(),
            line,
            col: 3,
        }
    }

    #[test]
    fn acyclic_graph_is_clean() {
        let g = build(&[edge("a", "b", 1), edge("b", "c", 2), edge("a", "c", 3)]);
        assert!(cycles(&g).is_empty());
    }

    #[test]
    fn abba_cycle_is_one_diagnostic() {
        let g = build(&[edge("sim::a", "sim::b", 1), edge("sim::b", "sim::a", 9)]);
        let out = cycles(&g);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("sim::a -> sim::b -> sim::a"), "{}", out[0].message);
        // Anchored at the first witness of the smallest edge.
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn self_edge_is_a_cycle() {
        // Re-acquiring a lock you already hold: `a -> a`.
        let g = build(&[edge("sim::a", "sim::a", 4)]);
        let out = cycles(&g);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("sim::a -> sim::a"));
    }

    #[test]
    fn three_cycle_reported_once() {
        let g = build(&[edge("a", "b", 1), edge("b", "c", 2), edge("c", "a", 3)]);
        let out = cycles(&g);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("a -> b -> c -> a"));
    }

    #[test]
    fn json_dump_is_stable_and_complete() {
        let g = build(&[edge("b", "a", 2), edge("a", "b", 1), edge("a", "b", 1)]);
        let j = to_json(&g);
        assert!(j.contains("\"nodes\""));
        assert!(j.contains("\"held\":\"a\",\"acquired\":\"b\""));
        assert_eq!(to_json(&g), j);
        // Duplicate sites deduplicate.
        assert_eq!(j.matches("\"line\":1").count(), 1, "{j}");
    }
}
