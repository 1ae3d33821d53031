#![cfg(loom)]
//! Loom model tests for the TSDB batched writer.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job); the
//! store's `parking_lot` shim then routes to the loom shim's model-aware
//! `RwLock`, and `loom::model` explores every bounded interleaving of the
//! batched writer against concurrent readers and one-shot writers.
//!
//! The property under test is the one the batched-writer API exists for:
//! a [`knots_telemetry::tsdb::TsdbWriter`] holds the write lock for the
//! whole tick, so *no reader can ever observe a half-applied batch*.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p knots-telemetry --test loom`

use knots_sim::ids::NodeId;
use knots_sim::metrics::GpuSample;
use knots_sim::time::SimTime;
use knots_telemetry::tsdb::TimeSeriesDb;
use loom::sync::Arc;
use loom::thread;

fn sample(ms: u64) -> GpuSample {
    GpuSample { at: SimTime::from_millis(ms), sm_util: 0.5, ..Default::default() }
}

#[test]
fn batched_writes_are_atomic_to_concurrent_readers() {
    loom::model(|| {
        let db = Arc::new(TimeSeriesDb::default());
        let db2 = Arc::clone(&db);
        let reader = thread::spawn(move || db2.node_len(NodeId(0)));
        {
            let mut w = db.writer();
            for i in 0..3u64 {
                w.push_node(NodeId(0), sample(i));
            }
        }
        let seen = reader.join().unwrap();
        assert!(seen == 0 || seen == 3, "reader saw a half-applied batch: {seen}");
        assert_eq!(db.node_len(NodeId(0)), 3);
    });
}

#[test]
fn batched_and_one_shot_writers_serialize() {
    loom::model(|| {
        let db = Arc::new(TimeSeriesDb::default());
        let db2 = Arc::clone(&db);
        // A one-shot push races a two-sample batch; write exclusivity must
        // serialize them so nothing is lost and the one-shot push can
        // never land inside the batch.
        let writer = thread::spawn(move || {
            db2.push_node(NodeId(7), sample(100));
        });
        {
            let mut w = db.writer();
            w.push_node(NodeId(0), sample(0));
            w.push_node(NodeId(0), sample(1));
        }
        writer.join().unwrap();
        assert_eq!(db.node_len(NodeId(0)), 2);
        assert_eq!(db.node_len(NodeId(7)), 1);
    });
}
