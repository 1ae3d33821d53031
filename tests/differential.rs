//! The differential harness's own tests: its field-path walk, and the
//! resumes of states another build or another topology produced, compared
//! with the oracle through the shared [`harness::Fingerprint`].

mod harness;

use harness::{assert_same, run, secs, Leg, Mode};
use knots_recovery::Snapshot;
use knots_sim::resources::GpuModel;

/// A v2 snapshot written by a build with a sharded core records its shard
/// count in `OrchestratorState::shards`. Such a state — a paused chaotic
/// CBP+PP run with `shards` set to 2, round-tripped through the snapshot
/// envelope — still resumes and ends where the oracle does.
#[test]
fn sharded_v2_state_resumes_bit_identically() {
    let leg = Leg { faults_per_minute: 6.0, ..Leg::new("CBP+PP") };
    let inputs = leg.inputs();
    let mut state = inputs.paused_at(secs(7)).pause_state().unwrap();
    assert_eq!(state.shards, 1);
    state.shards = 2;
    let snap = Snapshot::from_state(&state, state.cluster.now).unwrap();
    assert_eq!(snap.version, 2);
    let state = snap.state().unwrap();
    assert_eq!(state.shards, 2);

    let resumed = inputs.resume(inputs.cluster.clone(), state);
    let resumed = resumed.expect("a v2 state recorded with 2 shards must resume");
    let label = format!("{leg:?}: Oracle vs the resumed 2-shard v2 state");
    assert_same(&run(&leg, Mode::Oracle), &inputs.finish(resumed), &label);
}

/// `KubeKnots::resume` refuses a cluster config whose topology differs
/// from the captured state's — more nodes, or the same count with another
/// GPU model on one node — instead of running on the state's nodes while
/// `cluster().config()` reports the config's. The original config still
/// resumes and ends where the oracle does.
#[test]
fn resume_refuses_a_config_of_another_topology() {
    let leg = Leg { seed: 5, plan_seed: 5 ^ 0x51ab, faults_per_minute: 6.0, ..Leg::new("CBP+PP") };
    let leg = Leg { secs: 20, ..leg };
    let inputs = leg.inputs();
    let state = inputs.paused_at(secs(6)).pause_state().unwrap();

    let mut bigger = inputs.cluster.clone();
    bigger.node_models.extend([bigger.node_models[0]; 2]);
    let mut other_model = inputs.cluster.clone();
    other_model.node_models[1] = GpuModel::V100;
    assert_ne!(other_model.node_models, inputs.cluster.node_models);
    for (what, cfg) in [("6-node", bigger), ("other-GPU", other_model)] {
        let Err(e) = inputs.resume(cfg, state.clone()) else {
            panic!("the {what} config was accepted")
        };
        assert!(e.to_string().contains("topology"), "{what}: {e}");
    }

    let resumed = inputs.resume(inputs.cluster.clone(), state);
    let resumed = resumed.expect("the original config must resume");
    let label = format!("{leg:?}: Oracle vs resumed under the original config");
    assert_same(&run(&leg, Mode::Oracle), &inputs.finish(resumed), &label);
}

#[test]
fn resume_refuses_a_calendar_with_two_entries_of_one_class() {
    let inputs = Leg::new("CBP+PP").inputs();
    let mut state = inputs.paused_at(secs(5)).pause_state().unwrap();
    state.calendar.push(state.calendar[0]);
    let Err(e) = inputs.resume(inputs.cluster.clone(), state) else {
        panic!("a calendar with a doubled class was accepted")
    };
    assert!(e.to_string().contains("calendar holds two"), "{e}");
}

mod field_path {
    use super::harness::first_diff;
    use serde::Value;

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `{"cluster": {"nodes": [{"id": 0, "joules": x}, {"id": 0, "joules": y}]}}`
    fn nodes(x: f64, y: f64) -> Value {
        let node = |j| obj(vec![("id", Value::U64(0)), ("joules", Value::F64(j))]);
        obj(vec![("cluster", obj(vec![("nodes", Value::Array(vec![node(x), node(y)]))]))])
    }

    #[test]
    fn names_the_nested_object_and_array_path() {
        assert_eq!(first_diff(&nodes(1.0, 2.0), &nodes(1.0, 2.0)), None);
        assert_eq!(
            first_diff(&nodes(1.0, 2.0), &nodes(1.0, 3.0)).unwrap(),
            format!("cluster.nodes[1].joules: {:#x} vs {:#x}", 2.0f64.to_bits(), 3.0f64.to_bits())
        );
        let a = obj(vec![("pod", obj(vec![("Running", Value::Null)]))]);
        let b = obj(vec![("pod", obj(vec![("Pending", Value::Null)]))]);
        assert_eq!(first_diff(&a, &b).unwrap(), "pod.Running: field \"Running\" vs \"Pending\"");
    }

    #[test]
    fn compares_floats_by_bits() {
        let d = first_diff(&nodes(-0.0, 1.0), &nodes(0.0, 1.0)).expect("-0.0 and +0.0 differ");
        assert!(d.starts_with("cluster.nodes[0].joules: 0x8000000000000000 vs 0x0"), "{d}");
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let same = first_diff(&nodes(nan, 1.0), &nodes(nan, 1.0));
        assert_eq!(same, None, "the same NaN bits are equal");
    }

    #[test]
    fn names_the_first_index_past_the_shorter_array() {
        let a = obj(vec![("ring", Value::Array(vec![Value::U64(1), Value::U64(2)]))]);
        let b = obj(vec![("ring", Value::Array(vec![Value::U64(1)]))]);
        assert_eq!(first_diff(&a, &b).unwrap(), "ring[1]: 2 vs 1 elements");
        assert_eq!(first_diff(&b, &a).unwrap(), "ring[1]: 1 vs 2 elements");
    }
}
