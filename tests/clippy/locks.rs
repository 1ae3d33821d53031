// Fixture: lock types in library code. Each leg owns its state, and a
// fan-out hands results back through its join handles.
use std::sync::Mutex; //~ disallowed_types

fn shared(m: &std::sync::RwLock<u32>) -> bool { //~ disallowed_types
    m.is_poisoned()
}

fn parked(m: &parking_lot::Mutex<u32>) -> u32 { //~ disallowed_types
    *m.lock()
}
