// Fixture: D2 — hash collections in a decision-path crate.
use std::collections::{HashMap, HashSet}; //~ disallowed_types

struct State {
    load: HashMap<u32, usize>, //~ disallowed_types
    seen: HashSet<u32>, //~ disallowed_types
}
