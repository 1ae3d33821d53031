// Fixture: D1 — wall-clock types in library code.
use std::time::Instant; //~ disallowed_types

fn measure() -> f64 {
    let t0 = Instant::now(); //~ disallowed_types
    let _wall = std::time::SystemTime::now(); //~ disallowed_types
    t0.elapsed().as_secs_f64()
}
