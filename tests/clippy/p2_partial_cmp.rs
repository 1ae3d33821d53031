// Fixture: P2 — NaN-panicking comparators, caught as the unwrap/expect they
// end in.
fn sorts(v: &mut Vec<f64>, pairs: &mut Vec<(f64, u32)>) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ unwrap_used
    pairs.sort_by(|a, b| a.0.partial_cmp(&helper(b.0, (b.1, a.1))).expect("finite")); //~ expect_used
}

// A handled partial_cmp must NOT fire.
fn fine(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

fn helper(x: f64, _: (u32, u32)) -> f64 {
    x
}
