// Fixture: D3 — ambient entropy sources. The rand shim has none, so this
// must fail to compile exactly where one is named.
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn roll() -> u64 {
    let mut r = rand::thread_rng(); //~ E0425
    let mut s = StdRng::from_entropy(); //~ E0599
    let _os = rand::rngs::OsRng; //~ E0425
    r.gen_range(0..s.gen_range(0..6))
}
