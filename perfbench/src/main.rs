//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). A provenance line (host CPUs, resolved workers and shards,
//! build profile, per-leg report digests) precedes it. Exits 1 when a leg
//! fails the fidelity gate and 2 on bad arguments.

use perfbench::workload::{Size, Workload};

#[global_allocator]
static ALLOC: perfbench::prof::CountingAlloc = perfbench::prof::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload testbed10|recovery4 --seed N --seconds S --trace 0|1";

fn parse() -> Result<(Workload, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let reference = perfbench::parse_reference(perfbench::REFERENCE_JSON)
        .expect("reference.json is well-formed");
    let outcome = perfbench::run(workload, seed, seconds, trace, Size::Full, &reference);
    for f in &outcome.failures {
        eprintln!("FIDELITY FAILURE: {f}");
    }
    println!("{}", perfbench::provenance_json(&outcome, workload, seed, seconds, trace));
    println!("{}", perfbench::result_json(&outcome));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
