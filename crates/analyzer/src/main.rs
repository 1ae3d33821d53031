//! `knots-analyzer` CLI.
//!
//! ```text
//! knots-analyzer check [--root <dir>] [--format text|json|sarif] [--self-check]
//! knots-analyzer --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 deny-level findings or self-check mismatch,
//! 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

use knots_analyzer::diag::{to_json, to_sarif, Severity};
use knots_analyzer::engine::PRAGMA_RULES;
use knots_analyzer::rules::RULES;
use knots_analyzer::selfcheck;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Opts {
    root: PathBuf,
    format: Format,
    self_check: bool,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        format: Format::Text,
        self_check: false,
        list_rules: false,
    };
    let mut saw_command = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" => saw_command = true,
            "--list-rules" => {
                opts.list_rules = true;
                saw_command = true;
            }
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.format = Format::Json,
                Some("sarif") => opts.format = Format::Sarif,
                Some("text") => opts.format = Format::Text,
                other => {
                    return Err(format!(
                        "--format expects `json`, `sarif` or `text`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--self-check" => opts.self_check = true,
            "--root" => match it.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err("--root expects a directory".into()),
            },
            other => return Err(format!("unknown argument `{other}` (try `check`)")),
        }
    }
    if !saw_command && !opts.self_check {
        return Err("usage: knots-analyzer check [--root <dir>] [--format text|json|sarif] \
                    [--self-check] | --list-rules"
            .into());
    }
    Ok(opts)
}

fn list_rules() {
    println!("{:<4} {:<5} summary", "id", "sev");
    for r in RULES.iter().chain(PRAGMA_RULES.iter()) {
        println!("{:<4} {:<5} {}", r.id, r.severity.label(), r.summary);
    }
}

fn run_self_check() -> bool {
    let mut ok = true;
    for leg in selfcheck::run() {
        let status = if leg.ok() { "ok" } else { "MISMATCH" };
        println!(
            "self-check {:<10} run-a={:016x} run-b={:016x} obs={:016x}  {status}",
            leg.scheduler, leg.digest_a, leg.digest_b, leg.digest_obs
        );
        ok &= leg.ok();
    }
    if ok {
        println!("self-check: all schedulers byte-identical across same-seed re-runs");
    }
    let fmt = selfcheck::format_digests();
    let status = if fmt.ok() { "ok" } else { "MISMATCH" };
    println!(
        "self-check formats    json={:016x}/{:016x} sarif={:016x}/{:016x}  {status}",
        fmt.json_a, fmt.json_b, fmt.sarif_a, fmt.sarif_b
    );
    ok && fmt.ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }
    let diags = match knots_analyzer::check_root(&opts.root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let denies = diags.iter().filter(|d| d.severity == Severity::Deny).count();
    let warns = diags.len() - denies;
    match opts.format {
        Format::Json => print!("{}", to_json(&diags)),
        Format::Sarif => print!("{}", to_sarif(&diags)),
        Format::Text => {
            for d in &diags {
                println!("{d}");
            }
            println!("knots-analyzer: {denies} deny, {warns} warn");
        }
    }

    let mut failed = denies > 0;
    if opts.self_check {
        failed |= !run_self_check();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
