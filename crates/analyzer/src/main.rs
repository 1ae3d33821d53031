//! `knots-analyzer` CLI: a source linter for the workspace.
//!
//! ```text
//! knots-analyzer check [--root <dir>] [--format text|json]
//! knots-analyzer --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports on its own streams"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use knots_analyzer::diag::to_json;
use knots_analyzer::rules::RULES;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

struct Opts {
    root: PathBuf,
    format: Format,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { root: PathBuf::from("."), format: Format::Text, list_rules: false };
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
                Some("text") => opts.format = Format::Text,
                other => {
                    return Err(format!(
                        "--format expects `json` or `text`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => match it.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err("--root expects a directory".into()),
            },
            other => return Err(format!("unknown argument `{other}` (try `check`)")),
        }
    }
    if !saw_command {
        return Err(
            "usage: knots-analyzer check [--root <dir>] [--format text|json] | --list-rules".into(),
        );
    }
    Ok(opts)
}

fn list_rules() {
    println!("{:<4} summary", "id");
    for r in RULES {
        println!("{:<4} {}", r.id, r.summary);
    }
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
    match opts.format {
        Format::Json => print!("{}", to_json(&diags)),
        Format::Text => {
            for d in &diags {
                println!("{d}");
            }
            println!("knots-analyzer: {} deny", diags.len());
        }
    }
    if !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
