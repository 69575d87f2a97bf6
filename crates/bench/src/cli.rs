//! Shared command-line parsing for the figure/table binaries.
//!
//! Every bench binary takes `--name value` pairs from `std::env::args`;
//! before this module each binary carried its own copy of the same three
//! helpers. The strict validator ([`require_known_args`]) makes a typo a
//! hard usage error (exit status 2) instead of a silently default-configured
//! "result". The one flag every binary accepts, `--jobs N`, is parsed here
//! too ([`jobs`]), and so is the simulated core count, `--cores N`
//! ([`cores`]).

use std::num::NonZeroUsize;

/// Reads the value following `--name`, if present.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether the bare flag `--name` is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Reads `--name value` as a string, with a default.
pub fn arg_str(name: &str, default: &str) -> String {
    arg(name).unwrap_or_else(|| default.to_string())
}

/// Reads `--name value` from the process arguments, with a default.
///
/// A flag that is present but followed by a missing or unparseable value is
/// a hard usage error: the process exits with status 2 rather than
/// silently running the experiment with the default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    parse_or_exit(name, default, "an unsigned integer")
}

/// [`arg_usize`] for `u64` values (seeds, cycle counts).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    parse_or_exit(name, default, "an unsigned integer")
}

fn parse_or_exit<T: std::str::FromStr>(name: &str, default: T, what: &str) -> T {
    parse_arg(name, what).unwrap_or(default)
}

/// Parses the value following `--name`: `None` when the flag is absent, exit
/// status 2 when its value is missing or unparseable.
fn parse_arg<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => Some(v),
        _ => malformed(name, what),
    }
}

fn malformed(name: &str, what: &str) -> ! {
    eprintln!("error: {name} requires {what} value");
    std::process::exit(2);
}

/// Worker threads for sweep fan-out: `--jobs N`, else the `JANUS_JOBS`
/// environment variable, else `None` (the caller's default). Zero or a
/// non-number from either source exits with status 2, like any other
/// malformed flag.
pub fn jobs() -> Option<usize> {
    const WHAT: &str = "a positive integer";
    let jobs: NonZeroUsize = match parse_arg("--jobs", WHAT) {
        Some(n) => n,
        None => {
            let v = std::env::var("JANUS_JOBS").ok().filter(|v| !v.is_empty())?;
            v.parse().unwrap_or_else(|_| malformed("JANUS_JOBS", WHAT))
        }
    };
    Some(jobs.get())
}

/// Simulated core count: `--cores N`, else `default`. Zero or a non-number
/// exits with status 2 like any other malformed flag, before a
/// configuration with no cores can be built.
pub fn cores(default: usize) -> usize {
    parse_arg::<NonZeroUsize>("--cores", "a positive integer").map_or(default, NonZeroUsize::get)
}

/// Strict argument validation for the figure/table binaries: every token
/// must be a known value-taking flag (followed by its value), a known
/// boolean flag, or the globally honoured `--jobs N`, and the worker count
/// (`--jobs` or `JANUS_JOBS`) must be a positive integer. Anything else —
/// an unknown flag, a stray positional, a value-taking flag at the end of
/// the line — exits with status 2 and a usage message, so a typo can never
/// silently produce default-configured "results".
pub fn require_known_args(value_flags: &[&str], bool_flags: &[&str]) {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let usage = |msg: &str| -> ! {
        let mut flags: Vec<String> = value_flags
            .iter()
            .chain(["--jobs"].iter())
            .map(|f| format!("{f} <value>"))
            .chain(bool_flags.iter().map(|f| f.to_string()))
            .collect();
        flags.sort();
        eprintln!("error: {msg}");
        eprintln!("usage: accepted arguments: {}", flags.join(" "));
        std::process::exit(2);
    };
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) || a == "--jobs" {
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                usage(&format!("{a} requires a value"));
            }
            i += 2;
        } else if bool_flags.contains(&a.as_str()) {
            i += 1;
        } else {
            usage(&format!("unknown argument {a:?}"));
        }
    }
    jobs();
}
