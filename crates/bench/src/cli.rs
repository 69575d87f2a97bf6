//! Shared command-line parsing for the bench binaries.
//!
//! Every bench binary takes `--name value` pairs from `std::env::args`.
//! The strict validator ([`require_known_args`]) makes a typo a hard usage
//! error (exit status 2) instead of a silently default-configured
//! "result", and [`parse_with`] does the same for a malformed value: each
//! binary reads every flag through it before any work starts, so a bad
//! value exits 2 with one `error: <flag> …` line on stderr and nothing on
//! stdout, never a panic or a half-finished run. The readers below
//! ([`positive`], [`unsigned`], [`fraction`], [`output_path`]) plug into
//! it, and so does any `FromStr` or `parse` of a library type. The one flag
//! every binary accepts, `--jobs N`, is parsed here too ([`jobs`]), and so
//! is the simulated core count, `--cores N` ([`cores`]).

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Whether the bare flag `--name` is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Reads `--name value` through `parse`: `None` when the flag is absent,
/// else the parsed value. A value `parse` rejects exits with status 2 and
/// the one stderr line `error: <name> <reason>`.
pub fn parse_with<T, E: Display>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    // A flag with nothing after it reads as the empty value, which every
    // reader rejects.
    let value = args.get(i + 1).map_or("", String::as_str);
    Some(parse(value).unwrap_or_else(|e| fail(name, e)))
}

/// [`parse_with`] for a comma-separated list: each item, trimmed, through
/// `parse`.
pub fn list_with<T, E: Display>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Option<Vec<T>> {
    parse_with(name, |v| {
        v.split(',').map(|item| parse(item.trim())).collect()
    })
}

fn fail(name: &str, reason: impl Display) -> ! {
    eprintln!("error: {name} {reason}");
    std::process::exit(2);
}

/// Reader for a count of at least one.
pub fn positive(v: &str) -> Result<usize, &'static str> {
    v.parse::<NonZeroUsize>()
        .map(NonZeroUsize::get)
        .map_err(|_| "requires a positive integer value")
}

/// Reader for an unsigned integer (transaction counts, seeds, cycles).
pub fn unsigned<T: FromStr>(v: &str) -> Result<T, &'static str> {
    v.parse().map_err(|_| "requires an unsigned integer value")
}

/// Reader for a fraction in [0, 1] (dedup ratio, auxiliary-transaction
/// share).
pub fn fraction(v: &str) -> Result<f64, &'static str> {
    v.parse()
        .ok()
        .filter(|x| (0.0..=1.0).contains(x))
        .ok_or("requires a number in [0, 1]")
}

/// Reader for an output file: creates (truncates) it now, so that a path
/// that cannot be written exits 2 before the run rather than after it.
pub fn output_path(v: &str) -> Result<String, String> {
    match std::fs::File::create(v) {
        Ok(_) => Ok(v.to_string()),
        Err(e) => Err(format!("cannot create {v:?}: {e}")),
    }
}

/// Writes an output file that [`output_path`] already created. A failure
/// this late (the disk filled, the directory went away) exits with status
/// 2 like a bad path would have.
pub fn write_output(name: &str, path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(name, format_args!("cannot write {path:?}: {e}"));
    }
}

/// Reads `--name value` as an unsigned integer, with a default; a malformed
/// value exits with status 2 (see [`parse_with`]).
pub fn arg_usize(name: &str, default: usize) -> usize {
    parse_with(name, unsigned).unwrap_or(default)
}

/// Worker threads for sweep fan-out: `--jobs N`, else the `JANUS_JOBS`
/// environment variable, else `None` (the caller's default). Zero or a
/// non-number from either source exits with status 2, like any other
/// malformed flag.
pub fn jobs() -> Option<usize> {
    parse_with("--jobs", positive).or_else(|| {
        let v = std::env::var("JANUS_JOBS").ok().filter(|v| !v.is_empty())?;
        Some(positive(&v).unwrap_or_else(|e| fail("JANUS_JOBS", e)))
    })
}

/// Simulated core count: `--cores N`, else `default`. Zero or a non-number
/// exits with status 2 like any other malformed flag, before a
/// configuration with no cores can be built.
pub fn cores(default: usize) -> usize {
    parse_with("--cores", positive).unwrap_or(default)
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
