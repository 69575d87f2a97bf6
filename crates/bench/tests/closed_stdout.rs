//! Black-box test: a bench binary whose reader closes stdout early, as
//! `head` does, ends quietly with status 0 instead of panicking.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs `bin`, reads its first stdout line, closes the pipe and waits:
/// the exit status and everything on stderr.
fn close_after_first_line(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read stdout");
    assert!(!line.is_empty(), "{bin} printed nothing");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (child.wait().expect("wait").code(), stderr)
}

fn assert_quiet(bin: &str, args: &[&str]) {
    let (code, stderr) = close_after_first_line(bin, args);
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert_eq!(code, Some(0), "{bin} {args:?}: {stderr}");
}

#[test]
fn janus_lint_ends_quietly_when_stdout_closes() {
    assert_quiet(
        env!("CARGO_BIN_EXE_janus-lint"),
        &["--all", "--seeded", "--fix"],
    );
}

#[test]
fn figure_binary_ends_quietly_when_stdout_closes() {
    assert_quiet(env!("CARGO_BIN_EXE_fig9"), &["--tx", "10"]);
}
