//! Black-box test for the `misuse` binary: `--tx` sizes the workloads whose
//! instrumentation it lints.

use std::process::Command;

/// The `requests` column of every table row, in row order.
fn requests(args: &[&str]) -> Vec<u64> {
    let out = Command::new(env!("CARGO_BIN_EXE_misuse"))
        .args(args)
        .output()
        .expect("spawn misuse");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            // Workload names may hold spaces; the columns after the
            // instrumentation label do not.
            let mut cols = line
                .split_whitespace()
                .skip_while(|c| !matches!(*c, "manual" | "auto"));
            cols.next()?;
            Some(cols.next()?.parse().expect("requests column"))
        })
        .collect()
}

#[test]
fn tx_flag_sizes_the_linted_programs() {
    let default = requests(&[]);
    let small = requests(&["--tx", "5"]);
    assert_eq!(default.len(), 14, "7 workloads × manual/auto");
    assert_eq!(small.len(), default.len());
    assert!(
        small.iter().sum::<u64>() < default.iter().sum::<u64>(),
        "--tx 5 {small:?} vs the default 50 {default:?}"
    );
    // An explicit default prints the default's rows.
    assert_eq!(requests(&["--tx", "50"]), default);
}
