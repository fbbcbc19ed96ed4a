//! `reproduce` with no subcommand prints its usage and fails, instead of
//! running `all` (which rewrites the committed `BENCH_repair.json`).

use std::process::Command;

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .output()
        .expect("reproduce runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: reproduce <subcommand>"), "{err}");
    assert!(err.contains("bench-repair") && err.contains("all"), "{err}");
}
