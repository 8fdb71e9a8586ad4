//! The `commchar` binary's own surface: help flags succeed, and bad
//! processor counts are one-line errors with the usual failure exit code
//! instead of panics.

use std::process::{Command, Output};

fn commchar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_commchar"))
        .args(args)
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("spawn commchar")
}

/// Asserts `args` fail with exit code 1 and exactly one `error:` line on
/// stderr that mentions `needle` — no panic message, no backtrace note.
fn assert_one_line_error(args: &[&str], needle: &str) {
    let out = commchar(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: unexpected stdout");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: expected one line, got {stderr}");
    assert!(lines[0].starts_with("error: "), "{args:?}: {stderr}");
    assert!(lines[0].contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn help_flags_print_usage_and_succeed() {
    let usage = commchar(&["help"]);
    assert!(usage.status.success());
    for flag in ["--help", "-h"] {
        let out = commchar(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert_eq!(out.stdout, usage.stdout, "{flag} must print the usage text");
        assert!(out.stderr.is_empty(), "{flag}");
    }
    // A help flag wins over the rest of the command line.
    let out = commchar(&["run", "is", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(out.stdout, usage.stdout);
}

#[test]
fn zero_procs_is_a_one_line_error() {
    assert_one_line_error(&["run", "is", "--procs", "0"], "between 1 and 4096, got 0");
}

#[test]
fn procs_that_do_not_divide_the_keys_are_a_one_line_error() {
    assert_one_line_error(&["run", "is", "--procs", "3"], "is cannot run on 3 processors");
}

#[test]
fn too_many_procs_is_a_one_line_error() {
    assert_one_line_error(&["run", "is", "--procs", "70000"], "between 1 and 4096, got 70000");
}
