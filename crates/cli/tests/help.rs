//! Asking for help prints the usage and succeeds, whichever spelling is
//! used; an unknown command still fails.

use std::process::Command;

fn slimsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_slimsim")).args(args).output().expect("slimsim starts")
}

#[test]
fn every_help_spelling_prints_the_usage_and_exits_zero() {
    for args in [&[][..], &["help"], &["--help"], &["-h"], &["analyze", "--help"]] {
        let out = slimsim(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {}: {stderr}", out.status);
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
        assert!(!stderr.contains("error"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_unknown_command_fails() {
    let out = slimsim(&["--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `--bogus`"));
}
