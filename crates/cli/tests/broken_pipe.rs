//! A reader that closes `slimsim`'s stdout early is a clean exit, not a
//! panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_slimsim"))
        .args(["ctmc", "sensor-filter", "--size", "4", "--bound", "2.0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("slimsim starts");
    // Close the read end before the pipeline has printed anything.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert_ne!(status.code(), Some(101), "panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
}
