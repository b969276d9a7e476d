//! `hetmem-replay` argument parsing: an unknown option or a second
//! wire log exits 2 with a usage hint, before any file is read.

use std::process::Command;

/// Runs `hetmem-replay` on `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hetmem-replay")).args(args).output().expect("runs");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
}

#[test]
fn an_unknown_option_exits_2() {
    let (code, stderr) = run(&["a.hmwl", "--snapshto", "x"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option \"--snapshto\""), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}

#[test]
fn a_second_wire_log_exits_2() {
    let (code, stderr) = run(&["a.hmwl", "b.hmwl"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("not both \"a.hmwl\" and \"b.hmwl\""), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}
