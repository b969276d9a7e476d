//! `lstopo` argument parsing: a second platform name, an unknown option
//! or `--input` without a file exits 2 with a usage hint, before
//! anything is rendered.

use std::process::Command;

/// Runs `lstopo` on `args` and returns its exit code, stdout and
/// stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lstopo")).args(args).output().expect("lstopo runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Asserts a refusal: exit 2, nothing rendered, `why` and the hint on
/// stderr.
fn assert_refused(args: &[&str], why: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?} rendered a topology");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("(try --help)"), "{args:?}: {stderr}");
}

#[test]
fn a_second_platform_exits_2() {
    assert_refused(
        &["xeon", "knl-flat", "--summary"],
        "one platform, not both \"xeon\" and \"knl-flat\"",
    );
}

#[test]
fn an_unknown_option_exits_2() {
    assert_refused(&["xeon", "--sumary"], "unknown option \"--sumary\"");
}

#[test]
fn input_without_a_file_exits_2() {
    assert_refused(&["--input"], "--input needs a file argument");
}

#[test]
fn an_unknown_platform_exits_1() {
    let (code, stdout, stderr) = run(&["knl-flta"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stdout, "");
    assert!(stderr.contains("unknown platform \"knl-flta\""), "{stderr}");
}

#[test]
fn one_platform_renders() {
    let (code, stdout, stderr) = run(&["xeon", "--summary"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stdout.is_empty(), "nothing rendered");
    assert_eq!(stderr, "");
}
