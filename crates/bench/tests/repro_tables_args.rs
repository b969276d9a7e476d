//! `repro_tables` argument parsing: an unknown area, a second area or
//! a stray argument exits 2 with the usage line, before any area runs.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `repro_tables` on `args` and returns its exit code, stdout and
/// stderr. A run still going after ten seconds got past argument
/// parsing: it is killed and reported as `None`.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro_tables"))
        .args(args)
        // An area that does run writes its baseline here, not over the
        // committed one.
        .env("HETMEM_BENCH_DIR", env!("CARGO_TARGET_TMPDIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro_tables starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status.code();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let stdout = std::io::read_to_string(child.stdout.take().expect("stdout")).expect("stdout");
    let stderr = std::io::read_to_string(child.stderr.take().expect("stderr")).expect("stderr");
    (code, stdout, stderr)
}

/// Asserts a refusal: exit 2, nothing run, `why` and the usage line on
/// stderr.
fn assert_refused(args: &[&str], why: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?} ran an area");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro_tables"), "{args:?}: {stderr}");
}

#[test]
fn a_removed_area_exits_2() {
    assert_refused(&["--shard"], "unknown area \"--shard\"");
}

#[test]
fn a_misspelt_area_exits_2() {
    assert_refused(&["--chaso"], "unknown area \"--chaso\"");
}

#[test]
fn a_second_area_exits_2() {
    assert_refused(&["--service", "--chaos"], "not both \"--service\" and \"--chaos\"");
}

#[test]
fn a_stray_argument_exits_2() {
    assert_refused(&["--table1", "extra"], "stray argument \"extra\"");
}

#[test]
fn an_area_runs_alone() {
    let (code, stdout, stderr) = run(&["--table1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("== Table I"), "{stdout}");
    assert!(!stdout.contains("Table IIa"), "only the named area runs: {stdout}");
}
