//! `hetmem-run` argument parsing: an unknown option or a second
//! scenario file exits 2 with a usage hint, before any file is read.

use std::process::Command;

/// A shipped scenario, by its path from the repository root.
fn scenario(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `hetmem-run` on `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hetmem-run")).args(args).output().expect("runs");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
}

#[test]
fn an_unknown_option_exits_2() {
    let (code, stderr) = run(&[&scenario("service.txt"), "--objcts"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option \"--objcts\""), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}

#[test]
fn a_second_scenario_file_exits_2() {
    let (service, chaos) = (scenario("service.txt"), scenario("chaos.txt"));
    let (code, stderr) = run(&[&service, &chaos]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(&format!("not both {service:?} and {chaos:?}")), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}

#[test]
fn a_number_after_guidance_is_its_period_and_nothing_else_is() {
    // Both runs stop at the second file, so neither reads one: the
    // number was taken as the period, the file name was not.
    let (code, stderr) = run(&["--guidance", "64", "a.txt", "b.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("not both \"a.txt\" and \"b.txt\""), "{stderr}");
    let (code, stderr) = run(&["--guidance", "a.txt", "b.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("not both \"a.txt\" and \"b.txt\""), "{stderr}");
    let (code, stderr) = run(&["--guidance", "0", "a.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--guidance period must be at least 1"), "{stderr}");
}
