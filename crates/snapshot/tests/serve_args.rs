//! `hetmem-serve` argument parsing: an unknown option or a second
//! machine name exits 2 with a usage hint, before any socket is bound.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `hetmem-serve` on `args` and returns its exit code and stderr.
/// A daemon still running after ten seconds got past argument parsing:
/// it is killed and reported as `None`.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hetmem-serve"))
        // An ephemeral port, so a daemon that does start binds nothing
        // another test or service needs.
        .args(["--addr", "tcp:127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hetmem-serve starts");
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
    let stderr = std::io::read_to_string(child.stderr.take().expect("stderr")).expect("stderr");
    (code, stderr)
}

#[test]
fn an_unknown_option_exits_2() {
    let (code, stderr) = run(&["knl-flat", "--shards", "4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option \"--shards\""), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}

#[test]
fn a_second_machine_name_exits_2() {
    let (code, stderr) = run(&["knl-flat", "xeon"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("\"knl-flat\" and \"xeon\""), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}
