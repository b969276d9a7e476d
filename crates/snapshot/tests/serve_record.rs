//! `hetmem-serve --record` end to end: a killed daemon leaves a wire
//! log that decodes every request it served and that `hetmem-replay`
//! re-executes as UNVERIFIED (no trailer).

use hetmem_alloc::Fallback;
use hetmem_core::attr;
use hetmem_service::server::Client;
use hetmem_service::wire::{Request, Response};
use hetmem_service::Priority;
use hetmem_snapshot::{WireFrame, WireLog};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon, killed and reaped on drop so a failing test
/// leaves no process behind.
struct Daemon(Child);

impl Daemon {
    fn start(addr: &str, log: &Path) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_hetmem-serve"))
            .args(["knl-flat", "--addr", addr, "--record"])
            .arg(log)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("hetmem-serve starts");
        Daemon(child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory of this test's own, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_killed_daemon_leaves_a_log_that_replays_unverified() {
    let dir = TempDir(std::env::temp_dir().join(format!("hetmem-record-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("temp dir");
    let log_path = dir.0.join("serve.hmwl");
    let addr = format!("unix:{}", dir.0.join("serve.sock").display());
    let daemon = Daemon::start(&addr, &log_path);

    // The daemon binds once discovery is done: dial until it answers.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match Client::connect(&addr) {
            Ok(client) => break client,
            Err(e) => {
                assert!(Instant::now() < deadline, "the daemon never listened: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let register = Request::Register {
        tenant: "t".into(),
        priority: Priority::Normal,
        quota: Vec::new(),
        reserve: Vec::new(),
    };
    let resp = client.call(&register).expect("register");
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let alloc = Request::Alloc {
        tenant: "t".into(),
        size: 1 << 20,
        criterion: attr::BANDWIDTH,
        fallback: Fallback::PartialSpill,
        label: Some("buf".into()),
        ttl: None,
    };
    let Response::Granted { lease, .. } = client.call(&alloc).expect("alloc") else {
        panic!("alloc was not granted");
    };
    let free = Request::Free { tenant: "t".into(), lease };
    let resp = client.call(&free).expect("free");
    assert!(matches!(resp, Response::Freed), "{resp:?}");
    // Each frame is flushed before it is served, so the log is complete
    // once the replies are in.
    drop(daemon);
    drop(client);

    let log = WireLog::read_file(&log_path).expect("the log decodes");
    let recorded: Vec<&str> = log
        .frames
        .iter()
        .map(|frame| match frame {
            WireFrame::Request { json, .. } => json.as_str(),
            other => panic!("unexpected frame {other:?}"),
        })
        .collect();
    let sent: Vec<String> = [register, alloc, free].iter().map(Request::to_json).collect();
    assert_eq!(recorded, sent);
    assert!(log.trailer().is_none(), "a killed daemon writes no trailer");

    let out = Command::new(env!("CARGO_BIN_EXE_hetmem-replay"))
        .arg(&log_path)
        .output()
        .expect("hetmem-replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("UNVERIFIED"), "{stdout}");
}
