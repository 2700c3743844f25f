//! End-to-end tests of `hlstb serve` / `hlstb serve-client`: a real
//! daemon process, a real client, and the full durability story — a
//! `kill -9`-equivalent abort mid-request followed by a restart that
//! replays the journal byte-identically.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hlstb"))
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hlstb_serve_cli_{}_{name}", std::process::id()))
}

/// A running daemon child whose bound address was scraped off stderr.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    fn start(journal: &std::path::Path, env: &[(&str, &str)]) -> DaemonProc {
        let mut cmd = bin();
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--journal"])
            .arg(journal)
            .stderr(Stdio::piped())
            .stdout(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("daemon spawns");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut reader = BufReader::new(stderr);
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(bound) = line.trim_end().strip_prefix("serve: listening on ") {
                addr = Some(bound.to_string());
                break;
            }
            line.clear();
        }
        let addr = addr.expect("daemon printed its bound address");
        // Keep draining stderr so the daemon never blocks on the pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        DaemonProc { child, addr }
    }

    fn sigterm(&self) {
        // SIGTERM, by pid: the graceful-drain path under test.
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
    }

    fn wait(mut self) -> std::process::ExitStatus {
        self.child.wait().expect("daemon reaps")
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const AXES: &[&str] = &[
    "--designs",
    "figure1",
    "--strategies",
    "none,full-scan",
    "--grade",
    "64",
];

fn client(addr: &str, id: &str) -> (String, String, bool) {
    let out = bin()
        .args(["serve-client", "--connect", addr, "--id", id])
        .args(AXES)
        .output()
        .expect("client runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The sweep axes of the depth check: diffeq graded at `grade`.
fn depth_axes(grade: &str) -> [&str; 6] {
    [
        "--designs",
        "diffeq",
        "--strategies",
        "full-scan,none",
        "--grade",
        grade,
    ]
}

fn completed_records(journal: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(journal)
        .expect("journal readable")
        .lines()
        .filter(|l| l.contains("\"kind\": \"completed\""))
        .map(str::to_string)
        .collect()
}

/// The acceptance story end to end: a daemon aborted mid-request (the
/// `kill -9` equivalent — no drain, no flush beyond what already hit
/// the journal) leaves an accepted-without-completed record; restarting
/// with `--replay-only` re-executes it and journals a `completed`
/// record byte-identical to an uninterrupted daemon's, then exits 0.
#[test]
fn kill_nine_mid_request_replays_byte_identically() {
    let clean_journal = temp("clean.jsonl");
    let crash_journal = temp("crash.jsonl");
    std::fs::remove_file(&clean_journal).ok();
    std::fs::remove_file(&crash_journal).ok();

    // Uninterrupted baseline, same request id.
    let daemon = DaemonProc::start(&clean_journal, &[]);
    let (report, stderr, ok) = client(&daemon.addr, "victim");
    assert!(ok, "{stderr}");
    assert!(report.contains("\"experiment\": \"dse_sweep\""));
    daemon.sigterm();
    assert!(daemon.wait().success(), "SIGTERM drain must exit 0");

    // Crashing daemon: aborts the instant `victim` is dequeued.
    let daemon = DaemonProc::start(
        &crash_journal,
        &[("HLSTB_SERVE_FAIL", "abort-after-accept:victim")],
    );
    let (_, _, ok) = client(&daemon.addr, "victim");
    assert!(!ok, "the client must see the connection die");
    let status = daemon.wait();
    assert!(!status.success(), "abort is not a clean exit");
    assert_eq!(completed_records(&crash_journal).len(), 0);
    assert!(
        std::fs::read_to_string(&crash_journal)
            .expect("journal survives the abort")
            .contains("\"kind\": \"accepted\""),
        "the accepted record must be durable before execution starts"
    );

    // Restart in replay-only mode: re-execute, journal, exit 0.
    let out = bin()
        .args(["serve", "--journal"])
        .arg(&crash_journal)
        .arg("--replay-only")
        .output()
        .expect("replay runs");
    assert!(out.status.success(), "replay-only must exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("replaying interrupted request `victim`"),
        "{stderr}"
    );

    let replayed = completed_records(&crash_journal);
    let baseline = completed_records(&clean_journal);
    assert_eq!(replayed.len(), 1);
    assert_eq!(
        replayed, baseline,
        "the replayed response must be byte-identical to the uninterrupted daemon's"
    );

    std::fs::remove_file(&clean_journal).ok();
    std::fs::remove_file(&crash_journal).ok();
}

/// A malformed `HLSTB_SERVE_FAIL` is a startup error that names the
/// variable, not a silently ignored injection.
#[test]
fn a_malformed_serve_fail_is_rejected() {
    let journal = temp("bogus.jsonl");
    std::fs::remove_file(&journal).ok();
    let out = bin()
        .args(["serve", "--journal"])
        .arg(&journal)
        .arg("--replay-only")
        .env("HLSTB_SERVE_FAIL", "bogus")
        .output()
        .expect("serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a bad HLSTB_SERVE_FAIL must fail");
    assert!(stderr.contains("HLSTB_SERVE_FAIL"), "{stderr}");
    std::fs::remove_file(&journal).ok();
}

/// SIGTERM during an in-flight request: the daemon finishes it, the
/// client gets its result, and the exit status is 0.
#[test]
fn sigterm_mid_request_drains_and_exits_zero() {
    let journal = temp("drain.jsonl");
    std::fs::remove_file(&journal).ok();
    let daemon = DaemonProc::start(&journal, &[]);
    let addr = daemon.addr.clone();
    let worker = std::thread::spawn(move || client(&addr, "drainee"));
    // Give the request time to be admitted, then pull the plug.
    std::thread::sleep(Duration::from_millis(300));
    daemon.sigterm();
    let (report, stderr, ok) = worker.join().expect("client thread");
    assert!(ok, "drain abandoned the in-flight request: {stderr}");
    assert!(report.contains("\"experiment\": \"dse_sweep\""));
    assert!(daemon.wait().success(), "drain must exit 0");
    assert_eq!(completed_records(&journal).len(), 1);
    std::fs::remove_file(&journal).ok();
}

/// One daemon answers a `--grade 64` request and then a `--grade 1024`
/// one: the deep request must get its own depth — the bytes of a local
/// uncached sweep — not a read of the shallow run its cache holds.
#[test]
fn a_deeper_request_after_a_shallow_one_reads_a_fresh_sweep() {
    let journal = temp("depth.jsonl");
    std::fs::remove_file(&journal).ok();
    let daemon = DaemonProc::start(&journal, &[]);
    for (id, grade) in [("shallow", "64"), ("deep", "1024")] {
        let served = bin()
            .args(["serve-client", "--connect", &daemon.addr, "--id", id])
            .args(depth_axes(grade))
            .output()
            .expect("client runs");
        assert!(
            served.status.success(),
            "{}",
            String::from_utf8_lossy(&served.stderr)
        );
        let local = bin()
            .args(["sweep", "--no-cache", "--json"])
            .args(depth_axes(grade))
            .output()
            .expect("local sweep runs");
        assert!(local.status.success());
        assert_eq!(
            String::from_utf8_lossy(&served.stdout),
            String::from_utf8_lossy(&local.stdout),
            "daemon answer at --grade {grade}"
        );
    }
    daemon.sigterm();
    assert!(daemon.wait().success(), "drain must exit 0");
    std::fs::remove_file(&journal).ok();
}
