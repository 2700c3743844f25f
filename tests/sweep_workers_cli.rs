//! End-to-end tests of `hlstb sweep --workers N`: real `sweep-worker
//! --connect` child processes dialing the coordinator's loopback port,
//! spliced byte-identically to a serial in-process run, surviving an
//! injected worker kill (`HLSTB_WORKER_FAIL`), composing with
//! `HLSTB_FAIL_POINT`, and all gone when the sweep returns.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};

fn run_env(args: &[&str], env: &[(&str, &str)]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hlstb"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const SMALL: &[&str] = &[
    "sweep",
    "--designs",
    "figure1,tseng",
    "--strategies",
    "none,full-scan,bist-shared",
    "--grade",
    "64",
    "--json",
];

fn with<'a>(extra: &'a [&'a str]) -> Vec<&'a str> {
    SMALL.iter().chain(extra).copied().collect()
}

#[test]
fn workers_sweep_is_byte_identical_to_serial_uncached() {
    let (serial, _, ok) = run_env(&with(&["--no-cache"]), &[]);
    assert!(ok);
    let (sharded, stderr, ok) = run_env(&with(&["--workers", "4"]), &[]);
    assert!(ok, "{stderr}");
    assert_eq!(serial, sharded, "worker splice diverged from serial run");
    assert!(
        stderr.contains("4 workers"),
        "summary lacks worker count: {stderr}"
    );
}

#[test]
fn a_killed_worker_process_is_reissued_byte_identically() {
    let (serial, _, ok) = run_env(&with(&["--no-cache"]), &[]);
    assert!(ok);
    // The only worker tears its stream after one point, which is
    // deterministic (a multi-lane kill depends on lease timing): its
    // outstanding lease re-issues, and with no lanes left the
    // coordinator finishes inline — still byte-identical.
    let (sharded, stderr, ok) =
        run_env(&with(&["--workers", "1"]), &[("HLSTB_WORKER_FAIL", "0:1")]);
    assert!(ok, "{stderr}");
    assert_eq!(serial, sharded, "splice diverged after worker kill");
    assert!(
        stderr.contains("re-issuing"),
        "no lease re-issue reported: {stderr}"
    );
    assert!(
        stderr.contains("no live workers"),
        "inline fallback not reported: {stderr}"
    );
}

#[test]
fn a_kill_among_surviving_workers_stays_byte_identical() {
    let (serial, _, ok) = run_env(&with(&["--no-cache"]), &[]);
    assert!(ok);
    // Whether worker 1 ever receives a second lease (and hence dies)
    // is timing-dependent; byte-identity must hold either way.
    let (sharded, stderr, ok) =
        run_env(&with(&["--workers", "3"]), &[("HLSTB_WORKER_FAIL", "1:1")]);
    assert!(ok, "{stderr}");
    assert_eq!(serial, sharded, "splice diverged after worker kill");
}

#[test]
fn fail_point_injection_composes_with_workers() {
    let env = [("HLSTB_FAIL_POINT", "panic:1;stall:3")];
    let (serial, serial_err, ok) = run_env(&with(&["--no-cache"]), &env);
    assert!(ok, "{serial_err}");
    let (sharded, stderr, ok) = run_env(&with(&["--workers", "2"]), &env);
    assert!(ok, "{stderr}");
    assert_eq!(serial, sharded);
    // The injected failures survive the wire as typed errors.
    assert!(stderr.contains("2 errors"), "summary: {stderr}");
    assert!(stderr.contains("panic: 1"), "summary: {stderr}");
    assert!(stderr.contains("timeout: 1"), "summary: {stderr}");
}

/// Starts `hlstb sweep-worker --connect` against a test listener and
/// returns the child and the accepted connection.
fn dialed_worker() -> (std::process::Child, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address").to_string();
    let child = Command::new(env!("CARGO_BIN_EXE_hlstb"))
        .args(["sweep-worker", "--connect", &addr])
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let (conn, _) = listener.accept().expect("worker dials in");
    (child, conn)
}

#[test]
fn sweep_worker_exits_zero_on_shutdown_after_ready() {
    let (child, mut conn) = dialed_worker();
    let spec = hlstb_dse::SweepSpec::new(vec![hlstb::cdfg::benchmarks::figure1()]);
    let hello = hlstb_dse::proto::encode_hello(0, &spec, &Default::default(), None);
    conn.write_all(format!("{hello}\n").as_bytes())
        .expect("write hello");
    let mut ready = String::new();
    BufReader::new(conn.try_clone().expect("clone"))
        .read_line(&mut ready)
        .expect("read ready");
    assert!(ready.contains("\"ready\""), "got: {ready}");
    let shutdown = hlstb_dse::proto::encode_shutdown();
    conn.write_all(format!("{shutdown}\n").as_bytes())
        .expect("write shutdown");
    let out = child.wait_with_output().expect("worker exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sweep_worker_rejects_garbage_with_a_typed_error() {
    let (child, mut conn) = dialed_worker();
    conn.write_all(b"this is not a frame\n")
        .expect("write garbage");
    let out = child.wait_with_output().expect("worker exits");
    assert!(!out.status.success(), "garbage must not be accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sweep-worker: io:"), "stderr: {stderr}");
}

#[test]
fn sweep_worker_without_connect_is_a_usage_error() {
    for args in [&["sweep-worker"][..], &["sweep-worker", "--connect"]] {
        let (_, stderr, ok) = run_env(args, &[]);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("usage: hlstb sweep-worker --connect"),
            "{stderr}"
        );
    }
}

/// No `sweep-worker` process outlives `hlstb sweep --workers 4`: every
/// process still carrying this run's environment marker (which the
/// launched workers inherit) must be gone once the coordinator exits.
#[cfg(target_os = "linux")]
#[test]
fn no_sweep_worker_outlives_a_workers_sweep() {
    let marker = format!("HLSTB_TEST_RUN=outlive-{}", std::process::id());
    let (key, value) = marker.split_once('=').expect("marker");
    let (_, stderr, ok) = run_env(&with(&["--workers", "4"]), &[(key, value)]);
    assert!(ok, "{stderr}");
    let survivors: Vec<String> = std::fs::read_dir("/proc")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
        .filter(|e| {
            std::fs::read(e.path().join("environ"))
                .is_ok_and(|env| env.split(|&b| b == 0).any(|v| v == marker.as_bytes()))
        })
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        survivors.is_empty(),
        "sweep-worker pids left: {survivors:?}"
    );
}
