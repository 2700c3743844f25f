//! Chaos tests for the serve daemon: fuzzed request lines, concurrent
//! duplicate requests, handshake timeouts, load shedding, and drain —
//! every failure mode must resolve to a typed frame or a clean exit,
//! never a panic or a hang.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::DftStrategy;
use hlstb_dse::{run_sweep, PointError, SweepOptions, SweepSpec};
use hlstb_serve::proto::{self, Request};
use hlstb_serve::{client, Daemon, ServeConfig, SweepRequest};
use hlstb_trace::json::{self, Value};
use proptest::prelude::*;

fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
    spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
    spec.patterns = vec![64];
    spec
}

fn sweep_request(id: &str) -> SweepRequest {
    SweepRequest {
        id: id.to_string(),
        spec: small_spec(),
        opts: SweepOptions::default(),
        deadline: None,
    }
}

struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), PointError>>,
}

impl Server {
    fn start(cfg: ServeConfig) -> Server {
        let daemon = Daemon::bind(cfg).expect("bind");
        let addr = daemon.local_addr().expect("local addr");
        let stop = daemon.stop_handle();
        let handle = std::thread::spawn(move || daemon.run());
        Server { addr, stop, handle }
    }

    fn addr(&self) -> String {
        self.addr.to_string()
    }

    fn metrics(&self) -> Value {
        let frame =
            client::control(&self.addr(), &proto::encode_metrics_request()).expect("metrics");
        json::parse(&frame).expect("metrics frame parses")
    }

    /// Flips the stop flag and asserts the daemon drains to `Ok(())`.
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("daemon thread")
            .expect("drain exits cleanly");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The request parser survives arbitrary bytes: every outcome is a
    /// parsed request or a typed error, never a panic.
    #[test]
    fn fuzzed_request_lines_decode_or_fail_typed(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        match proto::decode_request(&line) {
            Ok(_) => {}
            Err(e) => prop_assert_eq!(e.kind(), "io"),
        }
    }

    /// A valid request line with a random chunk spliced in anywhere —
    /// the classic torn/corrupted-frame shape — must still decode or
    /// fail typed, never panic.
    #[test]
    fn fuzzed_mutations_of_a_valid_request_decode_or_fail_typed(
        at in 0usize..400,
        cut in 0usize..400,
        splice in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let valid = proto::encode_sweep_request(&sweep_request("fuzz"));
        let at = at.min(valid.len());
        let cut = cut.clamp(at, valid.len());
        let mut mutated = String::new();
        mutated.push_str(&valid[..floor_char(&valid, at)]);
        mutated.push_str(&String::from_utf8_lossy(&splice));
        mutated.push_str(&valid[floor_char(&valid, cut)..]);
        match proto::decode_request(&mutated) {
            Ok(_) => {}
            Err(e) => prop_assert_eq!(e.kind(), "io"),
        }
    }

    /// Structured fuzz over the envelope fields: every combination of
    /// version, type, id, and spec decodes or fails typed, and a sweep
    /// can only decode when the spec object is real.
    #[test]
    fn fuzzed_envelopes_decode_or_fail_typed(
        v in 0usize..4,
        kind in 0usize..5,
        id_len in 0usize..40,
        spec in 0usize..4,
    ) {
        let v = ["1", "2", "null", "\"x\""][v];
        let kind = ["sweep", "metrics", "ping", "warp", ""][kind];
        let spec = ["{}", "null", "[]", "{\"designs\": []}"][spec];
        let id = "x".repeat(id_len);
        let line = format!(
            "{{\"v\": {v}, \"type\": \"{kind}\", \"id\": {}, \"spec\": {spec}}}",
            json::escape(&id),
        );
        match proto::decode_request(&line) {
            Ok(Request::Sweep(_)) => prop_assert!(false, "no fuzzed spec above is valid: {line}"),
            Ok(_) => prop_assert!(kind == "metrics" || kind == "ping"),
            Err(e) => prop_assert_eq!(e.kind(), "io"),
        }
    }
}

/// Largest char-boundary offset `<= at` — splice points land between
/// characters, not inside a multi-byte sequence.
fn floor_char(s: &str, at: usize) -> usize {
    let mut at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Four concurrent identical requests: every response is byte-identical
/// and the shared cache coalesces or re-serves stage artifacts across
/// requests (nonzero hits + coalesced waits).
#[test]
fn concurrent_duplicates_are_byte_identical_and_coalesce() {
    let server = Server::start(ServeConfig {
        executors: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || {
                    client::run_sweep(&addr, &sweep_request(&format!("dup-{i}")))
                        .expect("sweep succeeds")
                        .report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for r in &reports[1..] {
        assert_eq!(
            r, &reports[0],
            "duplicate requests must agree byte-for-byte"
        );
    }
    let m = server.metrics();
    let hits = m
        .get("cache_hits")
        .and_then(Value::as_f64)
        .expect("cache_hits");
    let coalesced = m
        .get("cache_coalesced")
        .and_then(Value::as_f64)
        .expect("cache_coalesced");
    assert!(
        hits + coalesced > 0.0,
        "identical concurrent requests must share stage artifacts (hits={hits}, coalesced={coalesced})"
    );
    assert_eq!(m.get("completed").and_then(Value::as_f64), Some(4.0));
    server.shutdown();
}

/// A connection that never sends a request is dropped at the handshake
/// deadline and counted — it cannot hold a connection thread hostage.
#[test]
fn silent_connection_is_dropped_at_the_handshake_deadline() {
    let server = Server::start(ServeConfig {
        hello_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let t0 = Instant::now();
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    let mut buf = [0u8; 64];
    // Silent: never write. The daemon must close the connection.
    use std::io::Read;
    loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100),
        "dropped too early: {elapsed:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "hello deadline ignored");
    let m = server.metrics();
    assert_eq!(m.get("hello_timeouts").and_then(Value::as_f64), Some(1.0));
    server.shutdown();
}

/// A client that connects and never writes cannot hold drain hostage:
/// with its connection open, `run` returns within a second of the
/// stop flag, long before the 10 s default handshake deadline.
#[test]
fn a_silent_connection_does_not_delay_drain() {
    let server = Server::start(ServeConfig::default());
    let mut silent = TcpStream::connect(server.addr).expect("connect");
    // Connections are accepted in arrival order, so once this ping is
    // answered the silent connection has its own connection thread.
    let pong = client::control(&server.addr(), &proto::encode_ping_request()).expect("ping");
    assert!(pong.contains("pong"), "{pong}");
    let t0 = Instant::now();
    server.shutdown();
    let drained = t0.elapsed();
    assert!(
        drained < Duration::from_secs(1),
        "drain waited {drained:?} on a silent connection"
    );
    // Drain closed the silent connection rather than abandoning it.
    let mut buf = [0u8; 16];
    use std::io::Read;
    assert_eq!(silent.read(&mut buf).unwrap_or(0), 0);
}

/// An idle daemon answers a connection as soon as it arrives: the
/// median of 20 back-to-back `ping` round trips (a new connection
/// each) stays far below the accept loop's 25 ms stop-flag interval.
#[test]
fn an_idle_daemon_answers_without_waiting_for_a_tick() {
    let server = Server::start(ServeConfig::default());
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            client::control(&server.addr(), &proto::encode_ping_request()).expect("ping");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median ping round trip {median:?} ({rtts:?})"
    );
    server.shutdown();
}

/// With a zero-length queue every sweep submission sheds immediately
/// with a typed `overloaded` frame carrying the retry hint — the
/// daemon never stalls the accept path to absorb load.
#[test]
fn zero_queue_daemon_sheds_with_retry_hint() {
    let server = Server::start(ServeConfig {
        admission: hlstb_serve::AdmissionConfig {
            max_queue: 0,
            retry_after: Duration::from_millis(250),
            ..Default::default()
        },
        ..ServeConfig::default()
    });
    let err =
        client::run_sweep(&server.addr(), &sweep_request("shed-me")).expect_err("must be shed");
    let msg = err.message().to_string();
    assert!(msg.contains("overloaded"), "typed kind in {msg}");
    assert!(msg.contains("retry after 250 ms"), "retry hint in {msg}");
    // Control requests bypass admission and still work under shed.
    let m = server.metrics();
    assert_eq!(m.get("shed").and_then(Value::as_f64), Some(1.0));
    assert_eq!(m.get("accepted").and_then(Value::as_f64), Some(0.0));
    server.shutdown();
}

/// Garbage on the wire earns a typed `bad_request` frame and the
/// connection survives to serve a well-formed request afterwards.
#[test]
fn bad_request_is_typed_and_the_connection_survives() {
    let server = Server::start(ServeConfig::default());
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    conn.write_all(b"}{ total garbage\n").expect("send garbage");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("error frame");
    let v = json::parse(&frame).expect("frame parses");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("kind").and_then(Value::as_str), Some("bad_request"));
    // Same connection, now a valid ping.
    conn.write_all((proto::encode_ping_request() + "\n").as_bytes())
        .expect("send ping");
    frame.clear();
    reader.read_line(&mut frame).expect("pong frame");
    let v = json::parse(&frame).expect("pong parses");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("pong"));
    server.shutdown();
}

/// Drain initiated while a request is in flight: the request still
/// resolves with its result frame and the daemon exits 0.
#[test]
fn drain_finishes_inflight_requests() {
    let server = Server::start(ServeConfig::default());
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    let mut line = proto::encode_sweep_request(&sweep_request("drain-race"));
    line.push('\n');
    conn.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(conn);
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("accepted frame");
    let v = json::parse(&frame).expect("frame parses");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("accepted"));
    // The request is admitted; drain must not abandon it.
    server.stop.store(true, Ordering::SeqCst);
    let mut saw_result = false;
    loop {
        frame.clear();
        if reader.read_line(&mut frame).unwrap_or(0) == 0 {
            break;
        }
        let v = json::parse(&frame).expect("frame parses");
        if v.get("type").and_then(Value::as_str) == Some("result") {
            saw_result = true;
            break;
        }
    }
    assert!(saw_result, "drain abandoned an accepted request");
    server
        .handle
        .join()
        .expect("daemon thread")
        .expect("drain exits cleanly");
}

/// A successful request streams exactly one `progress` frame per point
/// before its result.
#[test]
fn a_request_streams_one_progress_frame_per_point() {
    let server = Server::start(ServeConfig::default());
    let outcome =
        client::run_sweep(&server.addr(), &sweep_request("progress")).expect("sweep succeeds");
    assert_eq!(outcome.progress_frames, small_spec().points().len());
    server.shutdown();
}

/// With the only executor busy on a long request, a request whose
/// deadline expires in the queue earns a typed `deadline` error frame,
/// and the journal resolves it with a `completed` record carrying that
/// frame.
#[test]
fn a_deadline_expired_in_the_queue_is_a_typed_journaled_error() {
    let journal = std::env::temp_dir().join(format!(
        "hlstb_serve_chaos_deadline_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let server = Server::start(ServeConfig {
        executors: 1,
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    });
    // Long enough (88 graded points: 0.15 s in a release build on a
    // 2-vCPU box) that the second request is queued while this one
    // runs.
    let mut long = sweep_request("long");
    long.spec = SweepSpec::new(vec![
        benchmarks::diffeq(),
        benchmarks::ewf(),
        benchmarks::tseng(),
        benchmarks::gcd(),
    ]);
    long.spec.patterns = vec![1024, 8192];
    let mut conn = TcpStream::connect(server.addr).expect("connect");
    conn.write_all((proto::encode_sweep_request(&long) + "\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(conn);
    let mut next_frame_type = || {
        let mut frame = String::new();
        assert!(
            reader.read_line(&mut frame).expect("frame") > 0,
            "stream ended"
        );
        let v = json::parse(&frame).expect("frame parses");
        v.get("type").and_then(Value::as_str).map(str::to_string)
    };
    // Its first progress frame shows the long request holds the only
    // executor, with most of its points still to run.
    while next_frame_type().as_deref() != Some("progress") {}
    let mut short = sweep_request("short");
    short.deadline = Some(Duration::from_millis(1));
    let err = client::run_sweep(&server.addr(), &short).expect_err("deadline expires in the queue");
    assert!(
        err.message().contains("deadline: deadline of 1 ms expired"),
        "typed kind in {}",
        err.message()
    );
    while next_frame_type().as_deref() != Some("result") {}
    let text = std::fs::read_to_string(&journal).expect("journal");
    let completed = text
        .lines()
        .map(|line| json::parse(line).expect("journal line parses"))
        .find(|r| {
            r.get("kind").and_then(Value::as_str) == Some("completed")
                && r.get("id").and_then(Value::as_str) == Some("short")
        })
        .expect("the expired request is journaled as completed");
    let response = completed
        .get("response")
        .and_then(Value::as_str)
        .expect("completed record carries the response frame");
    let frame = json::parse(response).expect("response frame parses");
    assert_eq!(frame.get("type").and_then(Value::as_str), Some("error"));
    assert_eq!(frame.get("kind").and_then(Value::as_str), Some("deadline"));
    server.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// Sends `requests` to one fresh daemon in order and returns each
/// canonical report.
fn reports_through_one_daemon(requests: &[SweepRequest]) -> Vec<String> {
    let server = Server::start(ServeConfig::default());
    let reports = requests
        .iter()
        .map(|req| {
            client::run_sweep(&server.addr(), req)
                .expect("sweep succeeds")
                .report
        })
        .collect();
    server.shutdown();
    reports
}

/// The canonical report of a fresh serial uncached run of `req`.
fn serial_uncached(req: &SweepRequest) -> String {
    let opts = SweepOptions {
        threads: 1,
        cache: false,
        ..req.opts
    };
    run_sweep(&req.spec, &opts).report.canonical_json()
}

/// A full- and no-scan request over `designs` at one grading budget.
fn graded_request(id: &str, designs: Vec<Cdfg>, patterns: usize) -> SweepRequest {
    let mut spec = SweepSpec::new(designs);
    spec.strategies = vec![DftStrategy::FullScan, DftStrategy::None];
    spec.patterns = vec![patterns];
    SweepRequest {
        id: id.to_string(),
        spec,
        opts: SweepOptions::default(),
        deadline: None,
    }
}

/// A `--grade 1024` request after a `--grade 64` one to the same
/// daemon reads its own depth: the shallow request's grading runs
/// cannot serve it, so it grades afresh and its report equals a
/// serial uncached run's.
#[test]
fn a_deeper_budget_after_a_shallow_one_gets_its_own_coverage() {
    let designs = || vec![benchmarks::ewf(), benchmarks::diffeq()];
    let requests = [
        graded_request("shallow", designs(), 64),
        graded_request("deep", designs(), 1024),
    ];
    let reports = reports_through_one_daemon(&requests);
    for (req, report) in requests.iter().zip(&reports) {
        assert_eq!(report, &serial_uncached(req), "request {}", req.id);
    }
}

/// A request whose zero point budget cuts every grading run short
/// must not leave a cut run behind: the same request without a budget
/// grades in full, unflagged, as a serial uncached run does.
#[test]
fn a_cut_grading_run_never_serves_a_later_request() {
    let mut cut = graded_request("cut", vec![benchmarks::ewf()], 256);
    cut.opts.point_budget = Some(Duration::ZERO);
    let whole = graded_request("whole", vec![benchmarks::ewf()], 256);
    let reports = reports_through_one_daemon(&[cut.clone(), whole.clone()]);
    assert!(reports[0].contains("\"timed_out\": true"), "{}", reports[0]);
    assert_eq!(reports[0], serial_uncached(&cut));
    assert!(
        !reports[1].contains("\"timed_out\": true"),
        "{}",
        reports[1]
    );
    assert_eq!(reports[1], serial_uncached(&whole));
}
