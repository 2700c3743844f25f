//! Property and fault-injection tests for scale-out sweeps: sharding a
//! sweep over worker lanes (launched worker threads dialing a loopback
//! port — real wire protocol and sockets, no processes) must splice a
//! report byte-identical to a serial uncached run, for any worker
//! count, under injected point failures, under worker death mid-lease,
//! and through checkpoint resume. Launched worker processes are
//! exercised end-to-end by `tests/sweep_workers_cli.rs` at the
//! workspace root.

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::{DftStrategy, RegisterPolicy, Scheduler};
use hlstb_dse::worker::{
    run_sweep_listen, run_sweep_listen_with_timeout, run_sweep_workers, thread_spawner,
    worker_connect, Invite, Launched, WorkerFail,
};
use hlstb_dse::{proto, run_sweep_with, FailMode, FailPlan, Recovery, SweepOptions, SweepSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn subset<T: Clone>(pool: &[T], rng: &mut StdRng) -> Vec<T> {
    loop {
        let picked: Vec<T> = pool.iter().filter(|_| rng.gen_bool(0.4)).cloned().collect();
        if !picked.is_empty() {
            return picked;
        }
    }
}

/// A random small spec, as in `sweep_determinism.rs`.
fn arb_spec(seed: u64) -> SweepSpec {
    let rng = &mut StdRng::seed_from_u64(seed);
    let pool: Vec<Cdfg> = vec![
        benchmarks::figure1(),
        benchmarks::tseng(),
        benchmarks::gcd(),
    ];
    let mut designs = subset(&pool, rng);
    designs.truncate(2);
    let mut spec = SweepSpec::new(designs);
    spec.schedulers = subset(&[Scheduler::List, Scheduler::IoAware], rng);
    spec.policies = subset(&[RegisterPolicy::LeftEdge, RegisterPolicy::Boundary], rng);
    spec.strategies = subset(
        &[
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::BistShared,
            DftStrategy::KLevelTestPoints(2),
        ],
        rng,
    );
    spec.strategies.truncate(3);
    spec.patterns = subset(&[0usize, 64, 128], rng);
    spec.patterns.truncate(2);
    spec.reset_controller = rng.gen_bool(0.5);
    spec
}

fn serial_canonical(spec: &SweepSpec, recovery: &Recovery) -> String {
    run_sweep_with(
        spec,
        &SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        },
        recovery,
    )
    .unwrap()
    .report
    .canonical_json()
}

fn workers_canonical(
    spec: &SweepSpec,
    recovery: &Recovery,
    workers: usize,
    fail: Option<WorkerFail>,
) -> (String, u64) {
    let mut spawn = thread_spawner(fail);
    let outcome = run_sweep_workers(
        spec,
        &SweepOptions::default(),
        recovery,
        workers,
        &mut spawn,
    )
    .unwrap();
    assert_eq!(outcome.report.workers, workers.max(1));
    // Worker sweeps aggregate the fleet's cache stats from the `done`
    // frames, so the envelope carries them even over the wire.
    assert!(outcome.report.cache.is_some());
    (outcome.report.canonical_json(), outcome.report.reissued)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn worker_sharded_sweep_is_byte_identical_for_1_and_8_lanes(seed in 0u64..10_000) {
        let spec = arb_spec(seed);
        let recovery = Recovery::default();
        let serial = serial_canonical(&spec, &recovery);
        let (one, _) = workers_canonical(&spec, &recovery, 1, None);
        let (eight, _) = workers_canonical(&spec, &recovery, 8, None);
        prop_assert_eq!(&serial, &one);
        prop_assert_eq!(&serial, &eight);
    }

    #[test]
    fn injected_point_failures_splice_identically_across_lanes(seed in 0u64..10_000) {
        let spec = arb_spec(seed);
        let n = spec.points().len();
        let rng = &mut StdRng::seed_from_u64(seed ^ 0xFA11);
        let mut plan = FailPlan::default();
        for index in 0..n {
            if rng.gen_bool(0.3) {
                let mode = match rng.gen_range(0..3u8) {
                    0 => FailMode::Panic,
                    1 => FailMode::Stall,
                    _ => FailMode::Flaky,
                };
                plan.insert(index, mode);
            }
        }
        // The plan crosses the wire in the hello frame, so the workers
        // inject the exact same deterministic failures the in-process
        // engine would.
        let recovery = Recovery { fail_plan: Some(plan), ..Recovery::default() };
        let serial = serial_canonical(&spec, &recovery);
        let (sharded, _) = workers_canonical(&spec, &recovery, 4, None);
        prop_assert_eq!(&serial, &sharded);
    }

    #[test]
    fn a_worker_killed_mid_lease_reissues_and_stays_byte_identical(seed in 0u64..5_000) {
        let spec = arb_spec(seed);
        let recovery = Recovery::default();
        let serial = serial_canonical(&spec, &recovery);
        // Worker 1 dies with a torn frame after emitting one point.
        // (With 3 lanes it always receives a lease on nontrivial specs,
        // but byte-identity must hold either way.)
        let fail = Some(WorkerFail { worker: 1, after: 1 });
        let (sharded, _) = workers_canonical(&spec, &recovery, 3, fail);
        prop_assert_eq!(&serial, &sharded);
    }
}

/// A killed worker's leased-but-unreceived points are re-issued and
/// counted in `reissued` (transport recovery), not conflated with the
/// per-point `retries` taxonomy.
#[test]
fn killed_worker_lease_reissue_is_counted() {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.patterns = vec![0, 64];
    let n = spec.points().len();
    assert!(n >= 8, "spec too small to guarantee the dying lane works");
    let recovery = Recovery::default();
    let serial = serial_canonical(&spec, &recovery);
    // Die immediately after the lease arrives: everything leased to
    // worker 0 is torn away and must be re-issued.
    let fail = Some(WorkerFail {
        worker: 0,
        after: 0,
    });
    let (sharded, reissued) = workers_canonical(&spec, &recovery, 2, fail);
    assert_eq!(serial, sharded);
    assert!(reissued > 0, "the killed lease was never re-issued");
}

/// A lane that streams garbage instead of protocol frames is detected
/// as a typed decode failure and abandoned; the sweep still completes
/// byte-identically (here via the inline fallback, since the only
/// launched worker speaks garbage and then exits).
#[test]
fn garbage_speaking_worker_is_abandoned_not_trusted() {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
    spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
    let recovery = Recovery::default();
    let serial = serial_canonical(&spec, &recovery);
    let mut launch = |invite: &Invite| -> Result<Launched, hlstb_dse::PointError> {
        let addr = invite.addr.clone();
        Ok(Launched::Thread(std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("dial the coordinator");
            let _ = conn.write_all(b"{\"v\":1,\"key\":\"nope\nnot json at all\n");
        })))
    };
    let outcome = run_sweep_workers(&spec, &SweepOptions::default(), &recovery, 1, &mut launch)
        .expect("sweep completes despite the garbage lane");
    assert_eq!(serial, outcome.report.canonical_json());
}

/// Workers resume from a checkpoint exactly like the in-process
/// engine: restored points splice from the file, the rest are leased
/// out, and the final report is byte-identical.
#[test]
fn workers_resume_from_a_checkpoint_byte_identically() {
    let dir = std::env::temp_dir().join(format!("hlstb-workers-ck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::gcd()]);
    spec.patterns = vec![0, 64];
    let serial = serial_canonical(&spec, &Recovery::default());

    // First pass: only figure1's points, streamed to the checkpoint.
    let mut first = spec.clone();
    first.designs = vec![benchmarks::figure1()];
    let recovery = Recovery {
        checkpoint: Some(path.clone()),
        ..Recovery::default()
    };
    let mut spawn = thread_spawner(None);
    let partial =
        run_sweep_workers(&first, &SweepOptions::default(), &recovery, 2, &mut spawn).unwrap();
    assert!(partial.report.points.len() < spec.points().len());

    // Second pass: the full spec with --resume; figure1's points come
    // back from the file (their keys match), gcd's are evaluated.
    let resume = Recovery {
        checkpoint: Some(path.clone()),
        resume: true,
        ..Recovery::default()
    };
    let mut spawn = thread_spawner(None);
    let full = run_sweep_workers(&spec, &SweepOptions::default(), &resume, 2, &mut spawn).unwrap();
    assert_eq!(full.report.restored, partial.report.points.len());
    assert_eq!(serial, full.report.canonical_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: resuming a checkpoint that restores every point, with
/// the progress meter on, exercises the ETA arithmetic at `done ==
/// total` (and past it, via the meter's own saturation) without
/// underflow, and still splices byte-identically.
#[test]
fn resume_with_all_points_restored_keeps_progress_sane() {
    let dir = std::env::temp_dir().join(format!("hlstb-workers-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("all.jsonl");
    let _ = std::fs::remove_file(&path);
    let spec = SweepSpec::new(vec![benchmarks::figure1()]);
    let recovery = Recovery {
        checkpoint: Some(path.clone()),
        ..Recovery::default()
    };
    let mut spawn = thread_spawner(None);
    let first =
        run_sweep_workers(&spec, &SweepOptions::default(), &recovery, 2, &mut spawn).unwrap();
    let resume = Recovery {
        checkpoint: Some(path.clone()),
        resume: true,
        ..Recovery::default()
    };
    let opts = SweepOptions {
        progress: true,
        ..SweepOptions::default()
    };
    let mut spawn = thread_spawner(None);
    let second = run_sweep_workers(&spec, &opts, &resume, 2, &mut spawn).unwrap();
    assert_eq!(second.report.restored, spec.points().len());
    assert_eq!(
        first.report.canonical_json(),
        second.report.canonical_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Wire-protocol robustness: no frame mutation may panic a decoder, and
// every rejection is a typed `PointError::Io`-family error (which the
// coordinator answers by re-issuing the lane's leases).

/// A pool of valid frames to mutate.
fn valid_frames() -> Vec<String> {
    let spec = SweepSpec::new(vec![benchmarks::figure1()]);
    let mut plan = FailPlan::default();
    plan.insert(1, FailMode::Panic);
    vec![
        proto::encode_hello(3, &spec, &SweepOptions::default(), Some(&plan)),
        proto::encode_lease(0, 7),
        proto::encode_shutdown(),
        proto::encode_ready(3, 7, None),
        proto::encode_point(0xdead_beef, 4, "{\"index\": 4}"),
        proto::encode_done(0, 7, &proto::DoneStats::default()),
        proto::encode_error("boom"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn truncated_frames_decode_to_typed_errors_not_panics(
        which in 0usize..7,
        cut in 0usize..200,
    ) {
        let frame = &valid_frames()[which];
        // Truncate at an arbitrary char boundary strictly inside the
        // frame, as a torn pipe would.
        let cut = cut % frame.len().max(1);
        let torn: String = frame.chars().take(cut).collect();
        for result in [proto::decode_to_worker(&torn), proto::decode_to_worker(frame)] {
            if let Err(e) = result {
                prop_assert_eq!(e.kind(), "io");
            }
        }
        if let Err(e) = proto::decode_from_worker(&torn) {
            prop_assert_eq!(e.kind(), "io");
        }
    }

    #[test]
    fn mutated_frames_decode_to_typed_errors_not_panics(
        which in 0usize..7,
        pos in 0usize..500,
        byte in 0u8..=255,
    ) {
        let frame = &valid_frames()[which];
        let mut bytes = frame.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        // Mutations may yield invalid UTF-8; the reader layer hands
        // decoders strings, so exercise only the valid-UTF-8 subset
        // (invalid UTF-8 already fails in `read_line` as io::Error).
        if let Ok(s) = String::from_utf8(bytes) {
            if let Err(e) = proto::decode_to_worker(&s) {
                prop_assert_eq!(e.kind(), "io");
            }
            if let Err(e) = proto::decode_from_worker(&s) {
                prop_assert_eq!(e.kind(), "io");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TCP transport: the same coordinator loop with lanes that are accepted
// sockets. These tests drive `run_sweep_listen`/`worker_connect` over
// real loopback connections — handshakes, garbage, torn frames, kills,
// and redials all cross an actual TCP stream.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.patterns = vec![0, 64];
    spec
}

/// Reads one newline-framed line from a test-coordinator socket.
fn read_frame_line(reader: &mut impl std::io::BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read frame");
    line
}

fn write_frame_line(conn: &mut TcpStream, frame: &str) {
    conn.write_all(frame.as_bytes()).expect("write frame");
    conn.write_all(b"\n").expect("write newline");
}

/// A TCP sweep with dialed-in workers splices byte-identically to the
/// serial uncached run, and the fleet's cache stats reach the envelope.
#[test]
fn tcp_sweep_is_byte_identical_to_serial() {
    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            run_sweep_listen(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
            )
            .unwrap()
        })
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || worker_connect(&addr, None))
        })
        .collect();
    let outcome = coord.join().unwrap();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly on shutdown");
    }
    assert_eq!(serial, outcome.report.canonical_json());
    assert_eq!(outcome.report.workers, 2);
    assert_eq!(outcome.report.reissued, 0);
    assert!(outcome.report.cache.is_some());
}

/// A worker killed mid-lease over TCP (torn frame, fatal — no redial)
/// has its lease re-issued to a replacement that dials in later; the
/// spliced report stays byte-identical and the re-issue is counted.
#[test]
fn tcp_kill_mid_lease_then_reconnect_is_byte_identical() {
    let spec = small_spec();
    assert!(spec.points().len() >= 8);
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            run_sweep_listen(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
            )
            .unwrap()
        })
    };
    // First dial becomes lane 0 and dies after one point with a torn
    // frame — `worker_connect` treats the injected death as a real
    // kill and must NOT redial.
    let dying = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            worker_connect(
                &addr,
                Some(WorkerFail {
                    worker: 0,
                    after: 1,
                }),
            )
        })
    };
    let err = dying.join().unwrap().expect_err("injected death is fatal");
    assert_eq!(err.kind(), "panic");
    // The replacement attaches as a fresh lane and absorbs the
    // re-issued lease.
    let replacement = std::thread::spawn(move || worker_connect(&addr, None));
    let outcome = coord.join().unwrap();
    replacement
        .join()
        .unwrap()
        .expect("replacement exits cleanly");
    assert_eq!(serial, outcome.report.canonical_json());
    assert!(
        outcome.report.reissued > 0,
        "the torn lease was never re-issued"
    );
    assert_eq!(
        outcome.report.workers, 2,
        "kill + reconnect = two lanes seen"
    );
}

/// A connection that completes TCP connect but never sends a byte —
/// a stuck dialer, a port scanner — must be dropped at the handshake
/// deadline instead of pinning a reader thread for the whole sweep;
/// a real worker that dials in afterwards still finishes the job
/// byte-identically.
#[test]
fn tcp_silent_connection_is_dropped_at_hello_deadline() {
    use std::time::{Duration, Instant};

    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            run_sweep_listen_with_timeout(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
                Duration::from_millis(200),
            )
            .unwrap()
        })
    };
    // Connect and go silent. No worker exists yet, so the sweep cannot
    // finish — the only thing that can close this socket is the
    // handshake deadline. The client sees the coordinator's hello
    // frame, then EOF (or a reset) once it is dropped.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let t0 = Instant::now();
    let mut buf = [0u8; 1024];
    loop {
        match std::io::Read::read(&mut conn, &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "dropped before any deadline could have elapsed"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "silent connection pinned its lane far past the 200ms deadline"
    );
    drop(conn);
    // A real worker finishes the sweep; the dropped lane changed no
    // results.
    let worker = std::thread::spawn(move || worker_connect(&addr, None));
    let outcome = coord.join().unwrap();
    worker.join().unwrap().expect("worker exits cleanly");
    assert_eq!(serial, outcome.report.canonical_json());
    assert_eq!(
        outcome.report.workers, 2,
        "the dropped silent lane is still counted as a lane seen"
    );
}

/// Raw connections that write garbage instead of protocol frames are
/// abandoned as typed decode failures; a well-behaved worker still
/// finishes the sweep byte-identically.
#[test]
fn tcp_garbage_connections_are_abandoned_not_trusted() {
    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            run_sweep_listen(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
            )
            .unwrap()
        })
    };
    // Garbage dialers: torn prefixes of real frames and outright junk.
    for frame in valid_frames() {
        let mut conn = TcpStream::connect(&addr).unwrap();
        let torn = &frame.as_bytes()[..frame.len() * 2 / 3];
        let _ = conn.write_all(torn);
        drop(conn);
    }
    let mut junk = TcpStream::connect(&addr).unwrap();
    let _ = junk.write_all(b"{\"v\": 1, \"key\": \"nope\nnot json at all\n");
    drop(junk);
    let worker = std::thread::spawn(move || worker_connect(&addr, None));
    let outcome = coord.join().unwrap();
    worker.join().unwrap().expect("real worker exits cleanly");
    assert_eq!(serial, outcome.report.canonical_json());
}

/// A version-skewed hello is rejected over the socket: the worker
/// writes a typed error frame back (so the coordinator can log why)
/// and treats the handshake rejection as fatal — no redial loop.
#[test]
fn tcp_version_mismatch_hello_is_rejected_with_error_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || worker_connect(&addr, None));
    let (mut conn, _) = listener.accept().unwrap();
    let spec = SweepSpec::new(vec![benchmarks::figure1()]);
    let skewed = proto::encode_hello(0, &spec, &SweepOptions::default(), None).replacen(
        &format!("\"v\": {}", proto::PROTO_VERSION),
        "\"v\": 99",
        1,
    );
    write_frame_line(&mut conn, &skewed);
    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
    let reply = read_frame_line(&mut from);
    match proto::decode_from_worker(&reply) {
        Ok(proto::FromWorker::Error { message }) => {
            assert!(
                message.contains("version"),
                "unexpected rejection: {message}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    let err = worker
        .join()
        .unwrap()
        .expect_err("rejected handshake is fatal");
    assert_eq!(err.kind(), "io");
}

/// A worker whose stream drops mid-session redials with backoff and
/// serves a fresh session; a polite shutdown on the second session
/// ends the dial loop cleanly.
#[test]
fn tcp_worker_redials_after_stream_drop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = SweepSpec::new(vec![benchmarks::figure1()]);
    let hello = proto::encode_hello(0, &spec, &SweepOptions::default(), None);
    let worker = std::thread::spawn(move || worker_connect(&addr, None));
    // Session 1: complete the handshake, then drop the stream.
    let (mut conn, _) = listener.accept().unwrap();
    write_frame_line(&mut conn, &hello);
    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
    let ready = read_frame_line(&mut from);
    assert!(matches!(
        proto::decode_from_worker(&ready),
        Ok(proto::FromWorker::Ready { .. })
    ));
    drop(from);
    drop(conn);
    // Session 2: the worker redialed; hand it a clean shutdown.
    let (mut conn, _) = listener.accept().unwrap();
    write_frame_line(&mut conn, &hello);
    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
    let _ready = read_frame_line(&mut from);
    write_frame_line(&mut conn, &proto::encode_shutdown());
    worker
        .join()
        .unwrap()
        .expect("shutdown after redial is a clean exit");
}

/// With nothing listening, the dial loop gives up after its bounded
/// backoff budget with a typed error instead of spinning forever.
#[test]
fn tcp_worker_gives_up_after_bounded_redials() {
    // Bind-then-drop reserves a port that refuses connections.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let err = worker_connect(&addr, None).expect_err("no listener to reach");
    assert_eq!(err.kind(), "io");
    assert!(err.message().contains("gave up"), "got: {}", err.message());
}

/// Two consecutive workers die with torn frames on their first leased
/// point before a healthy one dials in: every abandoned lease is
/// re-issued (listen mode never gives up on a dead lane — it waits for
/// the next connection) and the final splice is still byte-identical.
#[test]
fn tcp_repeated_torn_deaths_reissue_until_a_worker_survives() {
    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            run_sweep_listen(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
            )
            .unwrap()
        })
    };
    // Lanes 0 and 1 each tear their first point frame apart mid-bytes
    // and die fatally; each death must be observed before the next
    // dial so the injected lane ids line up.
    for lane in 0..2u32 {
        let addr = addr.clone();
        let torn = std::thread::spawn(move || {
            worker_connect(
                &addr,
                Some(WorkerFail {
                    worker: lane,
                    after: 0,
                }),
            )
        });
        let err = torn.join().unwrap().expect_err("torn worker dies");
        assert_eq!(err.kind(), "panic");
    }
    let survivor = std::thread::spawn(move || worker_connect(&addr, None));
    let outcome = coord.join().unwrap();
    survivor.join().unwrap().expect("survivor exits cleanly");
    assert_eq!(serial, outcome.report.canonical_json());
    assert!(outcome.report.reissued >= 2, "both torn leases re-issue");
    assert_eq!(outcome.report.workers, 3);
}

/// The `io:` fail-point fails a spliced point's checkpoint append on
/// the coordinator exactly as it fails a local one in the in-process
/// engine (`sweep_recovery.rs`): the checkpoint degrades once, every
/// point still lands, and the report stays byte-identical — over
/// loopback lanes and over TCP lanes alike.
#[test]
fn io_fail_point_degrades_the_coordinators_checkpoint() {
    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let dir = std::env::temp_dir().join(format!("hlstb-workers-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recovery = |name: &str| {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        Recovery {
            fail_plan: Some(FailPlan::parse("io:1").unwrap()),
            checkpoint: Some(path),
            ..Recovery::default()
        }
    };

    let mut spawn = thread_spawner(None);
    let loopback = run_sweep_workers(
        &spec,
        &SweepOptions::default(),
        &recovery("loopback.jsonl"),
        2,
        &mut spawn,
    )
    .unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let coord = {
        let spec = spec.clone();
        let recovery = recovery("tcp.jsonl");
        std::thread::spawn(move || {
            run_sweep_listen(&spec, &SweepOptions::default(), &recovery, listener).unwrap()
        })
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || worker_connect(&addr, None))
        })
        .collect();
    let tcp = coord.join().unwrap();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly on shutdown");
    }

    for outcome in [loopback, tcp] {
        assert!(outcome.report.errors().is_empty());
        assert!(outcome.report.checkpoint_degraded);
        assert_eq!(outcome.checkpoint_write_errors, 1);
        assert_eq!(serial, outcome.report.canonical_json());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Launch trust and lifetime: a `--workers` sweep splices only from the
// workers it launched, and none of them outlives the call.

/// A forger dialing a `--workers` sweep's port: after the hello it
/// either sends `forged` point frames unsolicited (`handshake` false)
/// or answers `ready` without the token (`handshake` true); either way
/// it then answers every lease with the forged frames for its range,
/// until the coordinator drops the lane or shuts the sweep down.
fn forge(addr: &str, forged: &[String], handshake: bool) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
    let Ok(proto::ToWorker::Hello(hello)) = proto::decode_to_worker(&read_frame_line(&mut from))
    else {
        panic!("expected a hello");
    };
    let send = |conn: &mut TcpStream, frames: &[String]| {
        frames
            .iter()
            .all(|f| conn.write_all(format!("{f}\n").as_bytes()).is_ok())
    };
    if handshake {
        let ready = proto::encode_ready(hello.worker, hello.spec.points().len(), None);
        write_frame_line(&mut conn, &ready);
    } else if !send(&mut conn, forged) {
        return;
    }
    let mut line = String::new();
    while matches!(std::io::BufRead::read_line(&mut from, &mut line), Ok(n) if n > 0) {
        match proto::decode_to_worker(&line) {
            Ok(proto::ToWorker::Lease { start, end }) if send(&mut conn, &forged[start..end]) => {}
            _ => return,
        }
        line.clear();
    }
}

/// Dialers without the sweep's token have nothing spliced: one that
/// streams forged point frames (each with the right key and another
/// point's payload) straight after the hello, and one that completes a
/// valid handshake without the token and would answer leases with the
/// same forgeries. The report stays byte-identical to a serial
/// uncached run. The launched workers dial in only once both forgers'
/// lanes have been dropped, so the forgeries land while every point is
/// still open.
#[test]
fn a_tokenless_dialer_has_nothing_spliced() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    // A checkpoint line is a point frame: take the genuine ones and
    // re-label each with its neighbour's payload.
    let dir = std::env::temp_dir().join(format!("hlstb-workers-forge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("genuine.jsonl");
    let _ = std::fs::remove_file(&path);
    let checkpointed = Recovery {
        checkpoint: Some(path.clone()),
        ..Recovery::default()
    };
    run_sweep_with(&spec, &SweepOptions::default(), &checkpointed).unwrap();
    let mut genuine: Vec<(u64, usize, String)> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|line| match proto::decode_from_worker(line) {
            Ok(proto::FromWorker::Point {
                key,
                index,
                canonical,
            }) => (key, index, canonical),
            other => panic!("not a point frame: {other:?}"),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    genuine.sort_by_key(|&(_, index, _)| index);
    assert_eq!(genuine.len(), spec.points().len());
    let forged: Vec<String> = genuine
        .iter()
        .enumerate()
        .map(|(i, (key, index, _))| {
            let (_, _, payload) = &genuine[(i + 1) % genuine.len()];
            proto::encode_point(*key, *index, payload)
        })
        .collect();

    let forgers_done = Arc::new(AtomicBool::new(false));
    let mut forgers = None;
    let mut launch = |invite: &Invite| -> Result<Launched, hlstb_dse::PointError> {
        if forgers.is_none() {
            let (addr, forged, done) = (
                invite.addr.clone(),
                forged.clone(),
                Arc::clone(&forgers_done),
            );
            forgers = Some(std::thread::spawn(move || {
                forge(&addr, &forged, false);
                forge(&addr, &forged, true);
                done.store(true, Ordering::SeqCst);
            }));
        }
        let (invite, done) = (invite.clone(), Arc::clone(&forgers_done));
        Ok(Launched::Thread(std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            invite.connect(None).expect("launched worker exits cleanly");
        })))
    };
    let outcome = run_sweep_workers(
        &spec,
        &SweepOptions::default(),
        &Recovery::default(),
        2,
        &mut launch,
    )
    .unwrap();
    forgers.take().unwrap().join().unwrap();
    assert_eq!(serial, outcome.report.canonical_json());
    assert_eq!(outcome.report.workers, 2);
}

/// `run_sweep_workers` returns only once every launched worker has
/// exited — including one that dials in after the work is done, which
/// gets `hello` and then `shutdown` (a clean exit, not a redial loop
/// against a closed port).
#[test]
fn every_launched_worker_has_exited_when_the_sweep_returns() {
    use std::sync::{Arc, Mutex};

    let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
    spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
    let n = spec.points().len();
    let serial = serial_canonical(&spec, &Recovery::default());
    let dir = std::env::temp_dir().join(format!("hlstb-workers-late-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("late.jsonl");
    let _ = std::fs::remove_file(&path);
    let recovery = Recovery {
        checkpoint: Some(path.clone()),
        ..Recovery::default()
    };
    // Every worker thread holds a clone of `alive` until its body ends.
    let alive = Arc::new(());
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut launched = 0;
    let mut launch = |invite: &Invite| -> Result<Launched, hlstb_dse::PointError> {
        let late = launched > 0;
        launched += 1;
        let (invite, alive, results) = (invite.clone(), Arc::clone(&alive), Arc::clone(&results));
        let path = path.clone();
        Ok(Launched::Thread(std::thread::spawn(move || {
            let _alive = alive;
            // The late worker dials only once the checkpoint holds every
            // point: the coordinator appends a point before settling
            // it, so by then the first worker has done all the work.
            while late && std::fs::read_to_string(&path).map_or(0, |c| c.lines().count()) < n {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let result = invite.connect(None).map_err(|e| e.to_string());
            results.lock().unwrap().push(result);
        })))
    };
    let outcome =
        run_sweep_workers(&spec, &SweepOptions::default(), &recovery, 2, &mut launch).unwrap();
    assert_eq!(
        Arc::strong_count(&alive),
        1,
        "a launched worker outlived the sweep"
    );
    assert_eq!(serial, outcome.report.canonical_json());
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The lane model: each accepted connection is one lane that pulls its
// own leases. These tests run the sweep on a thread and wait with a
// timeout, so a coordinator that never returns fails the test instead
// of hanging the suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long a lane-model test waits for its sweep.
const SWEEP_LIMIT: Duration = Duration::from_secs(60);

/// Runs `sweep` on its own thread; the outcome arrives on the channel.
fn spawn_sweep<T: Send + 'static>(sweep: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sweep());
    });
    rx
}

/// Handshakes a raw connection as a worker (echoing `token` in
/// `ready`) and reads its first lease.
fn take_a_lease(
    conn: &mut TcpStream,
    from: &mut impl std::io::BufRead,
    token: Option<&str>,
) -> (usize, usize) {
    let Ok(proto::ToWorker::Hello(hello)) = proto::decode_to_worker(&read_frame_line(from)) else {
        panic!("expected a hello");
    };
    let ready = proto::encode_ready(hello.worker, hello.spec.points().len(), token);
    write_frame_line(conn, &ready);
    let Ok(proto::ToWorker::Lease { start, end }) = proto::decode_to_worker(&read_frame_line(from))
    else {
        panic!("expected a lease");
    };
    (start, end)
}

/// Lines in a checkpoint file (0 while it does not exist).
fn checkpointed(path: &std::path::Path) -> usize {
    std::fs::read_to_string(path).map_or(0, |c| c.lines().count())
}

/// A lane that answers its lease with `done` before the lease's points
/// loses the lease: the coordinator shuts its socket and re-issues the
/// points, so a real worker finishes the sweep byte-identically even
/// though the early dialer idles on its open connection.
#[test]
fn a_done_frame_without_its_points_loses_the_lease() {
    let spec = small_spec();
    let serial = serial_canonical(&spec, &Recovery::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let sweep = {
        let spec = spec.clone();
        spawn_sweep(move || {
            run_sweep_listen(
                &spec,
                &SweepOptions::default(),
                &Recovery::default(),
                listener,
            )
            .unwrap()
        })
    };
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
    let (start, end) = take_a_lease(&mut conn, &mut from, None);
    let done = proto::encode_done(start, end, &proto::DoneStats::default());
    write_frame_line(&mut conn, &done);
    // Idle on the open socket: send nothing more, and read until the
    // coordinator drops the connection.
    let idler = std::thread::spawn(move || {
        let _ = std::io::Read::read_to_end(&mut from, &mut Vec::new());
        drop(conn);
    });
    let worker = std::thread::spawn(move || worker_connect(&addr, None));
    let outcome = sweep
        .recv_timeout(SWEEP_LIMIT)
        .expect("the early done kept its lease and the sweep never returned");
    worker.join().unwrap().expect("worker exits cleanly");
    idler.join().unwrap();
    assert_eq!(serial, outcome.report.canonical_json());
    assert!(outcome.report.reissued > 0, "the lease was never re-issued");
}

/// A lease re-queued by a failing lane reaches a lane that is already
/// idle. A launched fake takes one lease, waits until the checkpoint
/// holds every other point and hangs up, and stays alive until every
/// point has landed, so the sweep cannot fall back to evaluating
/// inline. The real launched worker dials only once the fake holds its
/// lease, so it has finished the rest and gone idle by the time the
/// lease is re-issued.
#[test]
fn a_reissued_lease_reaches_an_idle_lane() {
    let spec = small_spec();
    let n = spec.points().len();
    let serial = serial_canonical(&spec, &Recovery::default());
    let dir = std::env::temp_dir().join(format!("hlstb-workers-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("idle.jsonl");
    let _ = std::fs::remove_file(&path);
    let recovery = Recovery {
        checkpoint: Some(path.clone()),
        ..Recovery::default()
    };
    let leased = Arc::new(AtomicBool::new(false));
    let sweep = spawn_sweep(move || {
        let mut fake = true;
        let mut launch = |invite: &Invite| -> Result<Launched, hlstb_dse::PointError> {
            let (invite, leased, path) = (invite.clone(), Arc::clone(&leased), path.clone());
            let body: Box<dyn FnOnce() + Send> = if std::mem::take(&mut fake) {
                Box::new(move || {
                    let mut conn = TcpStream::connect(&invite.addr).unwrap();
                    let mut from = std::io::BufReader::new(conn.try_clone().unwrap());
                    let (start, end) = take_a_lease(&mut conn, &mut from, Some(&invite.token));
                    leased.store(true, Ordering::SeqCst);
                    while checkpointed(&path) < n - (end - start) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // The result does not depend on this pause; it makes
                    // it likely that the real lane has read its last
                    // `done` and is waiting when the lease comes back.
                    std::thread::sleep(Duration::from_millis(50));
                    drop(from);
                    drop(conn);
                    while checkpointed(&path) < n {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
            } else {
                Box::new(move || {
                    while !leased.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    invite.connect(None).expect("launched worker exits cleanly");
                })
            };
            Ok(Launched::Thread(std::thread::spawn(body)))
        };
        run_sweep_workers(&spec, &SweepOptions::default(), &recovery, 2, &mut launch).unwrap()
    });
    let outcome = sweep
        .recv_timeout(SWEEP_LIMIT)
        .expect("the re-issued lease never reached the idle lane");
    assert_eq!(serial, outcome.report.canonical_json());
    assert!(outcome.report.reissued > 0, "the lease was never re-issued");
    let _ = std::fs::remove_dir_all(&dir);
}
