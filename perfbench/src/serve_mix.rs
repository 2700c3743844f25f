//! The `serve-mix` workload: an in-process `hlstb_serve::Daemon` with
//! the default `ServeConfig` (journal on), driven by closed-loop client
//! threads that open a new connection per request and timestamp every
//! frame.
//!
//! Requests come from a pool of specs drawn from the seed: a hot set
//! (list scheduler, left-edge registers) that 80% of requests repeat,
//! and a cold set whose scheduler and register policy vary, so the
//! working set grows past the daemon cache's entry cap. Every spec
//! grades either nothing (`[0]`) or the one budget list `[128, 512]`:
//! the daemon's grading cache is keyed on the netlist alone, so mixing
//! budget lists would serve one request's shallow run to a deeper one
//! (the expected-fail probe in `tests/known_failures.rs`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hlstb::cdfg::benchmarks;
use hlstb_dse::spec::{parse_policy, parse_scheduler, strategy_catalogue};
use hlstb_dse::{run_sweep, PointError, SweepOptions, SweepSpec};
use hlstb_serve::proto::{self, SweepRequest};
use hlstb_serve::{client, Daemon, ServeConfig};
use hlstb_trace::events;
use hlstb_trace::json::{self, Value};

use crate::layers::LayerTotals;
use crate::stats::{median, quantile, ratio, SplitMix};
use crate::{Metric, RunResult, SETUP_REPS};

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Specs in the hot set.
const HOT: usize = 8;
/// Specs in the cold set.
const COLD: usize = 160;
/// Share of requests, in percent, that repeat a hot spec.
const HOT_PERCENT: u64 = 80;
/// Fewest requests an untraced run times.
const MIN_REQUESTS: usize = 1000;

const SCHEDULERS: [&str; 4] = ["list", "io-aware", "asap", "force-directed=1"];
const POLICIES: [&str; 6] = [
    "left-edge",
    "dsatur",
    "io-max",
    "boundary",
    "loop-avoiding",
    "avra",
];

/// The request pool: `specs[..HOT]` hot, the rest cold.
struct Mix {
    seed: u64,
    specs: Vec<SweepSpec>,
}

/// `k` distinct indices of `0..n`, ascending.
fn choose(rng: &mut SplitMix, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.range(i, n - 1);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// Spec `k` of the pool. Its shape follows a fixed schedule — designs,
/// strategy count, widths and whether it grades depend on `k` alone —
/// so every seed's mix does about the same work; the seed picks the
/// strategies, scheduler and policy, and the request order. Hot specs
/// (the first [`HOT`]) use the default scheduler and register policy.
/// Cold specs vary both, take two designs and at least six strategies,
/// and three in four are ungraded: each adds many front-end and DFT
/// entries to the daemon cache at a small grading cost.
fn gen_spec(rng: &mut SplitMix, k: usize) -> SweepSpec {
    let hot = k < HOT;
    let all = benchmarks::all();
    let catalogue = strategy_catalogue();
    let (n_designs, n_strategies, graded) = if hot {
        (1 + k % 2, 3 + (k * 5) % 9, (k / 2) % 2 == 1)
    } else {
        (2, 6 + (k * 5) % 6, k.is_multiple_of(4))
    };
    let second = 1 + (k / all.len()) % (all.len() - 1);
    let designs = (0..n_designs)
        .map(|d| all[(k + d * second) % all.len()].clone())
        .collect();
    let mut spec = SweepSpec::new(designs);
    spec.strategies = choose(rng, catalogue.len(), n_strategies)
        .into_iter()
        .map(|i| catalogue[i])
        .collect();
    spec.widths = if (k / 2).is_multiple_of(2) {
        vec![4]
    } else {
        vec![4, 8]
    };
    spec.patterns = if graded { vec![128, 512] } else { vec![0] };
    if !hot {
        let s = SCHEDULERS[rng.range(0, SCHEDULERS.len() - 1)];
        let p = POLICIES[rng.range(0, POLICIES.len() - 1)];
        spec.schedulers = vec![parse_scheduler(s).expect("known scheduler")];
        spec.policies = vec![parse_policy(p).expect("known policy")];
    }
    spec
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = SplitMix(seed);
        let specs = (0..HOT + COLD).map(|k| gen_spec(&mut rng, k)).collect();
        Mix { seed, specs }
    }

    /// The spec request `i` of the run sends.
    fn pick(&self, i: usize) -> usize {
        let x = SplitMix(self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
        let r = (x >> 8) as usize;
        if x % 100 < HOT_PERCENT {
            r % HOT
        } else {
            HOT + r % COLD
        }
    }

    /// Each spec's canonical report from a local serial, uncached
    /// `run_sweep` — the byte-for-byte reference for every response.
    fn references(&self) -> Vec<String> {
        let opts = SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        };
        let out: Vec<Mutex<String>> = self.specs.iter().map(|_| Mutex::default()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = self.specs.get(k) else { break };
                    let canonical = run_sweep(spec, &opts).report.canonical_json();
                    *out[k].lock().expect("reference slot") = canonical;
                });
            }
        });
        out.into_iter()
            .map(|m| m.into_inner().expect("reference slot"))
            .collect()
    }
}

/// A daemon running on its own thread.
struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), PointError>>,
    journal: PathBuf,
}

fn io(what: &str, e: impl std::fmt::Display) -> String {
    format!("serve-mix: {what}: {e}")
}

/// Binds a daemon with the default config and a fresh journal under
/// `dir`, starts it, and returns it with the time until its first
/// `ping` was answered.
fn start(dir: &Path, n: usize) -> Result<(Running, f64), String> {
    let journal = dir.join(format!("serve-{n}.journal.jsonl"));
    let _ = std::fs::remove_file(&journal);
    let t0 = Instant::now();
    let d = Daemon::bind(ServeConfig {
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| io("bind", e))?;
    let addr = d.local_addr().map_err(|e| io("local_addr", e))?;
    let stop = d.stop_handle();
    // The ping is queued before the accept loop starts, so the first
    // accept finds it instead of racing the loop's idle sleep.
    let mut ping = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    ping.write_all(format!("{}\n", proto::encode_ping_request()).as_bytes())
        .map_err(|e| io("ping", e))?;
    let handle = std::thread::spawn(move || d.run());
    let mut pong = String::new();
    BufReader::new(ping)
        .read_line(&mut pong)
        .map_err(|e| io("pong", e))?;
    let setup = t0.elapsed().as_secs_f64();
    let running = Running {
        addr,
        stop,
        handle,
        journal,
    };
    if !pong.contains("\"pong\"") {
        stop_daemon(running)?;
        return Err(format!("serve-mix: unexpected ping reply {pong:?}"));
    }
    Ok((running, setup))
}

fn stop_daemon(r: Running) -> Result<(), String> {
    r.stop.store(true, Ordering::SeqCst);
    match r.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(io("daemon", e)),
        Err(_) => Err("serve-mix: daemon thread panicked".into()),
    }
}

/// One request as the client saw it.
struct Done {
    connect: Instant,
    accepted: Option<Instant>,
    progress: Option<Instant>,
    result: Instant,
    points: usize,
    ok: bool,
}

/// Sends one sweep request on a new connection and reads frames up to
/// the `result` (or `error`) frame, timestamping each.
fn request(addr: SocketAddr, id: &str, spec: &SweepSpec, reference: &str) -> Done {
    let line = proto::encode_sweep_request(&SweepRequest {
        id: id.to_string(),
        spec: spec.clone(),
        opts: SweepOptions::default(),
        deadline: None,
    });
    let connect = Instant::now();
    let mut done = Done {
        connect,
        accepted: None,
        progress: None,
        result: connect,
        points: spec.points().len(),
        ok: false,
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        done.result = Instant::now();
        return done;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    if stream.write_all(format!("{line}\n").as_bytes()).is_err() {
        done.result = Instant::now();
        return done;
    }
    let mut reader = BufReader::new(stream);
    let mut frame = String::new();
    let result_line = loop {
        frame.clear();
        let read = reader.read_line(&mut frame);
        let now = Instant::now();
        if !matches!(read, Ok(n) if n > 0) {
            done.result = now;
            return done;
        }
        if frame.starts_with("{\"type\": \"result\"") {
            done.result = now;
            break std::mem::take(&mut frame);
        }
        let v = json::parse(frame.trim_end()).unwrap_or(Value::Null);
        match v.get("type").and_then(Value::as_str) {
            Some("accepted") => done.accepted = Some(now),
            Some("progress") => {
                done.progress.get_or_insert(now);
            }
            Some("stats") => {}
            _ => {
                eprintln!("perfbench: serve-mix `{id}`: {}", frame.trim_end());
                done.result = now;
                return done;
            }
        }
    };
    done.ok = result_line.trim_end() == proto::encode_result(id, reference);
    if !done.ok {
        eprintln!("perfbench: serve-mix `{id}`: result differs from the serial uncached reference");
    }
    done
}

/// Drives the daemon with [`CLIENTS`] closed-loop clients until both
/// `seconds` have passed and `min` requests completed. Returns the
/// requests and the elapsed wall.
fn drive(
    d: &Running,
    mix: &Mix,
    refs: &[String],
    prefix: &str,
    seconds: f64,
    min: usize,
) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Done>> = Mutex::default();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let finished = done.lock().expect("results lock").len();
                if finished >= min && t0.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let k = mix.pick(i);
                let r = request(d.addr, &format!("{prefix}{i}"), &mix.specs[k], &refs[k]);
                done.lock().expect("results lock").push(r);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (done.into_inner().expect("results lock"), elapsed)
}

fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter()
        .map(|d| (d.result - d.connect).as_secs_f64() * 1e3)
        .collect()
}

fn count(result: &mut RunResult, done: &[Done]) {
    result.attempted += done.len() as u64;
    result.failed += done.iter().filter(|d| !d.ok).count() as u64;
}

/// Cache counters from the daemon's `metrics` frame:
/// (hits, misses, coalesced, evictions, resident bytes).
fn cache_snapshot(d: &Running) -> Result<[f64; 5], String> {
    let frame = client::control(&d.addr.to_string(), &proto::encode_metrics_request())
        .map_err(|e| io("metrics", e))?;
    let v = json::parse(&frame).map_err(|e| io("metrics frame", e))?;
    let num = |obj: &str, key: &str| {
        v.get(obj)
            .and_then(|o| o.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    Ok([
        num("cache", "hits"),
        num("cache", "misses"),
        num("cache", "coalesced"),
        num("cache_occupancy", "evictions"),
        num("cache_occupancy", "bytes"),
    ])
}

fn journal_bytes(d: &Running) -> f64 {
    std::fs::metadata(&d.journal).map_or(0.0, |m| m.len() as f64)
}

/// Runs `serve-mix` for `seconds` and returns the end-to-end metrics,
/// or with `trace` the per-layer ones.
pub fn run(seed: u64, seconds: f64, trace: bool, tmp: &Path) -> Result<RunResult, String> {
    let mix = Mix::new(seed);
    let t0 = Instant::now();
    let refs = mix.references();
    eprintln!(
        "perfbench: serve-mix references for {} specs in {:.1} s",
        mix.specs.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for n in 1..SETUP_REPS {
        let (probe, s) = start(tmp, n)?;
        setups.push(s);
        stop_daemon(probe)?;
    }
    let (d, s) = start(tmp, 0)?;
    setups.push(s);
    let outcome = measure(&d, &mix, &refs, seconds, trace);
    stop_daemon(d)?;
    let mut result = outcome?;
    if !trace {
        result
            .metrics
            .push(Metric::new("setup_s", median(&setups), "s"));
        result.metrics.push(Metric::new(
            "peak_rss_mib",
            crate::stats::peak_rss_mib(),
            "MiB",
        ));
    }
    Ok(result)
}

fn measure(
    d: &Running,
    mix: &Mix,
    refs: &[String],
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    // Warm the hot set once, untimed: the daemon's cache is long-lived.
    let warm: Vec<Done> = (0..HOT)
        .map(|k| request(d.addr, &format!("warm{k}"), &mix.specs[k], &refs[k]))
        .collect();
    count(&mut result, &warm);
    if !trace {
        let (done, elapsed) = drive(d, mix, refs, "r", seconds, MIN_REQUESTS);
        count(&mut result, &done);
        let lat = latencies_ms(&done);
        let points: usize = done.iter().filter(|r| r.ok).map(|r| r.points).sum();
        let ok = done.iter().filter(|r| r.ok).count();
        result.metrics = vec![
            Metric::new("sweep_s_p50", median(&lat) / 1e3, "s"),
            Metric::new("points_per_s", points as f64 / elapsed, "1/s"),
            Metric::new("req_ms_p50", median(&lat), "ms"),
            Metric::new("req_ms_p90", quantile(&lat, 0.9), "ms"),
            Metric::new("req_per_s", ok as f64 / elapsed, "1/s"),
        ];
        result.samples = done.len();
        return Ok(result);
    }

    let (untraced, _) = drive(d, mix, refs, "a", seconds * 0.4, MIN_REQUESTS * 2 / 5);
    count(&mut result, &untraced);
    let c0 = cache_snapshot(d)?;
    let j0 = journal_bytes(d);
    events::reset();
    events::set_enabled(true);
    let (traced, elapsed) = drive(d, mix, refs, "b", seconds * 0.6, MIN_REQUESTS * 3 / 5);
    events::set_enabled(false);
    let journal = events::drain();
    count(&mut result, &traced);
    let c1 = cache_snapshot(d)?;
    let j1 = journal_bytes(d);

    let mut totals = LayerTotals::default();
    // The journal is process-global, so a point record cannot be tied
    // back to its request: gates are not attributed on this workload.
    totals.absorb(&journal, &|_| None);
    let jobs = traced.len() as f64;
    let phase =
        |f: &dyn Fn(&Done) -> Option<f64>| -> Vec<f64> { traced.iter().filter_map(f).collect() };
    let accept = phase(&|r| Some((r.accepted? - r.connect).as_secs_f64() * 1e3));
    let queue = phase(&|r| Some((r.progress? - r.accepted?).as_secs_f64() * 1e3));
    let exec = phase(&|r| Some((r.result - r.progress?).as_secs_f64() * 1e3));
    let lookups = (c1[0] + c1[1] + c1[2]) - (c0[0] + c0[1] + c0[2]);
    result.metrics = totals.metrics(jobs);
    result.metrics.extend([
        Metric::new(
            "dse.pool.utilisation",
            ratio(
                totals.point_wall_us as f64,
                ServeConfig::default().executors as f64 * elapsed * 1e6,
            ),
            "ratio",
        ),
        Metric::new("dse.worker.reissued", 0.0, "count"),
        Metric::new("dse.checkpoint.bytes_per_point", 0.0, "B"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (median(&latencies_ms(&traced)) / median(&latencies_ms(&untraced)) - 1.0),
            "%",
        ),
        Metric::new("serve.accept_ms_p50", median(&accept), "ms"),
        Metric::new("serve.queue_ms_p50", median(&queue), "ms"),
        Metric::new("serve.queue_ms_p99", quantile(&queue, 0.99), "ms"),
        Metric::new("serve.exec_ms_p50", median(&exec), "ms"),
        Metric::new(
            "serve.cache.hit_ratio",
            ratio((c1[0] + c1[2]) - (c0[0] + c0[2]), lookups),
            "ratio",
        ),
        Metric::new("serve.cache.evictions", (c1[3] - c0[3]) / jobs, "count"),
        Metric::new("serve.cache.bytes", c1[4], "B"),
        Metric::new("serve.journal.bytes_per_req", (j1 - j0) / jobs, "B"),
    ]);
    result.samples = traced.len();
    Ok(result)
}

/// The serve-layer metrics of a workload that does not touch the
/// daemon: all zero.
pub fn idle_metrics() -> Vec<Metric> {
    [
        ("serve.accept_ms_p50", "ms"),
        ("serve.queue_ms_p50", "ms"),
        ("serve.queue_ms_p99", "ms"),
        ("serve.exec_ms_p50", "ms"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.cache.evictions", "count"),
        ("serve.cache.bytes", "B"),
        ("serve.journal.bytes_per_req", "B"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::new(name, 0.0, unit))
    .collect()
}
