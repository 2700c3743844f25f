//! The three sweep workloads: `scoreboard` and `synth-wide` through
//! `hlstb_dse::run_sweep`, and `scoreboard-lanes` through
//! `run_sweep_listen` with in-process `worker_connect` lanes on a
//! loopback listener.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use hlstb::cdfg::benchmarks;
use hlstb::flow::DftStrategy;
use hlstb_dse::spec::{parse_policy, parse_scheduler};
use hlstb_dse::worker::{run_sweep_listen, worker_connect};
use hlstb_dse::{run_sweep, Recovery, SweepOptions, SweepReport, SweepSpec};
use hlstb_trace::events;

use crate::check::Digests;
use crate::layers::LayerTotals;
use crate::probe::Probes;
use crate::stats::{median, quantile, ratio};
use crate::{Metric, RunResult, SETUP_REPS};

/// Worker lanes of `scoreboard-lanes`.
const LANES: usize = 2;

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 297 graded points, cache on, 2 threads.
    Scoreboard,
    /// 4752 ungraded points, cache off, 1 thread.
    SynthWide,
    /// The scoreboard spec over 2 TCP worker lanes with a checkpoint.
    Lanes,
}

impl Kind {
    /// The digest set this workload's reports are checked against.
    fn digests(self) -> &'static str {
        match self {
            Kind::Scoreboard | Kind::Lanes => "scoreboard",
            Kind::SynthWide => "synth-wide",
        }
    }

    /// Evaluating lanes: pool threads, or worker connections.
    fn lanes(self) -> usize {
        match self {
            Kind::Scoreboard | Kind::Lanes => LANES,
            Kind::SynthWide => 1,
        }
    }

    fn opts(self) -> SweepOptions {
        SweepOptions {
            threads: self.lanes(),
            cache: self != Kind::SynthWide,
            ..SweepOptions::default()
        }
    }
}

/// The workload's spec. The seed rotates the design order, which moves
/// the big designs around the pool's tail without changing the work.
/// `scoreboard-lanes` keeps the catalogue order: its lanes take leases
/// of up to 18 points, so the order sets how even the last leases are,
/// and its sweep wall moved by 15% between rotations.
pub fn spec(kind: Kind, seed: u64) -> SweepSpec {
    let mut designs = benchmarks::all();
    if kind != Kind::Lanes {
        let n = designs.len();
        designs.rotate_left((seed % n as u64) as usize);
    }
    let mut spec = SweepSpec::new(designs);
    match kind {
        Kind::Scoreboard | Kind::Lanes => spec.patterns = vec![128, 512, 1024],
        Kind::SynthWide => {
            spec.schedulers = ["list", "io-aware", "asap", "force-directed=1"]
                .iter()
                .map(|s| parse_scheduler(s).expect("known scheduler"))
                .collect();
            spec.policies = [
                "left-edge",
                "dsatur",
                "io-max",
                "boundary",
                "loop-avoiding",
                "avra",
            ]
            .iter()
            .map(|p| parse_policy(p).expect("known policy"))
            .collect();
            spec.widths = vec![4, 8];
        }
    }
    spec
}

/// One finished sweep.
struct Sweep {
    wall: Duration,
    report: SweepReport,
    checkpoint_bytes: u64,
}

/// Runs one sweep of `spec` the way `kind` does.
fn sweep(kind: Kind, spec: &SweepSpec, tmp: &Path) -> Result<Sweep, String> {
    if kind != Kind::Lanes {
        let t0 = Instant::now();
        let out = run_sweep(spec, &kind.opts());
        return Ok(Sweep {
            wall: t0.elapsed(),
            report: out.report,
            checkpoint_bytes: 0,
        });
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let checkpoint = tmp.join("lanes.checkpoint.jsonl");
    let _ = std::fs::remove_file(&checkpoint);
    let recovery = Recovery {
        checkpoint: Some(checkpoint.clone()),
        ..Recovery::default()
    };
    let t0 = Instant::now();
    let workers: Vec<_> = (0..LANES)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || worker_connect(&addr, None))
        })
        .collect();
    let out = run_sweep_listen(spec, &kind.opts(), &recovery, listener);
    let wall = t0.elapsed();
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: lane ended with {}: {}", e.kind(), e.message()),
            Err(_) => eprintln!("perfbench: lane thread panicked"),
        }
    }
    let out = out.map_err(|e| format!("run_sweep_listen: {e}"))?;
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&checkpoint);
    Ok(Sweep {
        wall,
        report: out.report,
        checkpoint_bytes,
    })
}

/// Median set-up time at the reference speed (see [`crate::probe`]):
/// building the designs and spec, and for `scoreboard-lanes` also
/// getting both lanes dialled and through `hello` (a 9-point ungraded
/// handshake sweep).
fn setup(kind: Kind, seed: u64, tmp: &Path) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut probes = Probes::new();
    for _ in 0..SETUP_REPS {
        probes.take();
        let t0 = Instant::now();
        let mut s = std::hint::black_box(spec(kind, seed));
        if kind == Kind::Lanes {
            s.strategies = vec![DftStrategy::None];
            s.patterns = vec![0];
            let probe = sweep(kind, &s, tmp)?;
            if !probe.report.errors().is_empty() {
                return Err("lane handshake probe failed".into());
            }
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&samples) * probes.speed_factor())
}

/// Runs `kind` for `seconds` (at least two sweeps) and returns the
/// end-to-end metrics, or with `trace` the per-layer ones.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp: &Path,
) -> Result<RunResult, String> {
    let digests = Digests::committed();
    let setup_s = setup(kind, seed, tmp)?;
    let spec = spec(kind, seed);
    let points = spec.points().len();
    let mut result = RunResult::default();
    let check = |s: &Sweep, result: &mut RunResult| {
        result.attempted += points as u64;
        result.failed +=
            digests.failed_points(kind.digests(), &s.report.canonical_json(), points) as u64;
    };
    // One untimed (but checked) sweep first, so page faults and lazy
    // allocation land outside the measured sweeps.
    check(&sweep(kind, &spec, tmp)?, &mut result);
    if !trace {
        // Sweep walls, scaled to the reference speed by probes taken
        // between the sweeps.
        let (mut walls, mut probes) = (Vec::new(), Probes::new());
        let t0 = Instant::now();
        while walls.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
            probes.take();
            let s = sweep(kind, &spec, tmp)?;
            check(&s, &mut result);
            walls.push(s.wall.as_secs_f64());
        }
        let speed = probes.speed_factor();
        eprintln!(
            "perfbench: raw sweep wall median {:.4} s; host speed factor {speed:.3}",
            median(&walls)
        );
        let walls: Vec<f64> = walls.iter().map(|w| w * speed).collect();
        let total: f64 = walls.iter().sum();
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        result.metrics = vec![
            Metric::new("sweep_s_p50", median(&walls), "s"),
            Metric::new("points_per_s", (points * walls.len()) as f64 / total, "1/s"),
            Metric::new("req_ms_p50", median(&walls_ms), "ms"),
            Metric::new("req_ms_p90", quantile(&walls_ms, 0.9), "ms"),
            Metric::new("req_per_s", walls.len() as f64 / total, "1/s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", crate::stats::peak_rss_mib(), "MiB"),
        ];
        result.samples = walls.len();
        return Ok(result);
    }

    // Traced run: untraced and traced sweeps alternate, so host drift
    // falls on both sides of the overhead estimate. The event journal
    // is drained after each traced sweep.
    let mut totals = LayerTotals::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut reissued, mut checkpoint_bytes) = (0u64, 0u64);
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let s = sweep(kind, &spec, tmp)?;
        check(&s, &mut result);
        untraced.push(s.wall.as_secs_f64());
        events::reset();
        events::set_enabled(true);
        let s = sweep(kind, &spec, tmp);
        events::set_enabled(false);
        let journal = events::drain();
        let s = s?;
        check(&s, &mut result);
        let gates_of = |p: u64| {
            let rec = s.report.points.get(p as usize)?;
            rec.outcome.as_ref().ok().map(|m| m.report.gates as u64)
        };
        totals.absorb(&journal, &gates_of);
        traced.push(s.wall.as_secs_f64());
        reissued += s.report.reissued;
        checkpoint_bytes += s.checkpoint_bytes;
    }
    let jobs = traced.len() as f64;
    let lane_time_us = kind.lanes() as f64 * traced.iter().sum::<f64>() * 1e6;
    result.metrics = totals.metrics(jobs);
    result.metrics.extend([
        Metric::new(
            "dse.pool.utilisation",
            ratio(totals.point_wall_us as f64, lane_time_us),
            "ratio",
        ),
        Metric::new("dse.worker.reissued", reissued as f64 / jobs, "count"),
        Metric::new(
            "dse.checkpoint.bytes_per_point",
            ratio(checkpoint_bytes as f64, jobs * points as f64),
            "B",
        ),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (median(&traced) / median(&untraced) - 1.0),
            "%",
        ),
    ]);
    result.samples = traced.len();
    result.metrics.extend(crate::serve_mix::idle_metrics());
    eprintln!(
        "perfbench: stage accounting over {} traced sweeps: stages {:.1} ms + unattributed {:.1} ms = {:.1} ms of {:.1} ms lane time ({} lanes x wall)",
        traced.len(),
        totals.stage_busy_us() as f64 / 1e3,
        (totals.point_wall_us as f64 - totals.stage_busy_us() as f64) / 1e3,
        totals.point_wall_us as f64 / 1e3,
        lane_time_us / 1e3,
        kind.lanes(),
    );
    Ok(result)
}

/// Digest lines for `scoreboard` and `synth-wide` from serial, uncached
/// runs (the committed `digests.txt`).
pub fn capture_digests() -> String {
    let mut out = String::from(
        "# workload design points fnv1a64 -- from serial uncached sweeps; regenerate with\n\
         # `perfbench --capture-digests` and review the diff\n",
    );
    for (kind, name) in [
        (Kind::Scoreboard, "scoreboard"),
        (Kind::SynthWide, "synth-wide"),
    ] {
        let opts = SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        };
        let report = run_sweep(&spec(kind, 0), &opts).report;
        assert!(report.errors().is_empty(), "reference sweep must run clean");
        out.push_str(&crate::check::render(name, &report.canonical_json()));
    }
    out
}
