//! E22 — the design-space-exploration engine itself: the full
//! scoreboard sweep (every benchmark x every DFT strategy x a ladder of
//! grading budgets) timed serial-uncached, serial-cached, and
//! threaded-cached.
//!
//! All three configurations must produce byte-identical canonical
//! reports — the bench asserts it — so what varies is only where the
//! time goes: the uncached run re-schedules, re-binds, re-expands, and
//! re-grades for every point, while the cached run computes each
//! distinct artifact once (one front end per design here, one netlist
//! and one grading run per *distinct marked data path*, with shallower
//! grading budgets served as prefixes of the deepest run).

use std::time::Duration;

use hlstb_dse::worker::LaunchFn;
use hlstb_dse::{run_sweep, run_sweep_workers, CacheStats, Recovery, SweepOptions, SweepSpec};

use crate::Table;

/// The benchmarked sweep: all nine designs, the full eleven-strategy
/// catalogue, and a three-step grading-budget ladder — 297 points.
pub fn full_spec() -> SweepSpec {
    let mut spec = SweepSpec::all_benchmarks();
    spec.patterns = vec![128, 512, 1024];
    spec
}

/// One execution configuration of the same sweep.
#[derive(Debug, Clone)]
pub struct ConfigRun {
    /// Configuration name (report order: the first is the baseline).
    pub name: &'static str,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Worker processes the sweep was sharded over (0 = in-process).
    pub workers: usize,
    /// Whether the artifact cache was enabled.
    pub cache: bool,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Cache counters, when the cache was on.
    pub cache_stats: Option<CacheStats>,
    /// Points that ended in a typed error (expected: 0 — kept as data
    /// so `BENCH_dse.json` proves the sweep ran clean).
    pub failures: usize,
    /// Transient-failure retries the engine performed (expected: 0).
    pub retries: u64,
    /// Points whose grading was truncated by a deadline (expected: 0 —
    /// the bench runs without a point budget).
    pub timeouts: usize,
}

/// Result of [`bench()`]: the same sweep under every configuration.
#[derive(Debug, Clone)]
pub struct DseBench {
    /// Points per sweep.
    pub points: usize,
    /// One entry per configuration.
    pub runs: Vec<ConfigRun>,
    /// Whether every configuration produced byte-identical canonical
    /// reports (must be true; kept as data for `BENCH_dse.json`).
    pub identical: bool,
}

/// Benchmarks the full scoreboard sweep with a 4-thread cached run as
/// the parallel configuration.
pub fn bench() -> DseBench {
    bench_spec(&full_spec(), 4)
}

/// [`bench()`] over a caller-chosen spec and thread count (tests use a
/// small spec).
pub fn bench_spec(spec: &SweepSpec, threads: usize) -> DseBench {
    bench_impl(spec, threads, None)
}

/// [`bench_spec`] plus a fourth configuration: the same sweep sharded
/// over `workers` TCP worker lanes started by `launch` (worker
/// processes from `exp_dse`, worker threads in tests) and spliced
/// byte-identically.
pub fn bench_with_workers(
    spec: &SweepSpec,
    threads: usize,
    workers: usize,
    launch: &mut LaunchFn<'_>,
) -> DseBench {
    bench_impl(spec, threads, Some((workers, launch)))
}

fn bench_impl(
    spec: &SweepSpec,
    threads: usize,
    workers: Option<(usize, &mut LaunchFn<'_>)>,
) -> DseBench {
    let configs = [
        ("serial-nocache", 1usize, false),
        ("serial-cache", 1, true),
        ("threaded-cache", threads, true),
    ];
    let mut runs = Vec::new();
    let mut canon: Option<String> = None;
    let mut identical = true;
    let mut points = 0;
    for (name, threads, cache) in configs {
        let out = run_sweep(
            spec,
            &SweepOptions {
                threads,
                cache,
                ..SweepOptions::default()
            },
        );
        points = out.report.points.len();
        let c = out.report.canonical_json();
        match &canon {
            None => canon = Some(c),
            Some(b) => identical &= *b == c,
        }
        runs.push(ConfigRun {
            name,
            threads: out.report.threads,
            workers: 0,
            cache,
            wall: out.report.wall,
            cache_stats: out.report.cache,
            failures: out.report.errors().len(),
            retries: out.report.retries,
            timeouts: out.report.timeouts(),
        });
    }
    if let Some((lanes, launch)) = workers {
        let out = run_sweep_workers(
            spec,
            &SweepOptions {
                threads: 1,
                cache: true,
                ..SweepOptions::default()
            },
            &Recovery::default(),
            lanes,
            launch,
        )
        .expect("workers sweep completes");
        let c = out.report.canonical_json();
        identical &= canon.as_deref() == Some(c.as_str());
        runs.push(ConfigRun {
            name: "workers-cache",
            threads: out.report.threads,
            workers: out.report.workers,
            cache: true,
            wall: out.report.wall,
            cache_stats: out.report.cache,
            failures: out.report.errors().len(),
            retries: out.report.retries,
            timeouts: out.report.timeouts(),
        });
    }
    assert!(identical, "sweep configurations diverged");
    DseBench {
        points,
        runs,
        identical,
    }
}

impl DseBench {
    fn run(&self, name: &str) -> &ConfigRun {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .expect("every configuration ran")
    }

    /// Wall-clock speedup of `name` over the serial uncached baseline.
    pub fn speedup(&self, name: &str) -> f64 {
        let base = self.run("serial-nocache").wall.as_secs_f64();
        let ours = self.run(name).wall.as_secs_f64();
        if ours > 0.0 {
            base / ours
        } else {
            f64::INFINITY
        }
    }

    /// One row per configuration: wall time, speedup, cache counters.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E22  DSE engine: memoized artifacts + worker pool vs point-at-a-time",
            &[
                "config", "threads", "workers", "cache", "wall ms", "speedup", "hits", "misses",
                "coal",
            ],
        );
        for r in &self.runs {
            let (hits, misses, coal) =
                r.cache_stats
                    .map_or(("-".into(), "-".into(), "-".into()), |c: CacheStats| {
                        let c = c.total();
                        (
                            c.hits.to_string(),
                            c.misses.to_string(),
                            c.coalesced.to_string(),
                        )
                    });
            t.row(vec![
                r.name.to_string(),
                r.threads.to_string(),
                r.workers.to_string(),
                if r.cache { "on" } else { "off" }.to_string(),
                format!("{:.2}", r.wall.as_secs_f64() * 1e3),
                format!("{:.2}", self.speedup(r.name)),
                hits,
                misses,
                coal,
            ]);
        }
        t
    }

    /// The whole bench as a JSON document (`BENCH_dse.json`).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"dse_engine\",\n");
        out.push_str(&format!("  \"points\": {},\n", self.points));
        out.push_str(&format!("  \"identical_reports\": {},\n", self.identical));
        out.push_str(&format!(
            "  \"speedup_cache_vs_nocache\": {:.3},\n",
            self.speedup("serial-cache")
        ));
        out.push_str(&format!(
            "  \"speedup_threaded_cache_vs_nocache\": {:.3},\n",
            self.speedup("threaded-cache")
        ));
        let sharded = self.runs.iter().any(|r| r.name == "workers-cache");
        if sharded {
            out.push_str(&format!(
                "  \"speedup_workers_vs_nocache\": {:.3},\n",
                self.speedup("workers-cache")
            ));
        }
        // The committed perf gate (see `hlstb perf-diff --floor`).
        // Single-flight coalescing makes the threaded cached sweep a
        // strict improvement over the serial cached one, so it shares
        // the serial floor; worker processes pay spawn + framing, so
        // their floor is looser.
        out.push_str(
            "  \"floors\": {\"speedup_cache_vs_nocache\": 3.0, \
             \"speedup_threaded_cache_vs_nocache\": 3.0",
        );
        if sharded {
            out.push_str(", \"speedup_workers_vs_nocache\": 1.5");
        }
        out.push_str("},\n");
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            use hlstb::trace::json::Obj;
            let mut o = Obj::new();
            o.string("config", r.name)
                .number_u64("threads", r.threads as u64)
                .number_u64("workers", r.workers as u64)
                .boolean("cache", r.cache)
                .raw("wall_ms", &ms(r.wall))
                .number_u64("failures", r.failures as u64)
                .number_u64("retries", r.retries)
                .number_u64("timeouts", r.timeouts as u64);
            match &r.cache_stats {
                Some(c) => o.raw("cache_stats", &c.to_json()),
                None => o.raw("cache_stats", "null"),
            };
            out.push_str(&format!(
                "    {}{}\n",
                o.finish(),
                if i + 1 < self.runs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// A design x strategy coverage matrix from one cached sweep — the
/// survey's whole answer surface in a single engine call.
pub fn coverage_matrix(patterns: usize) -> Table {
    let mut spec = SweepSpec::all_benchmarks();
    spec.patterns = vec![patterns];
    let out = run_sweep(&spec, &SweepOptions::default());
    let strategies: Vec<String> = spec
        .strategies
        .iter()
        .map(|&s| hlstb_dse::spec::strategy_name(s))
        .collect();
    let mut header: Vec<&str> = vec!["design"];
    header.extend(strategies.iter().map(String::as_str));
    let mut t = Table::new(
        "E23  Coverage matrix: stuck-at coverage per design x DFT strategy (one cached sweep)",
        &header,
    );
    for rows in out.report.points.chunks(strategies.len()) {
        let mut cells = vec![rows[0].design.clone()];
        for p in rows {
            cells.push(match &p.outcome {
                Ok(m) => m.coverage_percent.map_or("-".into(), |c| format!("{c:.1}")),
                Err(_) => "err".into(),
            });
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb::cdfg::benchmarks;
    use hlstb::flow::DftStrategy;

    #[test]
    fn bench_runs_every_config_and_stays_identical() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
        spec.patterns = vec![64, 128];
        let b = bench_spec(&spec, 2);
        assert_eq!(b.points, 4);
        assert_eq!(b.runs.len(), 3);
        assert!(b.identical);
        assert!(b.run("serial-cache").cache_stats.unwrap().total().hits > 0);
        assert!(b.run("serial-nocache").cache_stats.is_none());
        assert!(
            b.runs
                .iter()
                .all(|r| r.failures == 0 && r.retries == 0 && r.timeouts == 0),
            "a clean bench sweep must report zero unexpected failures"
        );
        let json = b.to_json();
        assert!(hlstb::trace::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"failures\": 0"), "{json}");
        let table = format!("{}", b.table());
        assert!(table.contains("serial-nocache"), "{table}");
    }

    #[test]
    fn workers_config_joins_the_bench_and_stays_identical() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::None, DftStrategy::FullScan];
        spec.patterns = vec![64, 128];
        let mut spawn = hlstb_dse::worker::thread_spawner(None);
        let b = bench_with_workers(&spec, 2, 2, &mut spawn);
        assert_eq!(b.runs.len(), 4);
        assert!(b.identical);
        let w = b.run("workers-cache");
        assert_eq!(w.workers, 2);
        assert_eq!(w.failures, 0);
        let json = b.to_json();
        assert!(hlstb::trace::json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"speedup_workers_vs_nocache\""), "{json}");
        assert!(
            json.contains("\"speedup_threaded_cache_vs_nocache\": "),
            "{json}"
        );
    }

    #[test]
    fn coverage_matrix_has_a_row_per_design() {
        let t = coverage_matrix(64);
        assert_eq!(t.rows.len(), benchmarks::all().len());
        // Full scan should post real coverage everywhere.
        for row in &t.rows {
            let full: f64 = row[2].parse().expect("full-scan column parses");
            assert!(full > 0.0, "{row:?}");
        }
    }
}
