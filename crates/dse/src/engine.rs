//! The sweep executor: one [`SweepDriver`] per sweep — a pool whose
//! lanes claim the point list a budget group at a time (points that
//! differ only in grading budget, so one lane computes their shared
//! artifacts and serves the rest from them; see [`SweepDriver::run`]),
//! shared by every front end (in-process, scale-out coordinator, serve
//! daemon) — with optional artifact memoization, panic isolation,
//! per-point deadlines, bounded retries, and checkpoint/resume.
//!
//! # Determinism
//!
//! Every pipeline stage is a pure function of its inputs (grading is
//! fixed-seeded), results land in per-point slots indexed by the
//! spec's enumeration order, and the cache changes only *where* an
//! artifact is computed, never *what* it is:
//!
//! * a stored grading run serves a budget only when reading it equals
//!   a fresh run at that budget (`cache::depth_serves`): its own
//!   depth, or a multiple of 64 within it — the batch loop of
//!   `random_pattern_run_opts` draws frames and drops faults
//!   identically whether or not later batches follow, but a budget
//!   that is not a multiple of 64 masks lanes in its last batch. A
//!   lookup the stored run cannot serve grades afresh;
//! * every other stage returns the same artifact for the same key by
//!   construction (content-derived keys over deterministic stages).
//!
//! Hence [`run_sweep`] produces the same
//! [`SweepReport::canonical_json`] bytes for any thread count and
//! either cache setting — property-tested in
//! `tests/sweep_determinism.rs` and smoke-checked in CI.
//!
//! # Fault tolerance
//!
//! A panicking point is caught ([`std::panic::catch_unwind`]) and
//! recorded as a typed [`PointError::Panic`]; the injector is a plain
//! atomic and the cache computes outside its locks, so neither can be
//! poisoned and the remaining points complete. Injected failures
//! ([`FailPlan`]) are deterministic, so reports with failures stay
//! byte-identical across thread counts and cache settings.
//!
//! # Deadlines
//!
//! [`SweepOptions::point_budget`] arms a cooperative [`Deadline`] that
//! the netlist grading loops poll: a point that overruns reports
//! *partial* coverage flagged `timed_out` rather than hanging the pool.
//! A run cut short is never stored, so one point's deadline cannot
//! reach another point's report. Real (non-injected) timeouts still
//! depend on wall-clock behavior and so trade away byte-determinism; a
//! zero budget is deterministic (every poll fires on first check) and
//! is what the tests pin down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlstb::cdfg::Cdfg;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::hls::expand::ExpandedDatapath;
use hlstb::netlist::deadline::Deadline;
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::fsim::ParallelOptions;
use hlstb::netlist::random::{random_pattern_run_opts, CoveragePoint, RandomRun};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{
    depth_serves, ArtifactCache, CacheOutcome, CacheStats, DftOutput, FrontOutput, GradingRun,
    Stage, Store,
};
use crate::checkpoint::{self, Checkpoint, RestoredSet};
use crate::error::PointError;
use crate::failpoint::{FailMode, FailPlan};
use crate::key;
use crate::report::{PointMetrics, PointRecord, SweepReport};
use crate::spec::{self, Point, SweepSpec};

/// The fixed grading seed — the same one `SynthesisFlow::grade_random`
/// uses, so sweep coverage matches a standalone graded run.
pub const SWEEP_SEED: u64 = 0xDAC_1996;

/// Reads a coverage curve at a pattern budget: the curve point of the
/// budget's last 64-pattern batch, clamped to where the run saturated
/// (a run that detects everything stops early; its final point is the
/// value every deeper budget would report).
pub fn coverage_at(curve: &[CoveragePoint], patterns: usize) -> f64 {
    let batches = patterns.div_ceil(64).max(1);
    let idx = batches.min(curve.len()).saturating_sub(1);
    curve.get(idx).map_or(0.0, |c| c.coverage_percent)
}

/// Whether a point reading `run` at `budget` got less than its budget:
/// the run timed out and the point reads its last curve point, which
/// the fault shards may have cut mid-batch (they poll the deadline
/// inside a batch). A curve cut past the budget's batch still holds
/// the budget's complete point.
fn grading_truncated(run: &RandomRun, budget: usize) -> bool {
    run.timed_out && budget.div_ceil(64) >= run.curve.len()
}

/// How a sweep executes (never *what* it computes — except that a
/// nonzero `point_budget` may truncate grading, see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads (1 = run inline on the caller's thread).
    pub threads: usize,
    /// Memoize stage artifacts across points.
    pub cache: bool,
    /// Wall-clock budget per point. `None` (the default) never times
    /// out; `Some` arms the cooperative deadline the grading loops
    /// poll, and each bounded retry halves the remaining budget.
    pub point_budget: Option<Duration>,
    /// How many times a transiently failing point (panic, timeout) is
    /// retried before its typed error lands in the report. Flow errors
    /// are deterministic verdicts and are never retried.
    pub retries: u32,
    /// Print a live one-line progress meter to stderr (done/total,
    /// throughput, ETA, cache hit rate, retries/timeouts). Purely
    /// cosmetic: results and reports are unaffected.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            cache: true,
            point_budget: None,
            retries: 1,
            progress: false,
        }
    }
}

/// Live progress shared by the lanes: one `\r`-rewritten stderr line
/// per settled point.
struct ProgressMeter {
    total: usize,
    t0: Instant,
    done: AtomicUsize,
    failures: AtomicUsize,
    timeouts: AtomicUsize,
}

impl ProgressMeter {
    fn new(total: usize, t0: Instant) -> Self {
        ProgressMeter {
            total,
            t0,
            done: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
        }
    }

    fn tick(&self, record: &PointRecord, retries: u64, reissued: u64, cache: Option<CacheStats>) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        match &record.outcome {
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
            Ok(m) if m.timed_out => {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
        }
        let elapsed = self.t0.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        // Restored/spliced points can push `done` past `total` (e.g. a
        // checkpoint holding duplicates of every point), so saturate
        // instead of underflowing the unsigned subtraction.
        let eta = self.total.saturating_sub(done) as f64 / rate.max(1e-9);
        let mut line = format!(
            "\rsweep: {done}/{} pts  {rate:.1} pts/s  eta {eta:.0}s",
            self.total
        );
        if let Some(rate) = cache.map(|c| c.total().hit_rate_percent()) {
            line.push_str(&format!("  cache {rate:.0}% hit"));
        }
        let failures = self.failures.load(Ordering::Relaxed);
        let timeouts = self.timeouts.load(Ordering::Relaxed);
        if retries + reissued + failures as u64 + timeouts as u64 > 0 {
            line.push_str(&format!(
                "  retries {retries}  failures {failures}  timeouts {timeouts}"
            ));
            if reissued > 0 {
                line.push_str(&format!("  reissued {reissued}"));
            }
        }
        eprint!("{line}");
    }

    /// Terminates the `\r` line so the next stderr write starts clean.
    fn finish(&self) {
        if self.done.load(Ordering::Relaxed) > 0 {
            eprintln!();
        }
    }
}

/// Fault-tolerance inputs that don't fit in `Copy` options: the
/// injected fail plan (tests/CI) and the checkpoint configuration.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Deterministic injected failures (see [`FailPlan`]).
    pub fail_plan: Option<FailPlan>,
    /// Stream each completed point to this JSONL file.
    pub checkpoint: Option<PathBuf>,
    /// Serve points already present in `checkpoint` instead of
    /// re-evaluating them.
    pub resume: bool,
}

/// What [`run_sweep`] returns: the report and the checkpoint's write
/// failures.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The deterministic per-point report.
    pub report: SweepReport,
    /// Checkpoint lines that failed to write (the sweep itself keeps
    /// going; nonzero means the checkpoint is incomplete).
    pub checkpoint_write_errors: usize,
}

/// The content key identifying one point across sweep runs: the
/// design's content plus every axis coordinate. Spec edits between an
/// interrupted run and its resume change the key, so stale checkpoint
/// entries miss and the point is recomputed.
pub fn point_key(spec: &SweepSpec, design_keys: &[u64], p: Point) -> u64 {
    key::combine(&[
        design_keys[p.design],
        key::hash_debug(&p.scheduler),
        key::hash_debug(&p.policy),
        key::hash_debug(&p.strategy),
        u64::from(p.width),
        p.patterns as u64,
        u64::from(spec.reset_controller),
    ])
}

/// The shared per-point evaluator: the spec's enumerated points, their
/// content keys, the stage cache, and the panic-isolated retry loop,
/// bundled so the [`SweepDriver`]'s local lanes and the remote worker's
/// lease loop ([`crate::worker::worker_connect`]) evaluate points through
/// literally the same code — which is what makes the multi-process
/// splice byte-identical to a serial run by construction.
///
/// It also keeps the run's lookup ledger: each stage lookup it
/// journals is counted there, and only there, so the counts are this
/// run's own even when the cache is shared.
pub struct PointRunner<'a> {
    spec: &'a SweepSpec,
    designs: Vec<Arc<Cdfg>>,
    opts: SweepOptions,
    fail_plan: Option<FailPlan>,
    design_keys: Vec<u64>,
    points: Vec<Point>,
    point_keys: Vec<u64>,
    cache: Option<Arc<ArtifactCache>>,
    ledger: Mutex<CacheStats>,
    max_patterns: usize,
    retry_count: AtomicU64,
}

impl<'a> PointRunner<'a> {
    /// Builds a runner for `spec`: enumerates the points, derives the
    /// content keys, shares each design with the points' flows (one
    /// copy per runner, not one per point), and allocates the stage
    /// cache when
    /// [`SweepOptions::cache`] asks for one. `progress` and `threads`
    /// are the caller's business — the runner only evaluates.
    pub fn new(spec: &'a SweepSpec, opts: &SweepOptions, fail_plan: Option<FailPlan>) -> Self {
        let cache = opts.cache.then(|| Arc::new(ArtifactCache::new()));
        PointRunner::build(spec, opts, fail_plan, cache)
    }

    /// Like [`PointRunner::new`], but sharing an externally owned
    /// cache — the serve daemon injects one bounded, daemon-lifetime
    /// cache here so artifacts coalesce across requests. The shared
    /// cache wins over [`SweepOptions::cache`].
    pub fn with_cache(
        spec: &'a SweepSpec,
        opts: &SweepOptions,
        fail_plan: Option<FailPlan>,
        cache: Arc<ArtifactCache>,
    ) -> Self {
        PointRunner::build(spec, opts, fail_plan, Some(cache))
    }

    fn build(
        spec: &'a SweepSpec,
        opts: &SweepOptions,
        fail_plan: Option<FailPlan>,
        cache: Option<Arc<ArtifactCache>>,
    ) -> Self {
        let points = spec.points();
        let design_keys: Vec<u64> = spec.designs.iter().map(key::hash_debug).collect();
        let point_keys: Vec<u64> = points
            .iter()
            .map(|p| point_key(spec, &design_keys, *p))
            .collect();
        PointRunner {
            spec,
            designs: spec.designs.iter().cloned().map(Arc::new).collect(),
            opts: *opts,
            fail_plan,
            design_keys,
            points,
            point_keys,
            cache,
            ledger: Mutex::default(),
            max_patterns: spec.max_patterns(),
            retry_count: AtomicU64::new(0),
        }
    }

    /// Number of points in the sweep.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// The content key of point `i` (checkpoint/wire identity).
    pub(crate) fn key(&self, i: usize) -> u64 {
        self.point_keys[i]
    }

    /// The lookups this runner has counted so far, when it has a
    /// cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let ledger = self.ledger.lock().expect("ledger lock");
        self.cache.as_ref().map(|_| *ledger)
    }

    /// Retry attempts so far across all evaluated points.
    pub(crate) fn retries(&self) -> u64 {
        self.retry_count.load(Ordering::Relaxed)
    }

    /// Journals point `i` entering the pipeline. Callers emit this
    /// before deciding whether the point restores from a checkpoint or
    /// evaluates, so the canonical journal shape is the same either
    /// way.
    pub(crate) fn scheduled(&self, i: usize) {
        let p = self.points[i];
        hlstb_trace::events::emit("point.scheduled", Some(p.index as u64), |e| {
            e.str("design", self.spec.designs[p.design].name())
                .str("strategy", &spec::strategy_name(p.strategy));
        });
    }

    /// Evaluates point `i` — panic-isolated, deadline-armed, retried —
    /// and journals its completion or typed failure.
    pub(crate) fn eval(&self, i: usize) -> PointRecord {
        let p = self.points[i];
        let idx = p.index as u64;
        let point_span = hlstb_trace::span("dse.point");
        let t = Instant::now();
        let outcome = self.eval_with_retry(p);
        point_span.end();
        let record = make_record(self.spec, p, outcome, t.elapsed());
        match &record.outcome {
            Ok(m) => hlstb_trace::events::emit("point.completed", Some(idx), |e| {
                if let Some(cov) = m.coverage_percent {
                    e.f64("coverage_percent", cov);
                }
                e.bool("timed_out", m.timed_out)
                    .volatile_u64("wall_us", record.wall.as_micros() as u64);
            }),
            Err(err) => hlstb_trace::events::emit("point.failed", Some(idx), |e| {
                e.str("error", err.kind())
                    .volatile_str("message", err.message())
                    .volatile_u64("wall_us", record.wall.as_micros() as u64);
            }),
        }
        record
    }

    /// Panic-isolated, deadline-armed, bounded-retry evaluation of one
    /// point. Panics and timeouts retry up to `opts.retries` times with
    /// a halved budget each attempt; flow errors are final on first
    /// sight.
    fn eval_with_retry(&self, p: Point) -> Result<PointMetrics, PointError> {
        let mut attempt: u32 = 0;
        loop {
            let deadline = match self.opts.point_budget {
                Some(b) => Deadline::after(b / 2u32.saturating_pow(attempt.min(20))),
                None => Deadline::none(),
            };
            let caught = catch_unwind(AssertUnwindSafe(|| self.eval_point(p, deadline, attempt)));
            let error = match caught {
                Ok(Ok(metrics)) => return Ok(metrics),
                Ok(Err(e)) => e,
                Err(payload) => PointError::Panic {
                    message: panic_message(payload),
                },
            };
            if error.retryable() && attempt < self.opts.retries {
                attempt += 1;
                self.retry_count.fetch_add(1, Ordering::Relaxed);
                hlstb_trace::events::emit("point.retry", Some(p.index as u64), |e| {
                    e.u64("attempt", u64::from(attempt))
                        .str("error", error.kind());
                });
                continue;
            }
            return Err(error);
        }
    }

    /// One attempt at point `p`: its injected failure when the fail
    /// plan names one for this attempt, the pipeline otherwise.
    fn eval_point(
        &self,
        p: Point,
        deadline: Deadline,
        attempt: u32,
    ) -> Result<PointMetrics, PointError> {
        match self.fail_plan.as_ref().and_then(|f| f.mode(p.index)) {
            Some(FailMode::Panic) => panic!("injected panic at point {}", p.index),
            Some(FailMode::Flaky) if attempt == 0 => {
                panic!("injected flaky panic at point {} (attempt 0)", p.index)
            }
            Some(FailMode::Stall) => {
                // A stall burns its whole budget (really sleeping it off
                // when one is set) and yields nothing — the deterministic
                // stand-in for a pathological runaway point.
                if let Some(remaining) = deadline.remaining() {
                    std::thread::sleep(remaining);
                }
                return Err(PointError::Timeout {
                    message: format!("injected stall at point {}: budget exhausted", p.index),
                });
            }
            _ => {}
        }
        self.pipeline(p, deadline)
    }

    /// The one pipeline: front end → S-graph facts → DFT → netlist →
    /// grading, then the report. With a cache each stage is served from
    /// its store; the no-store path runs the same stages with none, so
    /// it derives no key, never hashes a data path, and moves the front
    /// end into the DFT stage instead of cloning it. Stage keys, in
    /// dependency order:
    ///
    /// * front end — design content + scheduler + policy (the
    ///   integrated loop-avoidance strategy replaces the
    ///   scheduler/policy pair, so it keys on the design + a marker
    ///   instead); the artifact carries its data path's content hash,
    ///   taken once per front end;
    /// * S-graph facts — same key as the front end
    ///   (strategy-independent);
    /// * DFT output — front-end key + strategy; the artifact carries
    ///   the post-scan report structure, built once per DFT output;
    /// * netlist — [`netlist_key`]: the front end's content hash × the
    ///   final scan-register set × width × reset flag, so every
    ///   strategy that leaves identical marks (all four no-scan
    ///   strategies: none, both BISTs, k-level points) shares one
    ///   expansion;
    /// * grading run — the netlist key (see [`Self::grade`]).
    ///
    /// The report itself is assembled per point from the DFT output's
    /// structure, the facts and the netlist's gate count, so a point
    /// whose every stage hits costs lookups and a few sums.
    fn pipeline(&self, p: Point, deadline: Deadline) -> Result<PointMetrics, PointError> {
        let flow = self.flow(p);
        let front = self.cache.as_deref().map(|c| (c, self.front_key(p)));
        let fe = self.stage(p, Stage::Front, front.map(|(c, k)| (&c.front, k)), || {
            let fe = flow.front_end().map_err(PointError::from)?;
            Ok::<_, PointError>(FrontOutput::new(fe, front.is_some()))
        })?;
        let facts = self.stage(p, Stage::Facts, front.map(|(c, k)| (&c.facts, k)), || {
            Ok::<_, PointError>(SynthesisFlow::sgraph_facts(&fe.front.datapath))
        })?;
        let dft_store =
            front.map(|(c, k)| (&c.dft, key::combine(&[k, key::hash_debug(&p.strategy)])));
        let dft = self.stage(p, Stage::Dft, dft_store, || {
            Ok::<_, PointError>(DftOutput::new(&flow, Arc::unwrap_or_clone(fe)))
        })?;
        let netlist = self
            .cache
            .as_deref()
            .zip(dft.content_hash())
            .map(|(c, h)| (c, netlist_key(h, p.width, self.spec.reset_controller)));
        let netlist_store = netlist.map(|(c, k)| (&c.netlist, k));
        let expanded = self.stage(p, Stage::Netlist, netlist_store, || {
            flow.expand_netlist(&dft.datapath).map_err(PointError::from)
        })?;
        let (coverage_percent, timed_out) = if p.patterns > 0 {
            let graded = self.grade(
                p,
                &expanded,
                netlist.map(|(c, k)| (&c.grading, k)),
                deadline,
            );
            (
                Some(coverage_at(&graded.run.curve, p.patterns)),
                grading_truncated(&graded.run, p.patterns),
            )
        } else {
            (None, false)
        };
        let report = flow.build_report(&dft.datapath, &expanded, &dft.structure, &facts);
        Ok(PointMetrics {
            report,
            coverage_percent,
            timed_out,
        })
    }

    /// The flow of point `p`, over the runner's shared copy of its
    /// design; stage composition happens in [`Self::pipeline`].
    fn flow(&self, p: Point) -> SynthesisFlow {
        SynthesisFlow::new(Arc::clone(&self.designs[p.design]))
            .scheduler(p.scheduler)
            .register_policy(p.policy)
            .strategy(p.strategy)
            .width(p.width)
            .reset_controller(self.spec.reset_controller)
    }

    /// The front-end (and S-graph facts) key of point `p`.
    fn front_key(&self, p: Point) -> u64 {
        if p.strategy == DftStrategy::SimultaneousLoopAvoidance {
            key::combine(&[self.design_keys[p.design], key::hash_debug("simsched")])
        } else {
            key::combine(&[
                self.design_keys[p.design],
                key::hash_debug(&p.scheduler),
                key::hash_debug(&p.policy),
            ])
        }
    }

    /// Grades point `p`'s netlist under `deadline` and journals the
    /// stage. Without a store the point grades at its own budget, and
    /// so does a point whose deadline has passed before it grades: a
    /// fresh run is then cut in its first batch, and a stored run would
    /// hand the point coverage it had no budget left to compute.
    /// Otherwise a stored run serves the point when it can
    /// ([`depth_serves`]). When it cannot, the point grades at
    /// the sweep's deepest budget if that run would serve it — so one
    /// run serves every whole-batch budget of the sweep — and at its
    /// own budget if not, and the new run replaces the stored one only
    /// when deeper. A run the deadline cut short comes back as the
    /// compute's error, so it is never stored and any waiter grades
    /// under its own deadline.
    fn grade(
        &self,
        p: Point,
        expanded: &ExpandedDatapath,
        store: Option<(&Store<GradingRun>, u64)>,
        deadline: Deadline,
    ) -> Arc<GradingRun> {
        let t = Instant::now();
        let grade_to = |depth: usize| {
            let faults = collapsed_faults(&expanded.netlist);
            let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
            let (run, gstats) = random_pattern_run_opts(
                &expanded.netlist,
                &faults,
                depth,
                &mut rng,
                &grade_opts(deadline),
            );
            grading_event(p, &gstats);
            let graded = GradingRun { depth, run };
            if graded.run.timed_out {
                Err(graded)
            } else {
                Ok(graded)
            }
        };
        let (graded, outcome) = match store.filter(|_| !deadline.expired()) {
            None => {
                let (Ok(graded) | Err(graded)) = grade_to(p.patterns);
                (Arc::new(graded), None)
            }
            Some((store, key)) => {
                let depth = if depth_serves(self.max_patterns, p.patterns) {
                    self.max_patterns
                } else {
                    p.patterns
                };
                let served = store.get_or_try_where(
                    key,
                    |g| depth_serves(g.depth, p.patterns),
                    |new, old| new.depth > old.depth,
                    || grade_to(depth),
                );
                match served {
                    Ok((graded, outcome)) => (graded, Some(outcome)),
                    Err(cut) => (Arc::new(cut), Some(CacheOutcome::Miss)),
                }
            }
        };
        self.stage_event(p, Stage::Grading, outcome, t.elapsed());
        graded
    }

    /// Runs one pipeline stage of point `p` and journals it: through
    /// `store` under its key when the runner has a cache, straight
    /// through `compute` when it has none. A compute that fails or
    /// panics journals nothing, so its lookup is not counted.
    fn stage<T, E>(
        &self,
        p: Point,
        stage: Stage,
        store: Option<(&Store<T>, u64)>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let t = Instant::now();
        let (value, outcome) = match store {
            Some((store, key)) => {
                let (value, outcome) = store.get_or_try(key, compute)?;
                (value, Some(outcome))
            }
            None => (Arc::new(compute()?), None),
        };
        self.stage_event(p, stage, outcome, t.elapsed());
        Ok(value)
    }

    /// Journals one pipeline-stage completion for a point and counts
    /// its lookup in the ledger — the one place lookups are counted.
    /// The stage name is a stable coordinate; the cache outcome and
    /// wall time ride volatile (racing workers flip
    /// hit/miss/coalesced, and the canonical projection must stay
    /// byte-identical across cache settings). Both labels stay
    /// [`FieldValue::Str`](hlstb_trace::events::FieldValue::Str), not
    /// `Static`: perfbench's layer fold reads them through that arm.
    fn stage_event(&self, p: Point, stage: Stage, outcome: Option<CacheOutcome>, wall: Duration) {
        if let Some(outcome) = outcome {
            self.ledger.lock().expect("ledger lock")[stage].record(outcome);
        }
        hlstb_trace::events::emit("point.stage", Some(p.index as u64), |e| {
            e.str("stage", stage.name())
                .volatile_str("cache", outcome.map_or("off", CacheOutcome::label))
                .volatile_u64("wall_us", wall.as_micros() as u64);
        });
    }
}

/// A scale-out coordinator's remote lanes and their summed counters.
#[derive(Default)]
pub(crate) struct Fleet {
    pub(crate) lanes: usize,
    pub(crate) retries: u64,
    pub(crate) cache: CacheStats,
}

type Slot = Mutex<Option<PointRecord>>;

/// One sweep in flight: the single driver of a [`PointRunner`] behind
/// the in-process pool ([`run_sweep_with`]), the scale-out coordinator
/// ([`crate::worker::run_sweep_workers`]) and the serve daemon. It owns
/// the runner, the resume set and checkpoint, the per-point result
/// slots, the progress meter and hook, and the `dse.sweep` span with
/// its `sweep.begin`/`sweep.end` records; front ends differ only in
/// where points are evaluated.
pub struct SweepDriver<'a> {
    runner: PointRunner<'a>,
    resume: Option<RestoredSet>,
    checkpoint: Option<Checkpoint>,
    slots: Vec<Slot>,
    settled: AtomicUsize,
    restored: AtomicUsize,
    checkpoint_errors: AtomicUsize,
    reissued: AtomicU64,
    meter: Option<ProgressMeter>,
    on_point: Option<Box<dyn Fn(usize) + Sync + 'a>>,
    span: hlstb_trace::Span,
    t0: Instant,
}

impl<'a> SweepDriver<'a> {
    /// Starts a sweep over `runner`'s points with the checkpoint and
    /// resume set `recovery` names (its fail plan rides in the runner)
    /// and journals `sweep.begin`.
    ///
    /// # Errors
    ///
    /// [`PointError::Io`] when the checkpoint cannot be opened or the
    /// resume file cannot be read.
    pub fn open(runner: PointRunner<'a>, recovery: &Recovery) -> Result<Self, PointError> {
        let span = hlstb_trace::span("dse.sweep");
        let t0 = Instant::now();
        let resume = match (&recovery.checkpoint, recovery.resume) {
            (Some(path), true) => Some(RestoredSet::load(path)?),
            (None, true) => {
                return Err(PointError::Io {
                    message: "resume requested without a checkpoint path".into(),
                })
            }
            _ => None,
        };
        let checkpoint = recovery
            .checkpoint
            .as_deref()
            .map(Checkpoint::open_append)
            .transpose()?;
        let (n, opts) = (runner.len(), runner.opts);
        hlstb_trace::events::emit("sweep.begin", None, |e| {
            e.u64("points", n as u64)
                .volatile_u64("threads", opts.threads as u64)
                .volatile_bool("cache", opts.cache);
        });
        Ok(SweepDriver {
            runner,
            resume,
            checkpoint,
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            settled: AtomicUsize::new(0),
            restored: AtomicUsize::new(0),
            checkpoint_errors: AtomicUsize::new(0),
            reissued: AtomicU64::new(0),
            meter: opts.progress.then(|| ProgressMeter::new(n, t0)),
            on_point: None,
            span,
            t0,
        })
    }

    /// Calls `hook` with the count of settled points each time a point
    /// settles, however it settled.
    pub fn on_point(mut self, hook: impl Fn(usize) + Sync + 'a) -> Self {
        self.on_point = Some(Box::new(hook));
        self
    }

    /// The sweep's evaluator (point count, content keys, lookups).
    pub fn runner(&self) -> &PointRunner<'a> {
        &self.runner
    }

    /// How many points have settled so far.
    pub fn settled(&self) -> usize {
        self.settled.load(Ordering::Relaxed)
    }

    /// Whether point `i` has settled.
    pub(crate) fn is_settled(&self, i: usize) -> bool {
        self.slots[i].lock().expect("slot lock").is_some()
    }

    /// Counts `n` leased points re-issued after their lane died.
    pub(crate) fn reissue(&self, n: u64) {
        self.reissued.fetch_add(n, Ordering::Relaxed);
    }

    /// Settles point `i` from the resume set when it holds a record
    /// under the point's content key; returns whether it did.
    pub(crate) fn restore(&self, i: usize) -> bool {
        let index = self.runner.points[i].index;
        let Some(record) = self
            .resume
            .as_ref()
            .and_then(|set| set.lookup(self.runner.key(i), index))
            .and_then(checkpoint::record_from_canonical)
        else {
            return false;
        };
        self.runner.scheduled(i);
        hlstb_trace::events::emit("point.restored", Some(index as u64), |_| {});
        self.restored.fetch_add(1, Ordering::Relaxed);
        self.settle(i, record);
        true
    }

    /// Settles point `i` with a record evaluated on a local lane or
    /// spliced from a remote worker's frame, appending it to the
    /// checkpoint first.
    pub(crate) fn complete(&self, i: usize, record: PointRecord) {
        if let Some(ck) = &self.checkpoint {
            let index = self.runner.points[i].index;
            // The `io:` fail-point targets the append itself: the point
            // is fine, only its checkpoint write "fails" — exactly what
            // a real ENOSPC looks like.
            let injected = self.runner.fail_plan.as_ref().and_then(|fp| fp.mode(index))
                == Some(FailMode::Io)
                && !ck.degraded();
            let written = if injected {
                Err(PointError::Io {
                    message: format!("checkpoint write: injected io fail-point at point {index}"),
                })
            } else {
                ck.record(self.runner.key(i), index, &record.canonical_point_json())
            };
            if let Err(e) = written {
                self.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
                ck.degrade(&e.to_string());
            }
        }
        self.settle(i, record);
    }

    fn settle(&self, i: usize, record: PointRecord) {
        if let Some(m) = &self.meter {
            let (runner, reissued) = (&self.runner, self.reissued.load(Ordering::Relaxed));
            m.tick(&record, runner.retries(), reissued, runner.cache_stats());
        }
        *self.slots[i].lock().expect("slot lock") = Some(record);
        let done = self.settled.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(hook) = &self.on_point {
            hook(done);
        }
    }

    /// Runs the points `indices` names on `lanes` local threads (1 =
    /// inline), restoring each from the resume set or evaluating it.
    /// Lanes claim *units* from one shared atomic injector — maximal
    /// runs of consecutive `indices` entries whose points differ only
    /// in `patterns` — and run each unit's points in order, so the lane
    /// that builds a group's front end, DFT output, netlist and grading
    /// run also serves the group's other budgets from them, instead of
    /// a second lane blocking on those single-flight computations. A
    /// slow unit never stalls the rest, and a slot lock is held only
    /// for the final store, so a panicking point (caught by the runner)
    /// can poison neither. A lane checks `stop` before each point and
    /// quits once it holds, leaving the rest unsettled. Lanes are
    /// clamped to the unit count, and one lane runs `indices` in order.
    pub fn run(&self, indices: &[usize], lanes: usize, stop: &(dyn Fn() -> bool + Sync)) {
        let units = units(&self.runner.points, indices);
        let next = AtomicUsize::new(0);
        let lane = |id: u32| {
            hlstb_trace::events::set_worker(id);
            while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                for &i in *unit {
                    if stop() {
                        return;
                    }
                    if !self.restore(i) {
                        self.runner.scheduled(i);
                        let record = self.runner.eval(i);
                        self.complete(i, record);
                    }
                }
            }
        };
        let lanes = lanes.clamp(1, units.len().max(1));
        if lanes == 1 {
            lane(0);
        } else {
            // `&lane` is Copy, so every spawn can share the one closure;
            // each thread gets a lane id for the journal's worker column.
            let lane = &lane;
            std::thread::scope(|s| {
                for id in 0..lanes {
                    s.spawn(move || lane(id as u32));
                }
            });
        }
    }

    /// Assembles the [`SweepOutcome`] — the report in point-index order
    /// whatever the completion order — and journals `sweep.end`.
    ///
    /// # Panics
    ///
    /// When a point never settled: callers settle every point first.
    pub fn finish(self) -> SweepOutcome {
        self.assemble(None)
    }

    /// [`finish`](Self::finish) for a scale-out sweep: the fleet's
    /// lanes are the envelope's `workers`, and its retries and cache
    /// counters add to the local ones.
    pub(crate) fn finish_fleet(self, fleet: Fleet) -> SweepOutcome {
        self.assemble(Some(fleet))
    }

    fn assemble(self, fleet: Option<Fleet>) -> SweepOutcome {
        if let Some(m) = &self.meter {
            m.finish();
        }
        let records: Vec<PointRecord> = self
            .slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock"))
            .map(|settled| settled.expect("every point settled"))
            .collect();
        let cpu = records.iter().map(|r| r.wall).sum();
        let threads = self.runner.opts.threads;
        let (threads, fleet) = match fleet {
            Some(fleet) => (threads.max(1), fleet),
            None => (threads.clamp(1, records.len().max(1)), Fleet::default()),
        };
        let retries = self.runner.retries() + fleet.retries;
        let cache = self.runner.cache_stats().map(|mut stats| {
            stats.merge(&fleet.cache);
            stats
        });
        let reissued = self.reissued.into_inner();
        hlstb_trace::events::emit("sweep.end", None, |e| {
            e.u64("points", records.len() as u64)
                .u64(
                    "failures",
                    records.iter().filter(|r| r.outcome.is_err()).count() as u64,
                )
                .volatile_u64("wall_ms", self.t0.elapsed().as_millis() as u64)
                .volatile_u64("retries", retries)
                .volatile_u64("workers", fleet.lanes as u64)
                .volatile_u64("reissued", reissued);
        });
        self.span.end();
        SweepOutcome {
            report: SweepReport {
                points: records,
                threads,
                workers: fleet.lanes,
                cache,
                wall: self.t0.elapsed(),
                cpu,
                restored: self.restored.into_inner(),
                retries,
                reissued,
                checkpoint_degraded: self.checkpoint.as_ref().is_some_and(Checkpoint::degraded),
            },
            checkpoint_write_errors: self.checkpoint_errors.into_inner(),
        }
    }
}

/// Runs every point of `spec` and collects a [`SweepReport`] ordered
/// by point index regardless of completion order.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepOutcome {
    run_sweep_with(spec, opts, &Recovery::default())
        .expect("a sweep without checkpoint I/O cannot fail to start")
}

/// [`run_sweep`] with fault-tolerance inputs: fail-point injection and
/// checkpoint/resume. The points run on `opts.threads` local lanes of
/// a [`SweepDriver`].
///
/// # Errors
///
/// Returns [`PointError::Io`] when the checkpoint cannot be opened or
/// the resume file cannot be read. Per-point failures never fail the
/// sweep — they land as typed errors in the report.
pub fn run_sweep_with(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
) -> Result<SweepOutcome, PointError> {
    let runner = PointRunner::new(spec, opts, recovery.fail_plan.clone());
    let driver = SweepDriver::open(runner, recovery)?;
    let all: Vec<usize> = (0..driver.runner().len()).collect();
    driver.run(&all, opts.threads, &|| false);
    Ok(driver.finish())
}

/// The netlist key: the content hash of a marked data path
/// ([`DftOutput::content_hash`]) × width × reset flag. Equal keys mean
/// equal expansions.
pub(crate) fn netlist_key(content_hash: u64, width: u32, reset_controller: bool) -> u64 {
    key::combine(&[content_hash, u64::from(width), u64::from(reset_controller)])
}

/// Splits `indices` into the units [`SweepDriver::run`]'s lanes claim:
/// maximal runs of consecutive entries whose points differ only in
/// `patterns`, the points that share one front end, DFT output,
/// netlist and grading run.
fn units<'i>(points: &[Point], indices: &'i [usize]) -> Vec<&'i [usize]> {
    let group = |i: usize| {
        let p = points[i];
        (p.design, p.scheduler, p.policy, p.strategy, p.width)
    };
    indices.chunk_by(|&a, &b| group(a) == group(b)).collect()
}

fn make_record(
    spec: &SweepSpec,
    p: Point,
    outcome: Result<PointMetrics, PointError>,
    wall: Duration,
) -> PointRecord {
    PointRecord {
        index: p.index,
        design: spec.designs[p.design].name().to_string(),
        scheduler: spec::scheduler_name(p.scheduler),
        policy: spec::policy_name(p.policy).to_string(),
        strategy: spec::strategy_name(p.strategy),
        width: p.width,
        patterns: p.patterns,
        outcome,
        wall,
        restored: None,
    }
}

/// Renders a caught panic payload (the two shapes `panic!` produces,
/// plus a fallback for exotic payloads).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn grade_opts(deadline: Deadline) -> ParallelOptions {
    ParallelOptions {
        deadline,
        ..ParallelOptions::default()
    }
}

/// Journals a grading run's work counters against the point whose
/// compute produced them. Entirely volatile: under a warm cache only
/// the one point that computed the shared run emits this, and which
/// point that is races under threading.
fn grading_event(p: Point, stats: &hlstb::netlist::stats::GradeStats) {
    hlstb_trace::events::emit_volatile("point.grading", Some(p.index as u64), |e| {
        e.volatile_u64("faults", stats.faults as u64)
            .volatile_u64("frames", stats.frames as u64)
            .volatile_u64("fault_evals", stats.fault_evals)
            .volatile_u64("screened", stats.screened)
            .volatile_u64("dropped", stats.dropped)
            .volatile_u64("unobservable", stats.unobservable)
            .volatile_u64("stem_memo_hits", stats.stem_memo_hits)
            .volatile_u64("stem_memo_misses", stats.stem_memo_misses)
            .volatile_u64("flip_events", stats.flip_events)
            .volatile_u64("early_exits", stats.early_exits);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheBounds;
    use hlstb::cdfg::benchmarks;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::BistShared,
        ];
        spec.patterns = vec![64, 128];
        spec
    }

    #[test]
    fn coverage_at_reads_prefixes_and_clamps() {
        let curve = vec![
            CoveragePoint {
                patterns: 64,
                coverage_percent: 40.0,
            },
            CoveragePoint {
                patterns: 128,
                coverage_percent: 70.0,
            },
            CoveragePoint {
                patterns: 192,
                coverage_percent: 100.0,
            },
        ];
        assert_eq!(coverage_at(&curve, 0), 40.0);
        assert_eq!(coverage_at(&curve, 64), 40.0);
        assert_eq!(coverage_at(&curve, 100), 70.0);
        assert_eq!(coverage_at(&curve, 128), 70.0);
        assert_eq!(coverage_at(&curve, 192), 100.0);
        // Budgets past saturation clamp to the final point.
        assert_eq!(coverage_at(&curve, 10_000), 100.0);
        assert_eq!(coverage_at(&[], 64), 0.0);
    }

    #[test]
    fn cache_hits_never_change_a_points_report() {
        let spec = tiny_spec();
        let cached = run_sweep(
            &spec,
            &SweepOptions {
                cache: true,
                ..SweepOptions::default()
            },
        );
        let direct = run_sweep(
            &spec,
            &SweepOptions {
                cache: false,
                ..SweepOptions::default()
            },
        );
        let stats = cached.report.cache.expect("cache enabled");
        assert!(stats.total().hits > 0, "{stats:?}");
        assert!(direct.report.cache.is_none());
        assert_eq!(
            cached.report.canonical_json(),
            direct.report.canonical_json()
        );
    }

    #[test]
    fn threaded_sweep_is_byte_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_sweep(
            &spec,
            &SweepOptions {
                threads: 1,
                cache: false,
                ..SweepOptions::default()
            },
        );
        let threaded = run_sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                cache: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(
            serial.report.canonical_json(),
            threaded.report.canonical_json()
        );
        assert!(threaded.report.threads > 1);
    }

    #[test]
    fn a_one_budget_spec_gives_one_point_units() {
        let mut spec = tiny_spec();
        spec.patterns = vec![128];
        let points = spec.points();
        let all: Vec<usize> = (0..points.len()).collect();
        let units = units(&points, &all);
        assert_eq!(units.len(), 3);
        assert!(units.iter().all(|u| u.len() == 1), "{units:?}");
    }

    #[test]
    fn a_resume_hole_joins_the_groups_remaining_budgets_into_one_unit() {
        let mut spec = tiny_spec();
        spec.patterns = vec![128, 512, 1024];
        let points = spec.points();
        // Point 4 (the middle budget of the second group) was restored.
        let left = [0, 1, 2, 3, 5, 6, 7, 8];
        let units = units(&points, &left);
        assert_eq!(units, [&[0, 1, 2][..], &[3, 5], &[6, 7, 8]]);
    }

    #[test]
    fn a_one_group_spec_runs_on_one_lane() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::FullScan];
        spec.patterns = vec![128, 512, 1024];
        let opts = SweepOptions {
            threads: 4,
            ..SweepOptions::default()
        };
        let runner = PointRunner::new(&spec, &opts, None);
        let lanes = Mutex::new(Vec::new());
        let driver = SweepDriver::open(runner, &Recovery::default())
            .expect("no checkpoint")
            .on_point(|_| lanes.lock().unwrap().push(std::thread::current().id()));
        driver.run(&[0, 1, 2], opts.threads, &|| false);
        drop(driver.finish());
        let caller = std::thread::current().id();
        assert_eq!(lanes.into_inner().unwrap(), [caller; 3]);
    }

    #[test]
    fn sweep_coverage_matches_a_standalone_graded_flow() {
        // The cached prefix read must agree with SynthesisFlow's own
        // grading (same seed, same engine) at the same budget.
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::FullScan];
        spec.patterns = vec![128, 256];
        let out = run_sweep(&spec, &SweepOptions::default());
        let standalone = SynthesisFlow::new(benchmarks::figure1())
            .strategy(DftStrategy::FullScan)
            .grade_random(128)
            .run()
            .unwrap();
        let got = out.report.points[0]
            .outcome
            .as_ref()
            .unwrap()
            .coverage_percent
            .unwrap();
        assert_eq!(
            got,
            standalone.report.grading.as_ref().unwrap().coverage_percent
        );
    }

    #[test]
    fn no_scan_strategies_share_one_netlist_and_grading_run() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![
            DftStrategy::None,
            DftStrategy::BistNaive,
            DftStrategy::BistShared,
            DftStrategy::KLevelTestPoints(2),
        ];
        spec.patterns = vec![128];
        let out = run_sweep(&spec, &SweepOptions::default());
        let stats = out.report.cache.unwrap();
        // One expansion and one grading run serve all four strategies.
        assert_eq!(stats[Stage::Netlist].misses, 1, "{stats:?}");
        assert_eq!(stats[Stage::Netlist].hits, 3, "{stats:?}");
        assert_eq!(stats[Stage::Grading].misses, 1, "{stats:?}");
        assert_eq!(stats[Stage::Grading].hits, 3, "{stats:?}");
        // ... and one front end serves everything.
        assert_eq!(stats[Stage::Front].misses, 1, "{stats:?}");
    }

    #[test]
    fn a_warm_shared_cache_serves_a_rerun_from_lookups_alone() {
        let spec = tiny_spec();
        let opts = SweepOptions {
            cache: true,
            ..SweepOptions::default()
        };
        let cache = Arc::new(ArtifactCache::bounded(CacheBounds {
            max_entries: Some(1024),
            max_bytes: Some(64 << 20),
        }));
        let pass = || {
            let runner = PointRunner::with_cache(&spec, &opts, None, Arc::clone(&cache));
            let driver = SweepDriver::open(runner, &Recovery::default()).expect("no checkpoint");
            let all: Vec<usize> = (0..driver.runner().len()).collect();
            driver.run(&all, 1, &|| false);
            driver.finish().report
        };
        let cold = pass().cache.expect("shared cache");
        let rerun = pass();
        let warm = rerun.cache.expect("shared cache");
        // Each pass reports its own lookups: the rerun's are the cold
        // pass's lookups, every one of them now a hit.
        for s in Stage::ALL {
            let (before, after) = (cold[s], warm[s]);
            assert!(before.misses > 0, "{s:?} unused: {cold:?}");
            assert_eq!(after.misses + after.coalesced, 0, "{s:?} missed: {warm:?}");
            assert_eq!(after.hits, before.hits + before.misses, "{s:?}: {warm:?}");
        }
        let serial = run_sweep(
            &spec,
            &SweepOptions {
                threads: 1,
                cache: false,
                ..SweepOptions::default()
            },
        );
        assert_eq!(rerun.canonical_json(), serial.report.canonical_json());
        // Every stored DFT output carries a content hash, and two share
        // one exactly when their marked data paths render alike.
        let dft = cache.dft.ready_values();
        assert!(!dft.is_empty());
        for a in &dft {
            assert!(a.content_hash().is_some());
            for b in &dft {
                assert_eq!(
                    a.content_hash() == b.content_hash(),
                    key::hash_debug(&a.datapath) == key::hash_debug(&b.datapath),
                );
            }
        }
    }

    /// The netlist key — the front end's content hash × the final scan
    /// set × width × reset — splits points exactly as hashing their
    /// marked data paths with width and reset does, over all nine
    /// designs, every catalogue strategy, widths 4 and 8 and both reset
    /// settings; and a cached sweep expands one netlist per key.
    #[test]
    fn netlist_keys_split_points_as_their_marked_data_paths_do() {
        use std::collections::HashMap;
        for reset in [false, true] {
            let mut spec = SweepSpec::all_benchmarks();
            spec.widths = vec![4, 8];
            spec.reset_controller = reset;
            let runner = PointRunner::new(&spec, &SweepOptions::default(), None);
            let mut by_key: HashMap<u64, u64> = HashMap::new();
            let mut by_oracle: HashMap<u64, u64> = HashMap::new();
            for &p in &runner.points {
                let flow = runner.flow(p);
                let front = FrontOutput::new(flow.front_end().expect("front end"), true);
                let dft = DftOutput::new(&flow, front);
                let k = netlist_key(dft.content_hash().expect("hashed"), p.width, reset);
                let oracle = key::combine(&[
                    key::hash_debug(&dft.datapath),
                    u64::from(p.width),
                    u64::from(reset),
                ]);
                assert_eq!(*by_key.entry(k).or_insert(oracle), oracle, "{p:?}");
                assert_eq!(*by_oracle.entry(oracle).or_insert(k), k, "{p:?}");
            }
            let opts = SweepOptions {
                threads: 1,
                cache: true,
                ..SweepOptions::default()
            };
            let stats = run_sweep(&spec, &opts).report.cache.expect("cached sweep");
            assert_eq!(stats[Stage::Netlist].misses, by_key.len() as u64);
        }
    }

    /// A lookup is counted when its stage completes: a compute that
    /// fails or panics leaves the ledger as it was, and the retry that
    /// computes the value counts the one miss.
    #[test]
    fn a_failed_stage_compute_counts_no_lookup() {
        use hlstb::flow::SgraphFacts;
        let spec = tiny_spec();
        let runner = PointRunner::new(&spec, &SweepOptions::default(), None);
        let p = runner.points[0];
        let store = runner.cache.as_deref().map(|c| (&c.facts, 7));
        let failed = runner.stage(p, Stage::Facts, store, || Err::<SgraphFacts, _>("boom"));
        assert!(failed.is_err());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            runner.stage(p, Stage::Facts, store, || -> Result<SgraphFacts, &str> {
                panic!("injected")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(runner.cache_stats(), Some(CacheStats::default()));
        for _ in 0..2 {
            let facts = SgraphFacts {
                cycles: 1,
                mfvs_size: 1,
            };
            runner
                .stage(p, Stage::Facts, store, || Ok::<_, &str>(facts))
                .unwrap();
        }
        let facts = runner.cache_stats().expect("cache on")[Stage::Facts];
        assert_eq!((facts.hits, facts.misses, facts.coalesced), (1, 1, 0));
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(1, FailMode::Panic);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let out = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert_eq!(out.report.points.len(), 6);
        assert_eq!(out.report.errors().len(), 1);
        let (idx, err) = out.report.errors()[0];
        assert_eq!(idx, 1);
        assert_eq!(err.kind(), "panic");
        assert!(err.message().contains("injected panic at point 1"));
        // The cache survived the panic and kept serving other points.
        assert!(out.report.cache.unwrap().total().hits > 0);
        // The default policy retried the panic once before giving up.
        assert_eq!(out.report.retries, 1);
    }

    #[test]
    fn flaky_point_succeeds_via_retry_and_fails_without() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(2, FailMode::Flaky);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let with_retry = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert!(with_retry.report.errors().is_empty());
        assert_eq!(with_retry.report.retries, 1);
        let no_retry = run_sweep_with(
            &spec,
            &SweepOptions {
                retries: 0,
                ..SweepOptions::default()
            },
            &recovery,
        )
        .unwrap();
        assert_eq!(no_retry.report.errors().len(), 1);
        assert_eq!(no_retry.report.errors()[0].1.kind(), "panic");
    }

    #[test]
    fn injected_stall_reports_a_timeout() {
        let spec = tiny_spec();
        let mut plan = FailPlan::default();
        plan.insert(0, FailMode::Stall);
        let recovery = Recovery {
            fail_plan: Some(plan),
            ..Recovery::default()
        };
        let out = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap();
        assert_eq!(out.report.errors().len(), 1);
        assert_eq!(out.report.errors()[0].1.kind(), "timeout");
        assert_eq!(out.report.timeouts(), 1);
        // Stalls are transient by taxonomy, so the policy retried once.
        assert_eq!(out.report.retries, 1);
    }

    #[test]
    fn zero_point_budget_truncates_grading_deterministically() {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.strategies = vec![DftStrategy::FullScan];
        spec.patterns = vec![64, 256];
        let opts = SweepOptions {
            point_budget: Some(Duration::ZERO),
            ..SweepOptions::default()
        };
        let a = run_sweep(&spec, &opts);
        // The first batch is cut inside the batch, so even a budget of
        // one batch reads a partial point.
        for point in &a.report.points {
            let m = point.outcome.as_ref().unwrap();
            assert!(
                m.timed_out,
                "zero budget must truncate {} patterns",
                point.patterns
            );
            assert!(m.coverage_percent.is_some(), "partial coverage reported");
        }
        assert_eq!(a.report.timeouts(), 2);
        // A spent deadline keeps grading away from the store.
        let grading = a.report.cache.expect("cache on")[Stage::Grading];
        assert_eq!(grading, Default::default(), "{grading:?}");
        // Expired-from-the-start deadlines are deterministic: cache and
        // thread settings still agree byte-for-byte.
        let b = run_sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                cache: false,
                ..opts
            },
        );
        assert_eq!(a.report.canonical_json(), b.report.canonical_json());
        // Without a budget the same points grade their full budgets.
        let full = run_sweep(&spec, &SweepOptions::default());
        for (cut, whole) in a.report.points.iter().zip(&full.report.points) {
            let (cut, whole) = (
                cut.outcome.as_ref().unwrap(),
                whole.outcome.as_ref().unwrap(),
            );
            assert!(!whole.timed_out);
            assert!(whole.coverage_percent.unwrap() > cut.coverage_percent.unwrap());
        }
    }

    /// Regression: ticking the meter past `total` (restored/spliced
    /// points can outnumber the planned set) must saturate the ETA
    /// subtraction, not underflow and panic in debug builds.
    #[test]
    fn progress_meter_ticking_past_total_does_not_underflow() {
        let meter = ProgressMeter::new(1, Instant::now());
        let record = PointRecord {
            index: 0,
            design: "figure1".to_string(),
            scheduler: "list".to_string(),
            policy: "left_edge".to_string(),
            strategy: "none".to_string(),
            width: 8,
            patterns: 0,
            outcome: Err(PointError::Io {
                message: "injected".into(),
            }),
            wall: Duration::ZERO,
            restored: None,
        };
        meter.tick(&record, 0, 0, None);
        meter.tick(&record, 1, 2, None); // done=2 > total=1
        meter.finish();
    }

    #[test]
    fn resume_without_checkpoint_path_is_an_io_error() {
        let spec = tiny_spec();
        let recovery = Recovery {
            resume: true,
            ..Recovery::default()
        };
        let err = run_sweep_with(&spec, &SweepOptions::default(), &recovery).unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
