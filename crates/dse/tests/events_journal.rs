//! End-to-end contract of the sweep's event journal: the canonical
//! projection is byte-identical between a serial uncached sweep and a
//! 4-thread cached sweep of the same spec — including under injected
//! deterministic failures — and a disabled journal records nothing.

use hlstb::cdfg::benchmarks;
use hlstb::trace::events;
use hlstb_dse::engine::{PointRunner, SweepDriver};
use hlstb_dse::{
    run_sweep_with, ArtifactCache, CacheStats, FailMode, FailPlan, Point, Recovery, Stage,
    SweepOptions, SweepSpec,
};
use std::sync::{Arc, Mutex};

/// The journal is process-global; tests in this binary serialize on
/// this lock so concurrent test threads cannot pollute each other's
/// drained records.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.patterns = vec![0, 64];
    spec.strategies.truncate(3);
    spec
}

/// Runs one journaled sweep and returns the drained journal.
fn journaled_sweep(
    spec: &SweepSpec,
    threads: usize,
    cache: bool,
    recovery: &Recovery,
) -> events::Journal {
    events::set_enabled(true);
    events::reset();
    let opts = SweepOptions {
        threads,
        cache,
        ..SweepOptions::default()
    };
    run_sweep_with(spec, &opts, recovery).expect("sweep runs");
    events::set_enabled(false);
    events::drain()
}

#[test]
fn canonical_journal_is_identical_across_threads_and_cache() {
    let _x = exclusive();
    let spec = spec();
    let n = spec.points().len();
    let recovery = Recovery::default();
    let serial = journaled_sweep(&spec, 1, false, &recovery);
    let threaded = journaled_sweep(&spec, 4, true, &recovery);
    assert_eq!(serial.dropped, 0);
    assert_eq!(threaded.dropped, 0);

    let canon_serial = serial.to_canonical_jsonl();
    let canon_threaded = threaded.to_canonical_jsonl();
    assert!(!canon_serial.is_empty());
    assert_eq!(
        canon_serial, canon_threaded,
        "canonical journal must not depend on threads or cache"
    );

    // The stable lifecycle is complete: every point is scheduled and
    // completes, one stage record per pipeline stage per point, and
    // the run is bracketed by sweep.begin/sweep.end.
    let count = |kind: &str| {
        serial
            .records
            .iter()
            .filter(|r| r.stable && r.kind == kind)
            .count()
    };
    assert_eq!(count("point.scheduled"), n);
    assert_eq!(count("point.completed"), n);
    // Four synthesis stages per point, plus grading for graded points.
    let graded = spec.points().iter().filter(|p| p.patterns > 0).count();
    assert_eq!(count("point.stage"), 4 * n + graded);
    assert_eq!(count("sweep.begin"), 1);
    assert_eq!(count("sweep.end"), 1);
    // Volatile records (spans, timings, cache outcomes) exist in the
    // full journal but never reach the canonical projection.
    assert!(serial.records.iter().any(|r| !r.stable));
    assert!(!canon_serial.contains("wall_us"), "{canon_serial}");
    assert!(!canon_serial.contains("\"cache\""), "{canon_serial}");
}

#[test]
fn injected_failures_keep_the_canonical_journal_identical() {
    let _x = exclusive();
    let spec = spec();
    let mut plan = FailPlan::default();
    plan.insert(1, FailMode::Panic);
    plan.insert(3, FailMode::Stall);
    plan.insert(4, FailMode::Flaky);
    let recovery = Recovery {
        fail_plan: Some(plan),
        ..Recovery::default()
    };
    let serial = journaled_sweep(&spec, 1, false, &recovery);
    let threaded = journaled_sweep(&spec, 4, true, &recovery);
    assert_eq!(
        serial.to_canonical_jsonl(),
        threaded.to_canonical_jsonl(),
        "typed failures and retries must journal deterministically"
    );
    let canon = serial.to_canonical_jsonl();
    assert!(canon.contains("\"point.failed\""), "{canon}");
    assert!(canon.contains("\"error\": \"panic\""), "{canon}");
    assert!(canon.contains("\"error\": \"timeout\""), "{canon}");
    // The flaky point retried once, then completed.
    assert!(canon.contains("\"point.retry\""), "{canon}");
    assert!(canon.contains("\"attempt\": 1"), "{canon}");
}

/// A threaded sweep's lanes claim whole point groups — the points that
/// differ only in grading budget and so share one front end, DFT
/// output, netlist and grading run — so every budget of a group is
/// scheduled on the lane that claimed it.
#[test]
fn every_budget_of_a_point_group_runs_on_one_lane() {
    let _x = exclusive();
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.patterns = vec![128, 512, 1024];
    let points = spec.points();
    let group = |p: &Point| (p.design, p.scheduler, p.policy, p.strategy, p.width);
    for threads in [2, 4] {
        let journal = journaled_sweep(&spec, threads, true, &Recovery::default());
        let scheduled: Vec<(Point, u32)> = journal
            .records
            .iter()
            .filter(|r| r.kind == "point.scheduled")
            .map(|r| {
                let i = r.point.expect("scheduled records carry a point") as usize;
                (points[i], r.worker.expect("pool lanes tag their records"))
            })
            .collect();
        assert_eq!(scheduled.len(), points.len());
        for (a, lane_a) in &scheduled {
            for (b, lane_b) in scheduled.iter().filter(|(b, _)| group(a) == group(b)) {
                assert_eq!(
                    lane_a, lane_b,
                    "points {} and {} split across lanes at {threads} threads",
                    a.index, b.index
                );
            }
        }
    }
}

/// The post-scan report structure is built once per DFT artifact: a
/// cached scoreboard-spec sweep journals one `report.structure` span per
/// DFT miss, a sweep without stores one per point, and a rerun on a warm
/// shared cache none.
#[test]
fn report_structure_is_built_once_per_dft_artifact() {
    let _x = exclusive();
    let mut spec = SweepSpec::all_benchmarks();
    spec.patterns = vec![128, 512, 1024];
    let n = spec.points().len();
    let traced = |sweep: &dyn Fn() -> Option<CacheStats>| {
        events::set_enabled(true);
        events::reset();
        let stats = sweep();
        events::set_enabled(false);
        let journal = events::drain();
        assert_eq!(journal.dropped, 0);
        let structures = journal
            .records
            .iter()
            .filter(|r| r.kind == "span.close")
            .filter(|r| {
                r.fields
                    .iter()
                    .any(|f| f.name == "name" && f.value.as_str() == Some("report.structure"))
            })
            .count();
        (structures, stats)
    };
    let run = |threads: usize, cache: bool| {
        let opts = SweepOptions {
            threads,
            cache,
            ..SweepOptions::default()
        };
        let outcome = run_sweep_with(&spec, &opts, &Recovery::default()).expect("sweep runs");
        outcome.report.cache
    };

    let (built, stats) = traced(&|| run(2, true));
    let dft = stats.expect("cached sweep")[Stage::Dft];
    assert_eq!(dft.misses, 99);
    assert_eq!(built as u64, dft.misses, "{dft:?}");
    assert_eq!(traced(&|| run(1, false)), (n, None));
    assert_eq!(n, 297);

    let shared = Arc::new(ArtifactCache::new());
    let pass = || {
        let opts = SweepOptions {
            cache: true,
            ..SweepOptions::default()
        };
        let runner = PointRunner::with_cache(&spec, &opts, None, Arc::clone(&shared));
        let driver = SweepDriver::open(runner, &Recovery::default()).expect("no checkpoint");
        driver.run(&(0..n).collect::<Vec<_>>(), 2, &|| false);
        driver.finish().report.cache
    };
    let (cold, _) = traced(&pass);
    assert_eq!(cold, 99);
    let (warm, stats) = traced(&pass);
    assert_eq!(warm, 0);
    let dft = stats.expect("shared cache")[Stage::Dft];
    assert_eq!((dft.hits, dft.misses, dft.coalesced), (n as u64, 0, 0));
}

#[test]
fn disabled_journal_records_nothing_during_a_sweep() {
    let _x = exclusive();
    events::set_enabled(false);
    events::reset();
    let opts = SweepOptions::default();
    run_sweep_with(&spec(), &opts, &Recovery::default()).expect("sweep runs");
    assert!(events::drain().is_empty());
}
