//! Property tests for the sweep engine's bit-identity contract: for an
//! arbitrary `SweepSpec`, a 4-thread cached sweep must produce the
//! same canonical report bytes as a serial uncached sweep — including
//! under injected failures and through a cache shared across requests
//! — and cache hits must never change any point's metrics.

use std::sync::Arc;
use std::time::Duration;

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::{DftStrategy, RegisterPolicy, Scheduler};
use hlstb_dse::engine::{PointRunner, SweepDriver};
use hlstb_dse::{
    run_sweep, run_sweep_with, ArtifactCache, FailMode, FailPlan, Recovery, SweepOptions, SweepSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a random nonempty subset of `pool`, preserving order.
fn subset<T: Clone>(pool: &[T], rng: &mut StdRng) -> Vec<T> {
    loop {
        let picked: Vec<T> = pool.iter().filter(|_| rng.gen_bool(0.4)).cloned().collect();
        if !picked.is_empty() {
            return picked;
        }
    }
}

/// A random sweep spec derived from one seed: 1-2 small designs and a
/// random subset of every axis. Small designs keep a proptest case
/// affordable; the full design set is exercised by `exp_dse`.
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
    spec.schedulers = subset(&[Scheduler::List, Scheduler::IoAware, Scheduler::Asap], rng);
    spec.policies = subset(
        &[
            RegisterPolicy::LeftEdge,
            RegisterPolicy::Dsatur,
            RegisterPolicy::Boundary,
        ],
        rng,
    );
    spec.strategies = subset(
        &[
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::BehavioralPartialScan,
            DftStrategy::SimultaneousLoopAvoidance,
            DftStrategy::BistShared,
            DftStrategy::KLevelTestPoints(2),
        ],
        rng,
    );
    spec.strategies.truncate(3);
    spec.patterns = subset(&[0usize, 40, 64, 128, 256], rng);
    spec.patterns.truncate(2);
    spec.reset_controller = rng.gen_bool(0.5);
    spec
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn parallel_cached_sweep_is_byte_identical_to_serial_uncached(seed in 0u64..10_000) {
        let spec = arb_spec(seed);
        let serial = run_sweep(&spec, &SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        });
        let parallel = run_sweep(&spec, &SweepOptions {
            threads: 4,
            cache: true,
            ..SweepOptions::default()
        });
        prop_assert!(serial.report.cache.is_none());
        prop_assert!(parallel.report.cache.is_some());
        prop_assert_eq!(
            serial.report.canonical_json(),
            parallel.report.canonical_json()
        );
    }

    #[test]
    fn injected_failures_stay_byte_identical_and_typed(seed in 0u64..10_000) {
        let spec = arb_spec(seed);
        let n = spec.points().len();
        // A random failure subset over a random spec: each point may be
        // injected with a random mode. All three modes are deterministic
        // by construction, so thread count and cache must not matter.
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
        let hard = plan.hard_failures();
        let recovery = Recovery { fail_plan: Some(plan), ..Recovery::default() };
        let serial = run_sweep_with(&spec, &SweepOptions {
            threads: 1,
            cache: false,
            ..SweepOptions::default()
        }, &recovery).unwrap();
        let parallel = run_sweep_with(&spec, &SweepOptions {
            threads: 4,
            cache: true,
            ..SweepOptions::default()
        }, &recovery).unwrap();
        // Exactly the hard-injected points fail; flaky points recover
        // via the default single retry. Every failure is typed.
        prop_assert_eq!(serial.report.points.len(), n);
        prop_assert_eq!(serial.report.errors().len(), hard);
        for (_, e) in serial.report.errors() {
            prop_assert!(e.kind() == "panic" || e.kind() == "timeout");
        }
        prop_assert_eq!(
            serial.report.canonical_json(),
            parallel.report.canonical_json()
        );
    }
}

/// One request of a shared-cache sequence: 1-2 designs under full and
/// no scan, a budget list from {40, 64, 256, 1024}, and a point budget
/// that is unset or zero.
fn arb_request(rng: &mut StdRng) -> (SweepSpec, SweepOptions) {
    let pool: Vec<Cdfg> = vec![
        benchmarks::figure1(),
        benchmarks::tseng(),
        benchmarks::gcd(),
        benchmarks::diffeq(),
    ];
    let mut designs = subset(&pool, rng);
    designs.truncate(2);
    let mut spec = SweepSpec::new(designs);
    spec.strategies = vec![DftStrategy::FullScan, DftStrategy::None];
    spec.patterns = subset(&[40usize, 64, 256, 1024], rng);
    let opts = SweepOptions {
        point_budget: rng.gen_bool(0.3).then_some(Duration::ZERO),
        ..SweepOptions::default()
    };
    (spec, opts)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A cache shared across requests (as the serve daemon shares one)
    /// must serve every request exactly as a fresh serial uncached
    /// sweep computes it, whatever depths and deadlines earlier
    /// requests left in the grading store.
    #[test]
    fn a_shared_cache_serves_every_request_as_a_fresh_serial_sweep(seed in 0u64..10_000) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let cache = Arc::new(ArtifactCache::new());
        for _ in 0..4 {
            let (spec, opts) = arb_request(rng);
            let lanes = rng.gen_range(1..3usize);
            let runner = PointRunner::with_cache(&spec, &opts, None, Arc::clone(&cache));
            let driver = SweepDriver::open(runner, &Recovery::default()).unwrap();
            let all: Vec<usize> = (0..spec.points().len()).collect();
            driver.run(&all, lanes, &|| false);
            let shared = driver.finish().report.canonical_json();
            let fresh = run_sweep(&spec, &SweepOptions {
                threads: 1,
                cache: false,
                ..opts
            });
            prop_assert_eq!(shared, fresh.report.canonical_json());
        }
    }
}

/// Cache hits never change a point's record: sweep a spec whose points
/// share artifacts heavily, then cold-evaluate each point in isolation
/// (fresh cache, every stage misses) and require identical metrics.
#[test]
fn cache_hits_never_change_a_points_report() {
    let mut spec = SweepSpec::new(vec![benchmarks::diffeq()]);
    spec.patterns = vec![0, 128, 512];
    let cached = run_sweep(&spec, &SweepOptions::default());
    let stats = cached.report.cache.expect("cache on");
    assert!(stats.total().hits > 0, "sweep too small to share artifacts");
    for point in &cached.report.points {
        let mut solo = spec.clone();
        solo.strategies = vec![hlstb_dse::spec::parse_strategy(&point.strategy).unwrap()];
        solo.patterns = vec![point.patterns];
        let cold = run_sweep(&solo, &SweepOptions::default());
        let cold_point = &cold.report.points[0];
        let warm = point.outcome.as_ref().expect("point ok");
        let cold_m = cold_point.outcome.as_ref().expect("solo point ok");
        assert_eq!(warm.report, cold_m.report, "strategy {}", point.strategy);
        assert_eq!(
            warm.coverage_percent, cold_m.coverage_percent,
            "strategy {} at {} patterns",
            point.strategy, point.patterns
        );
    }
}

/// Every design's data path renders to one content hash however often
/// it is rebuilt in a process — as the front end builds it and as each
/// DFT strategy marks it, which is what a cached sweep keys its
/// netlists on. Each rebuild draws fresh hash maps with fresh
/// per-instance seeds, so any iteration over a `HashMap` on that path
/// shows up here as a second hash (and a duplicated netlist in a
/// cached sweep).
#[test]
fn every_designs_data_path_hashes_the_same_on_every_build() {
    use hlstb::flow::SynthesisFlow;
    use std::collections::BTreeSet;

    let spec = SweepSpec::all_benchmarks();
    for design in &spec.designs {
        for &strategy in &spec.strategies {
            let flow = SynthesisFlow::new(design.clone()).strategy(strategy);
            let hashes: BTreeSet<(u64, u64)> = (0..8)
                .map(|_| {
                    let mut fe = flow.front_end().expect("front end builds");
                    let front = hlstb_dse::key::hash_debug(&fe.datapath);
                    flow.apply_dft(&mut fe);
                    (front, hlstb_dse::key::hash_debug(&fe.datapath))
                })
                .collect();
            assert_eq!(
                hashes.len(),
                1,
                "{} ({strategy:?}): {} distinct data-path hashes",
                design.name(),
                hashes.len()
            );
        }
    }
}
