//! Fixed-seed golden grading results for every benchmark design: the
//! naive oracle's detected counts are pinned, and the SoA engine must
//! reproduce the oracle's detected set exactly at every word width.
//! This is the whole-design half of the differential suite (the
//! random-netlist half lives in `crates/netlist/tests/soa_equivalence.rs`).
//! A second test pins the engine's work, not only its answers, over
//! whole random-pattern and ATPG runs.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::atpg::{generate_all_opts, AtpgOptions};
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::fsim::{
    comb_fault_sim_opts, comb_fault_sim_oracle, scan_observed, ParallelOptions, TestFrame,
};
use hlstb::netlist::net::Netlist;
use hlstb::netlist::random::random_pattern_run_opts;
use hlstb::netlist::stats::GradeStats;
use hlstb::netlist::word::WordWidth;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64 — self-contained so the pinned values depend on nothing
/// but this file.
fn frames(seed: u64, patterns: usize, pis: usize, ffs: usize) -> Vec<TestFrame> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..patterns.div_ceil(64))
        .map(|_| {
            TestFrame::new(
                (0..pis).map(|_| next()).collect(),
                (0..ffs).map(|_| next()).collect(),
            )
        })
        .collect()
}

/// (design, total collapsed faults, detected at 256 fixed-seed
/// patterns). Update deliberately when fault collapsing or the
/// benchmark designs change — never to paper over an engine
/// difference, which the width loop below would surface first.
const GOLDEN: &[(&str, usize, usize)] = &[
    ("figure1", 402, 349),
    ("diffeq", 802, 674),
    ("ewf", 1694, 1534),
    ("fir8", 948, 800),
    ("ar_lattice", 580, 503),
    ("iir_biquad", 586, 474),
    ("tseng", 440, 389),
    ("gcd", 598, 544),
    ("dct_lite", 670, 585),
];

#[test]
fn every_design_matches_golden_at_every_width() {
    let designs = benchmarks::all();
    assert_eq!(designs.len(), GOLDEN.len(), "golden table covers the suite");
    for (g, &(name, total, detected)) in designs.into_iter().zip(GOLDEN) {
        assert_eq!(g.name(), name, "golden table order");
        let d = SynthesisFlow::new(g)
            .strategy(DftStrategy::FullScan)
            .run()
            .unwrap();
        let nl = &d.expanded.netlist;
        let faults = collapsed_faults(nl);
        let frames = frames(
            0xD0A5_EED0 ^ name.len() as u64,
            256,
            nl.inputs().len(),
            nl.dffs().len(),
        );
        let (base, _) = comb_fault_sim_oracle(nl, &faults, &frames, &scan_observed(nl));
        assert_eq!(base.total, total, "{name}: fault universe");
        assert_eq!(base.detected.len(), detected, "{name}: oracle detects");
        for width in WordWidth::ALL {
            let (got, stats) =
                comb_fault_sim_opts(nl, &faults, &frames, &ParallelOptions::with_width(width));
            assert_eq!(got, base, "{name} at width {width}");
            assert!(!stats.timed_out, "{name} at width {width}");
        }
    }
}

/// The goldens above grade width-4 data paths, whose universes stop
/// under 1.7k faults. ewf at width 32 collapses to 10,654: two fixed
/// frames of it, graded at every word width, must still detect exactly
/// the oracle's set.
#[test]
fn a_wide_universe_matches_the_oracle_at_every_width() {
    let nl = SynthesisFlow::new(benchmarks::ewf())
        .strategy(DftStrategy::FullScan)
        .width(32)
        .run()
        .unwrap()
        .expanded
        .netlist;
    let faults = collapsed_faults(&nl);
    assert_eq!(faults.len(), 10_654, "fault universe");
    let frames = frames(0xE3F_0032, 128, nl.inputs().len(), nl.dffs().len());
    let (base, _) = comb_fault_sim_oracle(&nl, &faults, &frames, &scan_observed(&nl));
    assert_eq!(base.detected.len(), 8_606, "oracle detects");
    for width in WordWidth::ALL {
        let (got, stats) =
            comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::with_width(width));
        assert_eq!(got, base, "width {width}");
        assert!(!stats.timed_out, "width {width}");
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn faults<'a>(&mut self, faults: impl ExactSizeIterator<Item = &'a Fault>) {
        self.u64(faults.len() as u64);
        for f in faults {
            self.u64(f.net.index() as u64);
            self.bytes(&[u8::from(f.stuck_at_one)]);
        }
    }

    /// Folds every work counter of a run (its walls and thread count
    /// are not work).
    fn work(&mut self, s: &GradeStats) {
        for v in [
            s.faults as u64,
            s.frames as u64,
            s.fault_evals,
            s.screened,
            s.dropped,
            s.unobservable,
            s.stem_memo_hits,
            s.stem_memo_misses,
            s.flip_events,
            s.early_exits,
        ] {
            self.u64(v);
        }
        self.bytes(&[u8::from(s.timed_out)]);
    }
}

fn full_scan(name: &str) -> Netlist {
    let g = benchmarks::all()
        .into_iter()
        .find(|g| g.name() == name)
        .expect("benchmark design");
    SynthesisFlow::new(g)
        .strategy(DftStrategy::FullScan)
        .run()
        .unwrap()
        .expanded
        .netlist
}

/// One digest over, for each full-scan design, a fixed-seed
/// 1024-pattern random run (its curve, detected set and every work
/// counter) and, for two designs, the ATPG loop with fault dropping
/// (its tallies, test set, search effort and grading work). Captured by
/// running this test against the grader that called the engine once per
/// batch with fresh tables and scratch; a session that leaks any state
/// from one batch into the next moves the stem-memo counters, if not
/// the answers.
#[test]
fn grading_work_matches_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (name, _, _) in GOLDEN {
        let nl = full_scan(name);
        let faults = collapsed_faults(&nl);
        let mut rng = StdRng::seed_from_u64(0x5EED_1024 ^ name.len() as u64);
        let (run, stats) =
            random_pattern_run_opts(&nl, &faults, 1024, &mut rng, &ParallelOptions::default());
        h.bytes(name.as_bytes());
        h.u64(run.curve.len() as u64);
        for p in &run.curve {
            h.u64(p.patterns as u64);
            h.u64(p.coverage_percent.to_bits());
        }
        h.faults(run.summary.detected.iter());
        h.bytes(&[u8::from(run.timed_out)]);
        h.work(&stats);
    }
    for name in ["figure1", "tseng"] {
        let nl = full_scan(name);
        let faults = collapsed_faults(&nl);
        let (run, stats) = generate_all_opts(
            &nl,
            &faults,
            &AtpgOptions::default(),
            &ParallelOptions::default(),
        );
        h.bytes(name.as_bytes());
        for v in [run.detected, run.untestable, run.aborted, run.total] {
            h.u64(v as u64);
        }
        h.u64(run.patterns.len() as u64);
        for frame in &run.patterns {
            for &w in frame.pi.iter().chain(&frame.ff) {
                h.u64(w);
            }
            h.u64(frame.mask);
        }
        h.u64(run.effort.decisions);
        h.u64(run.effort.backtracks);
        h.u64(run.effort.implications);
        h.bytes(&[u8::from(run.timed_out)]);
        h.work(&stats);
    }
    assert_eq!(format!("{:016x}", h.0), "8ad52cd8b9ea0080");
}
