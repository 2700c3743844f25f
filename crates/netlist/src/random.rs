//! Pseudorandom-pattern coverage measurement for the BIST experiments.
//!
//! Pseudorandom BIST quality is a coverage-versus-pattern-count curve:
//! how fast random patterns detect the fault universe, and where the
//! curve saturates (random-pattern-resistant faults). The arithmetic
//! BIST experiment (E13) compares these curves for accumulator-generated
//! versus LFSR-like uniform patterns.

use rand::Rng;

use crate::fault::Fault;
use crate::fsim::{scan_observed, FaultSimSummary, ParallelOptions, TestFrame};
use crate::net::Netlist;
use crate::stats::GradeStats;

/// A point on a coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Patterns applied so far.
    pub patterns: usize,
    /// Coverage in percent at this point.
    pub coverage_percent: f64,
}

/// Result of a pseudorandom grading run.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomRun {
    /// The coverage curve, one point per batch of 64 patterns.
    pub curve: Vec<CoveragePoint>,
    /// Final summary.
    pub summary: FaultSimSummary,
    /// Whether the run stopped early because the engine's
    /// [`crate::deadline::Deadline`] expired: the curve is then a
    /// truncated prefix of the requested budget, not a saturated run.
    pub timed_out: bool,
}

impl RandomRun {
    /// The number of patterns needed to reach `target` percent coverage,
    /// if the run got there.
    pub fn patterns_to_reach(&self, target: f64) -> Option<usize> {
        self.curve
            .iter()
            .find(|p| p.coverage_percent >= target)
            .map(|p| p.patterns)
    }
}

/// Grades uniformly random full-scan patterns in batches of 64 until
/// `max_patterns` have been applied (rounded up to a whole batch).
pub fn random_pattern_run<R: Rng>(
    nl: &Netlist,
    faults: &[Fault],
    max_patterns: usize,
    rng: &mut R,
) -> RandomRun {
    random_pattern_run_opts(nl, faults, max_patterns, rng, &ParallelOptions::default()).0
}

/// [`random_pattern_run`] with engine options and aggregated run
/// instrumentation. The batch loop already drops detected faults from
/// the graded universe between batches; `opts` additionally controls
/// sharding and in-batch dropping.
pub fn random_pattern_run_opts<R: Rng>(
    nl: &Netlist,
    faults: &[Fault],
    max_patterns: usize,
    rng: &mut R,
    opts: &ParallelOptions,
) -> (RandomRun, GradeStats) {
    let _span = hlstb_trace::span("fsim.grade");
    let batches = max_patterns.div_ceil(64).max(1);
    let mut detected = std::collections::BTreeSet::new();
    let mut curve = Vec::with_capacity(batches);
    let mut remaining: Vec<Fault> = faults.to_vec();
    let observed = scan_observed(nl);
    let mut stats = GradeStats::default();
    let mut timed_out = false;
    for bi in 0..batches {
        // Cooperative cutoff between batches. The first batch always
        // runs, so an expired-from-the-start deadline still yields one
        // deterministic curve point (partial coverage, flagged below).
        if bi > 0 && opts.deadline.expired() {
            timed_out = true;
            break;
        }
        // The final batch may be asked for fewer than 64 patterns; mask
        // the unused high lanes so the random padding in them cannot
        // contribute phantom detections. A zero request still grades
        // one whole live word (see the curve labeling below).
        let live = if max_patterns == 0 {
            64
        } else {
            (max_patterns - bi * 64).min(64)
        };
        let frame = TestFrame::with_lanes(
            (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
            (0..nl.dffs().len()).map(|_| rng.gen()).collect(),
            live,
        );
        let (r, s) = crate::soa::grade_observed_opts(nl, &remaining, &[frame], &observed, opts);
        stats.absorb(&s);
        for f in r.detected {
            detected.insert(f);
        }
        remaining.retain(|f| !detected.contains(f));
        // The final batch is padded to a full 64-pattern word; label the
        // point with the patterns actually requested, not the padding.
        // A zero request still grades one whole word and says so.
        let applied = if max_patterns == 0 {
            64
        } else {
            ((bi + 1) * 64).min(max_patterns)
        };
        curve.push(CoveragePoint {
            patterns: applied,
            coverage_percent: 100.0 * detected.len() as f64 / faults.len().max(1) as f64,
        });
        if remaining.is_empty() {
            break;
        }
    }
    stats.faults = faults.len();
    stats.trace_bridge();
    let run = RandomRun {
        curve,
        summary: FaultSimSummary {
            detected,
            total: faults.len(),
        },
        // An in-batch truncation (the fsim shards poll the same
        // deadline) also makes the curve partial.
        timed_out: timed_out || stats.timed_out,
    };
    (run, stats)
}

/// Grades a caller-supplied pattern source (e.g. an arithmetic/
/// accumulator generator): `source(i)` must yield the i-th pattern as
/// one bit per primary input and per flip-flop.
pub fn pattern_source_run(
    nl: &Netlist,
    faults: &[Fault],
    max_patterns: usize,
    source: impl FnMut(usize) -> (Vec<bool>, Vec<bool>),
) -> RandomRun {
    pattern_source_run_opts(
        nl,
        faults,
        max_patterns,
        source,
        &ParallelOptions::default(),
    )
    .0
}

/// [`pattern_source_run`] with engine options and aggregated run
/// instrumentation.
pub fn pattern_source_run_opts(
    nl: &Netlist,
    faults: &[Fault],
    max_patterns: usize,
    mut source: impl FnMut(usize) -> (Vec<bool>, Vec<bool>),
    opts: &ParallelOptions,
) -> (RandomRun, GradeStats) {
    let _span = hlstb_trace::span("fsim.grade");
    let mut detected = std::collections::BTreeSet::new();
    let mut curve = Vec::new();
    let mut remaining: Vec<Fault> = faults.to_vec();
    let observed = scan_observed(nl);
    let mut applied = 0usize;
    let mut stats = GradeStats::default();
    let mut timed_out = false;
    while applied < max_patterns && !remaining.is_empty() {
        if applied > 0 && opts.deadline.expired() {
            timed_out = true;
            break;
        }
        // Pack up to 64 patterns into one frame.
        let count = 64.min(max_patterns - applied);
        let mut pi = vec![0u64; nl.inputs().len()];
        let mut ff = vec![0u64; nl.dffs().len()];
        for k in 0..count {
            let (pbits, fbits) = source(applied + k);
            assert_eq!(pbits.len(), pi.len(), "pattern width mismatch");
            assert_eq!(fbits.len(), ff.len(), "state width mismatch");
            for (i, &bit) in pbits.iter().enumerate() {
                if bit {
                    pi[i] |= 1 << k;
                }
            }
            for (i, &bit) in fbits.iter().enumerate() {
                if bit {
                    ff[i] |= 1 << k;
                }
            }
        }
        applied += count;
        // A partial word's high lanes are zero-filled, not real
        // patterns; mask them out of detection.
        let frame = TestFrame::with_lanes(pi, ff, count);
        let (r, s) = crate::soa::grade_observed_opts(nl, &remaining, &[frame], &observed, opts);
        stats.absorb(&s);
        for f in r.detected {
            detected.insert(f);
        }
        remaining.retain(|f| !detected.contains(f));
        curve.push(CoveragePoint {
            patterns: applied,
            coverage_percent: 100.0 * detected.len() as f64 / faults.len().max(1) as f64,
        });
    }
    stats.faults = faults.len();
    stats.trace_bridge();
    let run = RandomRun {
        curve,
        summary: FaultSimSummary {
            detected,
            total: faults.len(),
        },
        timed_out: timed_out || stats.timed_out,
    };
    (run, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use crate::net::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> Netlist {
        let mut b = NetlistBuilder::new("a");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        b.finish().unwrap()
    }

    #[test]
    fn random_patterns_cover_an_adder() {
        let nl = adder();
        let faults = all_faults(&nl);
        let mut rng = StdRng::seed_from_u64(42);
        let run = random_pattern_run(&nl, &faults, 512, &mut rng);
        assert!(run.summary.coverage_percent() > 95.0);
        // The curve is monotone.
        for w in run.curve.windows(2) {
            assert!(w[1].coverage_percent >= w[0].coverage_percent);
        }
    }

    #[test]
    fn patterns_to_reach_reports_crossing() {
        let nl = adder();
        let faults = all_faults(&nl);
        let mut rng = StdRng::seed_from_u64(1);
        let run = random_pattern_run(&nl, &faults, 2048, &mut rng);
        let p90 = run.patterns_to_reach(90.0);
        assert!(p90.is_some());
        assert!(run.patterns_to_reach(101.0).is_none());
    }

    #[test]
    fn counting_source_covers_small_adder() {
        let nl = adder();
        let faults = all_faults(&nl);
        // Exhaustive 8-bit counting source.
        let run = pattern_source_run(&nl, &faults, 256, |i| {
            let bits = (0..8).map(|k| i >> k & 1 == 1).collect();
            (bits, Vec::new())
        });
        assert_eq!(run.summary.coverage_percent(), 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = adder();
        let faults = all_faults(&nl);
        let r1 = random_pattern_run(&nl, &faults, 128, &mut StdRng::seed_from_u64(9));
        let r2 = random_pattern_run(&nl, &faults, 128, &mut StdRng::seed_from_u64(9));
        assert_eq!(r1.curve, r2.curve);
    }

    #[test]
    fn curve_tail_is_clamped_to_max_patterns() {
        let nl = adder();
        let faults = all_faults(&nl);
        // 100 is not a multiple of 64: the last point must say 100, not
        // 128 (the padded batch size).
        let run = random_pattern_run(&nl, &faults, 100, &mut StdRng::seed_from_u64(3));
        assert!(run.curve.iter().all(|p| p.patterns <= 100));
        let last = run.curve.last().unwrap();
        assert!(
            last.patterns == 100 || run.curve.len() < 2,
            "{:?}",
            run.curve
        );
        // Requests below one batch still grade (and label) a full word.
        let tiny = random_pattern_run(&nl, &faults, 0, &mut StdRng::seed_from_u64(3));
        assert_eq!(tiny.curve.first().unwrap().patterns, 64);
    }

    /// Satellite regression: a partial final word must not let its
    /// padding lanes detect anything. One all-ones pattern graded
    /// through the source runner must match a full word of all-ones
    /// duplicates — and differ from a run that really applies the
    /// all-zero pattern the padding used to smuggle in.
    #[test]
    fn tail_padding_lanes_never_detect() {
        use crate::fsim::{comb_fault_sim, TestFrame};
        let nl = adder();
        let faults = all_faults(&nl);
        let run = pattern_source_run(&nl, &faults, 1, |_| (vec![true; 8], Vec::new()));
        // Ground truth: 64 duplicates of the all-ones pattern.
        let want = comb_fault_sim(
            &nl,
            &faults,
            &[TestFrame::new(vec![u64::MAX; 8], Vec::new())],
        );
        assert_eq!(run.summary.detected, want.detected);
        // The buggy padding behaved like an extra all-zero pattern,
        // which detects strictly more on an adder (e.g. input sa1s).
        let with_zero = comb_fault_sim(
            &nl,
            &faults,
            &[
                TestFrame::new(vec![u64::MAX; 8], Vec::new()),
                TestFrame::new(vec![0u64; 8], Vec::new()),
            ],
        );
        assert!(want.detected.len() < with_zero.detected.len());
    }

    /// A 16-input AND chain: the output stuck-at-0 fault needs the
    /// all-ones pattern, so 64 random patterns essentially never
    /// saturate the universe and the batch loop keeps running.
    fn and_chain() -> Netlist {
        let mut b = NetlistBuilder::new("ac");
        let ins: Vec<_> = (0..16).map(|i| b.input(format!("i{i}"))).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = b.and2(acc, x);
        }
        b.output("o", acc);
        b.finish().unwrap()
    }

    #[test]
    fn expired_deadline_truncates_the_curve_deterministically() {
        use crate::deadline::Deadline;
        use std::time::Duration;
        let nl = and_chain();
        let faults = all_faults(&nl);
        let opts = ParallelOptions {
            deadline: Deadline::after(Duration::ZERO),
            ..ParallelOptions::default()
        };
        let (a, _) =
            random_pattern_run_opts(&nl, &faults, 512, &mut StdRng::seed_from_u64(7), &opts);
        let (b, _) =
            random_pattern_run_opts(&nl, &faults, 512, &mut StdRng::seed_from_u64(7), &opts);
        // Exactly one batch runs before the (pre-expired) cutoff fires,
        // so the partial result is reproducible.
        assert!(a.timed_out);
        assert_eq!(a.curve.len(), 1);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.summary, b.summary);
        // Without a deadline the same seed grades the full budget.
        let full = random_pattern_run(&nl, &faults, 512, &mut StdRng::seed_from_u64(7));
        assert!(!full.timed_out);
        assert_eq!(full.curve[0], a.curve[0]);
    }

    #[test]
    fn opts_variant_matches_and_reports_work() {
        let nl = adder();
        let faults = all_faults(&nl);
        let plain = random_pattern_run(&nl, &faults, 256, &mut StdRng::seed_from_u64(5));
        let (opted, stats) = random_pattern_run_opts(
            &nl,
            &faults,
            256,
            &mut StdRng::seed_from_u64(5),
            &ParallelOptions::with_threads_ungated(2),
        );
        assert_eq!(plain.curve, opted.curve);
        assert_eq!(plain.summary, opted.summary);
        assert_eq!(stats.faults, faults.len());
        assert!(stats.fault_evals > 0);
        assert!(stats.wall() > std::time::Duration::ZERO);
    }
}
