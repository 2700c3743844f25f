//! Run instrumentation for the grading engines.
//!
//! Every `_opts` entry point in [`crate::fsim`], [`crate::random`], and
//! [`crate::atpg`] reports a [`GradeStats`]: how much work the engine
//! actually did (faulty-machine evaluations), how much it avoided
//! (activation screening, fault dropping, unobservable cones), and the
//! wall time of the good-machine and faulty-machine phases. The bench
//! binaries serialize these into `BENCH_fsim.json` so engine-performance
//! regressions are visible across commits.

use std::fmt;
use std::time::Duration;

/// Work and timing counters from one grading run. The stem-region
/// counters come from the combinational engine ([`crate::soa`]);
/// sequential grading and the naive oracle leave them zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GradeStats {
    /// Size of the graded fault universe.
    pub faults: usize,
    /// Test frames (combinational) or cycles (sequential) supplied.
    pub frames: usize,
    /// Faulty-machine frame evaluations actually run.
    pub fault_evals: u64,
    /// (fault, frame) pairs skipped by the activation screen: the good
    /// value already equaled the stuck value on every parallel pattern.
    pub screened: u64,
    /// (fault, frame) pairs skipped because the fault was already
    /// detected (fault dropping).
    pub dropped: u64,
    /// Faults whose combinational fanout cone reaches no observation
    /// point — structurally undetectable for this observation set.
    pub unobservable: u64,
    /// Stem-region grading: stem-observability lookups answered by the
    /// per-chunk memo (the fault's FFR stem was already resolved this
    /// chunk).
    pub stem_memo_hits: u64,
    /// Stem-region grading: stem lookups that had to run the
    /// event-driven flip propagation.
    pub stem_memo_misses: u64,
    /// Stem-region grading: gate evaluations performed by the
    /// event-driven flip propagation (the engine's true unit of
    /// hot-loop work).
    pub flip_events: u64,
    /// Stem-region grading: flip propagations cut short because the
    /// observability word saturated (every parallel pattern already
    /// differed at an observation point).
    pub early_exits: u64,
    /// Worker threads the faulty-machine phase actually ran on — the
    /// *effective* count after the small-universe gate
    /// ([`crate::fsim::ParallelOptions::min_faults_per_thread`]) may
    /// have reduced the requested `threads`.
    pub threads: usize,
    /// Wall time of the good-machine phase (fault-free evaluations).
    pub wall_good: Duration,
    /// Wall time of the faulty-machine phase (sharded grading).
    pub wall_fault: Duration,
    /// Whether any shard stopped early because its
    /// [`crate::deadline::Deadline`] expired — the counters above then
    /// describe a truncated (but internally consistent) run.
    pub timed_out: bool,
}

impl GradeStats {
    /// Total wall time across both phases.
    pub fn wall(&self) -> Duration {
        self.wall_good + self.wall_fault
    }

    /// Folds another run's counters and phase times into this one —
    /// used when a curve or ATPG loop grades in many small calls and
    /// reports one aggregate.
    pub fn absorb(&mut self, other: &GradeStats) {
        self.faults = self.faults.max(other.faults);
        self.frames += other.frames;
        self.merge_counts(other);
        self.threads = self.threads.max(other.threads);
        self.wall_good += other.wall_good;
        self.wall_fault += other.wall_fault;
    }

    /// Sums the per-shard work counters only; phase walls and shape
    /// fields stay as the orchestrator measured them (shards run
    /// concurrently, so their elapsed times must not be added).
    pub(crate) fn merge_counts(&mut self, other: &GradeStats) {
        self.fault_evals += other.fault_evals;
        self.screened += other.screened;
        self.dropped += other.dropped;
        self.unobservable += other.unobservable;
        self.stem_memo_hits += other.stem_memo_hits;
        self.stem_memo_misses += other.stem_memo_misses;
        self.flip_events += other.flip_events;
        self.early_exits += other.early_exits;
        self.timed_out |= other.timed_out;
    }

    /// Renders the stats as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = hlstb_trace::json::Obj::new();
        o.number_u64("faults", self.faults as u64)
            .number_u64("frames", self.frames as u64)
            .number_u64("fault_evals", self.fault_evals)
            .number_u64("screened", self.screened)
            .number_u64("dropped", self.dropped)
            .number_u64("unobservable", self.unobservable)
            .number_u64("stem_memo_hits", self.stem_memo_hits)
            .number_u64("stem_memo_misses", self.stem_memo_misses)
            .number_u64("flip_events", self.flip_events)
            .number_u64("early_exits", self.early_exits)
            .number_u64("threads", self.threads as u64)
            .raw(
                "wall_good_ms",
                &format!("{:.3}", self.wall_good.as_secs_f64() * 1e3),
            )
            .raw(
                "wall_fault_ms",
                &format!("{:.3}", self.wall_fault.as_secs_f64() * 1e3),
            )
            .boolean("timed_out", self.timed_out);
        o.finish()
    }

    /// Journals this run's work as `fsim.*` counter records and the
    /// thread/universe gauges. Every public `_opts` grading entry point
    /// calls it once, on the stats it returns — a random, pattern-source
    /// or ATPG run journals its total, not one set per frame — so
    /// `GradeStats` stays the per-run record while the journal's views
    /// sum whole-run totals. No-op when the journal is off.
    pub fn trace_bridge(&self) {
        hlstb_trace::counter("fsim.fault_evals", self.fault_evals);
        hlstb_trace::counter("fsim.screened", self.screened);
        hlstb_trace::counter("fsim.dropped", self.dropped);
        hlstb_trace::counter("fsim.unobservable", self.unobservable);
        hlstb_trace::counter("fsim.stem_memo_hits", self.stem_memo_hits);
        hlstb_trace::counter("fsim.stem_memo_misses", self.stem_memo_misses);
        hlstb_trace::counter("fsim.flip_events", self.flip_events);
        hlstb_trace::counter("fsim.early_exits", self.early_exits);
        hlstb_trace::counter("fsim.frames", self.frames as u64);
        hlstb_trace::gauge("fsim.threads", self.threads as u64);
        hlstb_trace::gauge("fsim.faults", self.faults as u64);
    }
}

impl fmt::Display for GradeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults x {} frames: {} evals ({} screened, {} dropped, \
             {} unobservable) on {} thread(s) in {:.1} ms good + {:.1} ms fault",
            self.faults,
            self.frames,
            self.fault_evals,
            self.screened,
            self.dropped,
            self.unobservable,
            self.threads.max(1),
            self.wall_good.as_secs_f64() * 1e3,
            self.wall_fault.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_work_and_time() {
        let mut a = GradeStats {
            faults: 10,
            frames: 2,
            fault_evals: 5,
            screened: 1,
            dropped: 0,
            unobservable: 1,
            threads: 2,
            wall_good: Duration::from_millis(1),
            wall_fault: Duration::from_millis(2),
            timed_out: false,
            ..Default::default()
        };
        let b = GradeStats {
            faults: 10,
            frames: 3,
            fault_evals: 7,
            screened: 2,
            dropped: 4,
            unobservable: 0,
            threads: 1,
            wall_good: Duration::from_millis(3),
            wall_fault: Duration::from_millis(4),
            timed_out: true,
            stem_memo_hits: 6,
            stem_memo_misses: 2,
            flip_events: 40,
            early_exits: 1,
        };
        a.absorb(&b);
        assert_eq!(a.faults, 10);
        assert_eq!(a.frames, 5);
        assert_eq!(a.fault_evals, 12);
        assert_eq!(a.screened, 3);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.threads, 2);
        assert_eq!(a.wall(), Duration::from_millis(10));
        assert_eq!(a.stem_memo_hits, 6);
        assert_eq!(a.stem_memo_misses, 2);
        assert_eq!(a.flip_events, 40);
        assert_eq!(a.early_exits, 1);
        // A truncated sub-run marks the aggregate as truncated.
        assert!(a.timed_out);
    }

    #[test]
    fn json_has_every_field() {
        let s = GradeStats::default().to_json();
        for key in [
            "faults",
            "frames",
            "fault_evals",
            "screened",
            "dropped",
            "unobservable",
            "stem_memo_hits",
            "stem_memo_misses",
            "flip_events",
            "early_exits",
            "threads",
            "wall_good_ms",
            "wall_fault_ms",
            "timed_out",
        ] {
            assert!(s.contains(&format!("\"{key}\"")), "{key} missing: {s}");
        }
    }

    #[test]
    fn display_is_compact() {
        let s = GradeStats::default().to_string();
        assert!(s.contains("faults"));
        assert!(s.contains("thread"));
    }
}
