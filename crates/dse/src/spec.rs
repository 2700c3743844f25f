//! Sweep specification: the axes of a design-space exploration and the
//! name/parse vocabulary the CLI shares with it.

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::{DftStrategy, RegisterPolicy, Scheduler};

/// The survey's full DFT-strategy catalogue, in report order.
pub fn strategy_catalogue() -> Vec<DftStrategy> {
    vec![
        DftStrategy::None,
        DftStrategy::FullScan,
        DftStrategy::GateLevelPartialScan,
        DftStrategy::BehavioralPartialScan,
        DftStrategy::SimultaneousLoopAvoidance,
        DftStrategy::BistNaive,
        DftStrategy::BistShared,
        DftStrategy::KLevelTestPoints(1),
        DftStrategy::KLevelTestPoints(2),
        DftStrategy::KLevelTestPoints(3),
        DftStrategy::KLevelTestPoints(4),
    ]
}

/// Parses a strategy name (the CLI `--strategy` vocabulary).
pub fn parse_strategy(s: &str) -> Option<DftStrategy> {
    Some(match s {
        "none" => DftStrategy::None,
        "full-scan" => DftStrategy::FullScan,
        "gate-partial-scan" => DftStrategy::GateLevelPartialScan,
        "behavioral-partial-scan" => DftStrategy::BehavioralPartialScan,
        "loop-avoidance" => DftStrategy::SimultaneousLoopAvoidance,
        "bist-naive" => DftStrategy::BistNaive,
        "bist-shared" => DftStrategy::BistShared,
        _ => {
            let k = s.strip_prefix("k-level=")?;
            DftStrategy::KLevelTestPoints(k.parse().ok()?)
        }
    })
}

/// The parseable name of a strategy ([`parse_strategy`]'s inverse).
pub fn strategy_name(s: DftStrategy) -> String {
    match s {
        DftStrategy::None => "none".into(),
        DftStrategy::FullScan => "full-scan".into(),
        DftStrategy::GateLevelPartialScan => "gate-partial-scan".into(),
        DftStrategy::BehavioralPartialScan => "behavioral-partial-scan".into(),
        DftStrategy::SimultaneousLoopAvoidance => "loop-avoidance".into(),
        DftStrategy::BistNaive => "bist-naive".into(),
        DftStrategy::BistShared => "bist-shared".into(),
        DftStrategy::KLevelTestPoints(k) => format!("k-level={k}"),
    }
}

/// Parses a register-policy name (the CLI `--policy` vocabulary).
pub fn parse_policy(s: &str) -> Option<RegisterPolicy> {
    Some(match s {
        "left-edge" => RegisterPolicy::LeftEdge,
        "dsatur" => RegisterPolicy::Dsatur,
        "io-max" => RegisterPolicy::IoMax,
        "boundary" => RegisterPolicy::Boundary,
        "loop-avoiding" => RegisterPolicy::LoopAvoiding,
        "avra" => RegisterPolicy::Avra,
        _ => return None,
    })
}

/// The parseable name of a register policy.
pub fn policy_name(p: RegisterPolicy) -> &'static str {
    match p {
        RegisterPolicy::LeftEdge => "left-edge",
        RegisterPolicy::Dsatur => "dsatur",
        RegisterPolicy::IoMax => "io-max",
        RegisterPolicy::Boundary => "boundary",
        RegisterPolicy::LoopAvoiding => "loop-avoiding",
        RegisterPolicy::Avra => "avra",
    }
}

/// Parses a scheduler name (the CLI `--scheduler` vocabulary).
pub fn parse_scheduler(s: &str) -> Option<Scheduler> {
    Some(match s {
        "list" => Scheduler::List,
        "io-aware" => Scheduler::IoAware,
        "asap" => Scheduler::Asap,
        _ => {
            let extra = s.strip_prefix("force-directed=")?;
            Scheduler::ForceDirected(extra.parse().ok()?)
        }
    })
}

/// The parseable name of a scheduler.
pub fn scheduler_name(s: Scheduler) -> String {
    match s {
        Scheduler::List => "list".into(),
        Scheduler::IoAware => "io-aware".into(),
        Scheduler::Asap => "asap".into(),
        Scheduler::ForceDirected(extra) => format!("force-directed={extra}"),
    }
}

/// One synthesis point of a sweep: a full flow configuration plus the
/// pseudorandom grading budget (0 = no grading).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Position in [`SweepSpec::points`] order — the report slot.
    pub index: usize,
    /// Index into [`SweepSpec::designs`].
    pub design: usize,
    /// Scheduler axis value.
    pub scheduler: Scheduler,
    /// Register-policy axis value.
    pub policy: RegisterPolicy,
    /// DFT-strategy axis value.
    pub strategy: DftStrategy,
    /// Data-path width in bits.
    pub width: u32,
    /// Pseudorandom patterns to grade with; 0 skips grading.
    pub patterns: usize,
}

/// The axes of a sweep. [`points`](Self::points) enumerates the full
/// cross product in a fixed, documented order (design-major, patterns
/// innermost), which is the order every [`crate::report::SweepReport`]
/// is emitted in — the foundation of the parallel/serial bit-identity
/// guarantee.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The behaviors to synthesize.
    pub designs: Vec<Cdfg>,
    /// Scheduler axis.
    pub schedulers: Vec<Scheduler>,
    /// Register-policy axis.
    pub policies: Vec<RegisterPolicy>,
    /// DFT-strategy axis.
    pub strategies: Vec<DftStrategy>,
    /// Width axis, in bits.
    pub widths: Vec<u32>,
    /// Grading-budget axis, in pseudorandom patterns (0 = ungraded).
    pub patterns: Vec<usize>,
    /// Expand every point's controller with a synchronous reset (needed
    /// for non-scan sequential ATPG on the results). Not an axis.
    pub reset_controller: bool,
}

impl SweepSpec {
    /// A spec over the given designs with the survey's full strategy
    /// catalogue and single default values on every other axis.
    pub fn new(designs: Vec<Cdfg>) -> Self {
        SweepSpec {
            designs,
            schedulers: vec![Scheduler::List],
            policies: vec![RegisterPolicy::LeftEdge],
            strategies: strategy_catalogue(),
            widths: vec![4],
            patterns: vec![0],
            reset_controller: false,
        }
    }

    /// [`Self::new`] over all benchmark designs.
    pub fn all_benchmarks() -> Self {
        SweepSpec::new(benchmarks::all())
    }

    /// The full cross product, design-major with patterns innermost:
    /// `design → scheduler → policy → strategy → width → patterns`.
    /// Consecutive indices therefore share as many stage artifacts as
    /// possible — every grading budget of a netlist is adjacent, every
    /// strategy of a front end is close.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        for design in 0..self.designs.len() {
            for &scheduler in &self.schedulers {
                for &policy in &self.policies {
                    for &strategy in &self.strategies {
                        for &width in &self.widths {
                            for &patterns in &self.patterns {
                                out.push(Point {
                                    index: out.len(),
                                    design,
                                    scheduler,
                                    policy,
                                    strategy,
                                    width,
                                    patterns,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The deepest grading budget of any point — the depth a cached
    /// grading run is computed at whenever that run serves the point's
    /// own budget (see `cache::depth_serves`).
    pub fn max_patterns(&self) -> usize {
        self.patterns.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in strategy_catalogue() {
            assert_eq!(parse_strategy(&strategy_name(s)), Some(s));
        }
        for p in [
            RegisterPolicy::LeftEdge,
            RegisterPolicy::Dsatur,
            RegisterPolicy::IoMax,
            RegisterPolicy::Boundary,
            RegisterPolicy::LoopAvoiding,
            RegisterPolicy::Avra,
        ] {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        for s in [
            Scheduler::List,
            Scheduler::IoAware,
            Scheduler::Asap,
            Scheduler::ForceDirected(2),
        ] {
            assert_eq!(parse_scheduler(&scheduler_name(s)), Some(s));
        }
        assert_eq!(parse_strategy("bogus"), None);
        assert_eq!(parse_policy("bogus"), None);
        assert_eq!(parse_scheduler("bogus"), None);
    }

    #[test]
    fn points_enumerate_the_cross_product_in_order() {
        let mut spec = SweepSpec::all_benchmarks();
        spec.widths = vec![4, 8];
        spec.patterns = vec![0, 128];
        let pts = spec.points();
        assert_eq!(
            pts.len(),
            spec.designs.len() * spec.strategies.len() * 2 * 2
        );
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Design-major: the first block is all design 0.
        let per_design = spec.strategies.len() * 2 * 2;
        assert!(pts[..per_design].iter().all(|p| p.design == 0));
        assert_eq!(pts[per_design].design, 1);
        // Patterns innermost: consecutive points differ only in budget.
        assert_eq!(pts[0].patterns, 0);
        assert_eq!(pts[1].patterns, 128);
        assert_eq!(pts[0].strategy, pts[1].strategy);
        assert_eq!(spec.max_patterns(), 128);
    }
}
