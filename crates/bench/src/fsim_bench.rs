//! E21 — the fault-grading engine itself: the SoA engine at 64- and
//! 512-pattern words timed against the naive oracle on the nine-design
//! random-pattern sweep (the same substrate as E13's coverage curves).
//!
//! Every configuration grades the *same* fault universe against the
//! *same* pseudorandom frames, so the detected sets must be
//! bit-identical; the sweep asserts that. What varies is only the work:
//! the naive oracle runs one full faulty-machine evaluation per fault
//! and frame, while the engine screens unexcited and unobservable
//! faults, drops a fault the moment it is detected, and grades each
//! fault through its fanout-free region and a memoized stem flip.

use std::time::Duration;

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::fsim::{
    comb_fault_sim_opts, comb_fault_sim_oracle, scan_observed, FaultSimSummary, ParallelOptions,
    TestFrame,
};
use hlstb::netlist::net::Netlist;
use hlstb::netlist::stats::GradeStats;
use hlstb::netlist::word::WordWidth;
use hlstb_cdfg::Cdfg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Table;

/// How one configuration grades.
#[derive(Debug, Clone, Copy)]
pub enum Grader {
    /// The naive oracle ([`comb_fault_sim_oracle`]).
    Oracle,
    /// The SoA engine ([`comb_fault_sim_opts`]) under these options.
    Engine(ParallelOptions),
}

impl Grader {
    fn grade(
        &self,
        nl: &Netlist,
        faults: &[Fault],
        frames: &[TestFrame],
    ) -> (FaultSimSummary, GradeStats) {
        match self {
            Grader::Oracle => comb_fault_sim_oracle(nl, faults, frames, &scan_observed(nl)),
            Grader::Engine(opts) => comb_fault_sim_opts(nl, faults, frames, opts),
        }
    }
}

/// The configurations the sweep compares, in report order. The first
/// is the baseline every speedup is quoted against.
pub fn configs() -> Vec<(&'static str, Grader)> {
    // The serial engine at the production width (one 64-pattern word
    // per frame) and at its widest word. Same universe, same frames,
    // same detected set — the sweep's assertion below is the committed
    // differential check against the oracle.
    let soa = |width| Grader::Engine(ParallelOptions::with_width(width));
    vec![
        ("naive", Grader::Oracle),
        ("soa", soa(WordWidth::W64)),
        ("soa-512", soa(WordWidth::W512)),
    ]
}

/// One engine configuration timed on one design.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Design name.
    pub design: String,
    /// Configuration name (see [`configs`]).
    pub config: &'static str,
    /// Final stuck-at coverage — identical across configurations.
    pub coverage_percent: f64,
    /// The engine's work and timing counters.
    pub stats: GradeStats,
}

/// Result of [`sweep`]: every configuration on every design.
#[derive(Debug, Clone)]
pub struct FsimSweep {
    /// Patterns graded per design (rounded up to whole 64-bit words).
    pub patterns: usize,
    /// One entry per (design, configuration) pair, design-major.
    pub runs: Vec<EngineRun>,
}

/// Grades the full nine-design suite. `patterns` is rounded up to a
/// whole number of 64-pattern words.
pub fn sweep(patterns: usize) -> FsimSweep {
    sweep_designs(&benchmarks::all(), patterns)
}

/// [`sweep`] over a caller-chosen design list (tests use a subset).
pub fn sweep_designs(designs: &[Cdfg], patterns: usize) -> FsimSweep {
    let mut runs = Vec::new();
    for (di, g) in designs.iter().enumerate() {
        let d = SynthesisFlow::new(g.clone())
            .strategy(DftStrategy::FullScan)
            .run()
            .expect("benchmark designs synthesize");
        let nl = &d.expanded.netlist;
        let faults = collapsed_faults(nl);
        // Same frames for every configuration: the comparison times the
        // engine, not the pattern source.
        let mut rng = StdRng::seed_from_u64(0xFA57_1996 + di as u64);
        let frames: Vec<TestFrame> = (0..patterns.div_ceil(64).max(1))
            .map(|_| {
                TestFrame::new(
                    (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
                    (0..nl.dffs().len()).map(|_| rng.gen()).collect(),
                )
            })
            .collect();
        let mut baseline = None;
        for (name, grader) in configs() {
            let (summary, stats) = grader.grade(nl, &faults, &frames);
            let detected = summary.detected.clone();
            let cov = summary.coverage_percent();
            match &baseline {
                None => baseline = Some(detected),
                Some(b) => assert_eq!(
                    b,
                    &detected,
                    "engine config {name} changed the result on {}",
                    g.name()
                ),
            }
            runs.push(EngineRun {
                design: g.name().to_string(),
                config: name,
                coverage_percent: cov,
                stats,
            });
        }
    }
    FsimSweep { patterns, runs }
}

impl FsimSweep {
    /// Fault-phase wall time summed over all designs for one
    /// configuration.
    pub fn total_wall(&self, config: &str) -> Duration {
        self.runs
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.stats.wall_fault)
            .sum()
    }

    /// Whole-sweep fault-phase speedup of `config` over the naive
    /// oracle.
    pub fn speedup(&self, config: &str) -> f64 {
        let base = self.total_wall("naive").as_secs_f64();
        let ours = self.total_wall(config).as_secs_f64();
        if ours > 0.0 {
            base / ours
        } else {
            f64::INFINITY
        }
    }

    /// One row per design: coverage plus the fault-phase wall time of
    /// each configuration and the dropped/evaluated work split.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E21  Grading engine: the SoA event engine vs the naive oracle",
            &[
                "design",
                "faults",
                "cov %",
                "naive ms",
                "soa ms",
                "soa-512 ms",
                "evals saved %",
            ],
        );
        let designs: Vec<&str> = {
            let mut seen = Vec::new();
            for r in &self.runs {
                if !seen.contains(&r.design.as_str()) {
                    seen.push(r.design.as_str());
                }
            }
            seen
        };
        for design in designs {
            let of = |config: &str| {
                self.runs
                    .iter()
                    .find(|r| r.design == design && r.config == config)
                    .expect("every design ran every config")
            };
            let naive = of("naive");
            let soa = of("soa");
            let ms = |r: &EngineRun| format!("{:.2}", r.stats.wall_fault.as_secs_f64() * 1e3);
            let saved = 100.0
                * (1.0 - soa.stats.fault_evals as f64 / naive.stats.fault_evals.max(1) as f64);
            t.row(vec![
                design.to_string(),
                naive.stats.faults.to_string(),
                format!("{:.1}", naive.coverage_percent),
                ms(naive),
                ms(soa),
                ms(of("soa-512")),
                format!("{saved:.1}"),
            ]);
        }
        t
    }

    /// The whole sweep as a JSON document (`BENCH_fsim.json`), built on
    /// the shared [`hlstb::trace::json`] writers. Each run carries an
    /// explicit `phase_ms` object so perf tracking can diff the
    /// good-machine and faulty-machine phases directly.
    pub fn to_json(&self) -> String {
        use hlstb::trace::json::Obj;
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"fsim_engine\",\n");
        out.push_str(&format!("  \"patterns\": {},\n", self.patterns));
        out.push_str(&format!(
            "  \"speedup_soa_vs_naive\": {:.3},\n",
            self.speedup("soa")
        ));
        out.push_str(&format!(
            "  \"speedup_soa512_vs_naive\": {:.3},\n",
            self.speedup("soa-512")
        ));
        // The committed perf gate: `hlstb perf-diff --floor` fails CI
        // when a headline above drops below its floor. Raise the floor
        // deliberately when the engine changes speed class.
        out.push_str("  \"floors\": {\"speedup_soa512_vs_naive\": 52.0},\n");
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let mut phases = Obj::new();
            phases
                .raw("good", &ms(r.stats.wall_good))
                .raw("fault", &ms(r.stats.wall_fault))
                .raw("total", &ms(r.stats.wall()));
            let mut o = Obj::new();
            o.string("design", &r.design)
                .string("config", r.config)
                .raw("coverage_percent", &format!("{:.3}", r.coverage_percent))
                .raw("phase_ms", &phases.finish())
                .raw("stats", &r.stats.to_json());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_consistent_and_dropping_saves_work() {
        let designs = vec![benchmarks::figure1(), benchmarks::tseng()];
        let s = sweep_designs(&designs, 256);
        assert_eq!(s.runs.len(), designs.len() * configs().len());
        for d in ["figure1", "tseng"] {
            let covs: Vec<f64> = s
                .runs
                .iter()
                .filter(|r| r.design == d)
                .map(|r| r.coverage_percent)
                .collect();
            assert!(covs.windows(2).all(|w| w[0] == w[1]), "{d}: {covs:?}");
            let naive = s
                .runs
                .iter()
                .find(|r| r.design == d && r.config == "naive")
                .unwrap();
            let soa = s
                .runs
                .iter()
                .find(|r| r.design == d && r.config == "soa")
                .unwrap();
            assert_eq!(naive.stats.dropped, 0, "{d}");
            assert!(soa.stats.dropped > 0, "{d}");
            assert!(soa.stats.fault_evals < naive.stats.fault_evals, "{d}");
        }
    }

    #[test]
    fn json_names_every_config() {
        let s = sweep_designs(&[benchmarks::figure1()], 64);
        let j = s.to_json();
        for (name, _) in configs() {
            assert!(j.contains(&format!("\"config\": \"{name}\"")), "{j}");
        }
        assert!(j.contains("\"speedup_soa512_vs_naive\""));
    }

    #[test]
    fn json_parses_and_carries_phase_ms() {
        let s = sweep_designs(&[benchmarks::figure1()], 64);
        let v = hlstb::trace::json::parse(&s.to_json()).expect("sweep JSON parses");
        let runs = v.get("runs").and_then(|r| r.as_array()).expect("runs");
        assert_eq!(runs.len(), configs().len());
        for r in runs {
            let p = r.get("phase_ms").expect("phase_ms present");
            for key in ["good", "fault", "total"] {
                assert!(p.get(key).and_then(|x| x.as_f64()).is_some(), "{key}");
            }
        }
    }
}
