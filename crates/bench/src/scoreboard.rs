//! E20 — the survey's bottom line as one scoreboard: sequential-ATPG
//! coverage and effort for the same behavior under each DFT strategy.
//!
//! Synthesis runs through the DSE engine ([`hlstb_dse::run_sweep`]
//! with `keep_designs`), so the three strategies of a design share
//! their scheduled/bound front end; sequential ATPG is the
//! post-processing pass over the kept designs.

use hlstb::cdfg::benchmarks;
use hlstb::flow::DftStrategy;
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::net::Netlist;
use hlstb::netlist::seq::{seq_generate_all, SeqAtpgOptions};
use hlstb_dse::{run_sweep, SweepOptions, SweepSpec};

use crate::Table;

/// The E20 sweep: two behaviors under no DFT, behavioral partial scan,
/// and full scan, with reset-capable controllers so the non-scan
/// configurations are sequentially testable at all.
pub fn spec() -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
    spec.strategies = vec![
        DftStrategy::None,
        DftStrategy::BehavioralPartialScan,
        DftStrategy::FullScan,
    ];
    spec.reset_controller = true;
    spec
}

/// E20's sequential-ATPG budget for a design of the given period: two
/// frames past one iteration.
pub fn atpg_options(period: u32) -> SeqAtpgOptions {
    SeqAtpgOptions {
        max_frames: period as usize + 2,
        backtrack_limit: 1_500,
    }
}

/// At most `sample` collapsed faults of `nl`, evenly spaced through the
/// collapsed list so the sample covers the whole structure.
pub fn sample_faults(nl: &Netlist, sample: usize) -> Vec<Fault> {
    let all = collapsed_faults(nl);
    let step = (all.len() / sample).max(1);
    all.iter().step_by(step).copied().take(sample).collect()
}

/// Runs sequential ATPG on a fault sample of `sample` faults per design
/// ([`sample_faults`]) for each strategy.
pub fn run(sample: usize) -> Table {
    let mut t = Table::new(
        "E20  DFT scoreboard: sequential ATPG per strategy (sampled faults)",
        &[
            "design",
            "strategy",
            "scan regs",
            "coverage %",
            "decisions/fault",
        ],
    );
    let outcome = run_sweep(
        &spec(),
        &SweepOptions {
            keep_designs: true,
            ..SweepOptions::default()
        },
    );
    for (point, design) in outcome.report.points.iter().zip(&outcome.designs) {
        let d = design.as_ref().expect("scoreboard sweep point failed");
        let nl = &d.expanded.netlist;
        let faults = sample_faults(nl, sample);
        let run = seq_generate_all(nl, &faults, &atpg_options(d.report.period));
        t.row(vec![
            point.design.clone(),
            point.strategy.clone(),
            d.report.scan_registers.to_string(),
            format!("{:.1}", run.coverage_percent()),
            format!(
                "{:.1}",
                run.effort.decisions as f64 / faults.len().max(1) as f64
            ),
        ]);
    }
    t
}
