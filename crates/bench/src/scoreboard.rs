//! E20 — the survey's bottom line as one scoreboard: sequential-ATPG
//! coverage and effort for the same behavior under each DFT strategy.
//!
//! Each configuration is one [`SynthesisFlow`] run; sequential ATPG is
//! the post-processing pass over its netlist.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow, SynthesizedDesign};
use hlstb::netlist::fault::{collapsed_faults, Fault};
use hlstb::netlist::net::Netlist;
use hlstb::netlist::seq::{seq_generate_all, SeqAtpgOptions};
use hlstb_dse::spec::strategy_name;

use crate::Table;

/// The E20 configurations: two behaviors under no DFT, behavioral
/// partial scan, and full scan, with reset-capable controllers so the
/// non-scan configurations are sequentially testable at all.
pub fn designs() -> Vec<(DftStrategy, SynthesizedDesign)> {
    let strategies = [
        DftStrategy::None,
        DftStrategy::BehavioralPartialScan,
        DftStrategy::FullScan,
    ];
    [benchmarks::figure1(), benchmarks::tseng()]
        .into_iter()
        .flat_map(|cdfg| {
            strategies.map(|strategy| {
                let flow = SynthesisFlow::new(cdfg.clone())
                    .strategy(strategy)
                    .reset_controller(true);
                let design = flow.run().expect("every E20 configuration synthesizes");
                (strategy, design)
            })
        })
        .collect()
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
    for (strategy, d) in designs() {
        let nl = &d.expanded.netlist;
        let faults = sample_faults(nl, sample);
        let run = seq_generate_all(nl, &faults, &atpg_options(d.report.period));
        t.row(vec![
            d.cdfg.name().to_string(),
            strategy_name(strategy),
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
