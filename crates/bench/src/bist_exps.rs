//! E9–E13 — the §5 BIST experiments.

use hlstb::bist::arith;
use hlstb::bist::registers::naive_plan;
use hlstb::bist::selfadj;
use hlstb::bist::sessions;
use hlstb::bist::share;
use hlstb::bist::tfb;
use hlstb::cdfg::benchmarks;
use hlstb::hls::bind::{self, Binding, RegAlgo};
use hlstb::hls::datapath::Datapath;
use hlstb::hls::estimate::RegisterCosts;
use hlstb::hls::fu::ResourceLimits;
use hlstb::hls::sched::{self, ListPriority};
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::random::pattern_source_run;
use hlstb_cdfg::{Cdfg, OpKind, Schedule};

use crate::Table;

fn sched_for(g: &Cdfg) -> Schedule {
    let lim = ResourceLimits::minimal_for(g);
    sched::list_schedule(g, &lim, ListPriority::Slack).unwrap()
}

fn dp_with(g: &Cdfg, s: &Schedule, regs: hlstb::hls::bind::RegisterAssignment) -> Datapath {
    let (fu_of, fus) = bind::bind_fus(g, s);
    let b = Binding::from_parts(g, s, fu_of, fus, regs).unwrap();
    Datapath::build(g, s, &b).unwrap()
}

/// E9 — self-adjacent-register minimization vs conventional assignment.
pub fn selfadj_table() -> Table {
    let mut t = Table::new(
        "E9  Self-adjacent registers (Avra ITC'91) vs conventional assignment",
        &[
            "design",
            "conv regs",
            "conv self-adj",
            "avra regs",
            "avra self-adj",
        ],
    );
    for g in benchmarks::all() {
        let s = sched_for(&g);
        let (fu_of, _) = bind::bind_fus(&g, &s);
        let conv = bind::assign_registers(&g, &s, RegAlgo::Dsatur);
        let avra = selfadj::avra_assignment(&g, &s, &fu_of);
        let dpc = dp_with(&g, &s, conv);
        let dpa = dp_with(&g, &s, avra);
        t.row(vec![
            g.name().to_string(),
            dpc.registers().len().to_string(),
            selfadj::self_adjacent_registers(&dpc).len().to_string(),
            dpa.registers().len().to_string(),
            selfadj::self_adjacent_registers(&dpa).len().to_string(),
        ]);
    }
    t
}

/// E10 — TFB vs XTFB mapping.
pub fn tfb_table() -> Table {
    let costs = RegisterCosts::default();
    let mut t = Table::new(
        "E10  TFB (DAC'91) vs XTFB (ICCAD'93) self-testable data paths",
        &[
            "design",
            "TFBs",
            "XTFBs",
            "XTFB regs",
            "XTFB CBILBOs",
            "XTFB reg area (GE)",
        ],
    );
    for g in benchmarks::all() {
        let s = sched_for(&g);
        let tfbs = tfb::map_tfbs(&g, &s);
        let xtfbs = tfb::map_xtfbs(&g, &s);
        t.row(vec![
            g.name().to_string(),
            tfbs.block_count().to_string(),
            xtfbs.block_count().to_string(),
            xtfbs.register_count().to_string(),
            xtfbs.cbilbo_count().to_string(),
            format!("{:.0}", xtfbs.register_area(8, &costs)),
        ]);
    }
    t
}

/// E11 — TPGR/SR sharing with exact CBILBO conditions vs the naive plan.
pub fn share_table() -> Table {
    let costs = RegisterCosts::default();
    let mut t = Table::new(
        "E11  TPGR/SR sharing (Parulkar/Gupta/Breuer DAC'95) vs naive BIST",
        &[
            "design",
            "naive CBILBOs",
            "shared CBILBOs",
            "naive ovh %",
            "shared ovh %",
        ],
    );
    for g in benchmarks::all() {
        let s = sched_for(&g);
        let d = dp_with(&g, &s, bind::assign_registers(&g, &s, RegAlgo::LeftEdge));
        let cmp = share::compare(&d, 8, &costs);
        t.row(vec![
            g.name().to_string(),
            cmp.naive_cbilbos.to_string(),
            cmp.shared_cbilbos.to_string(),
            format!("{:.1}", cmp.naive_overhead),
            format!("{:.1}", cmp.shared_overhead),
        ]);
    }
    t
}

/// E12 — test-session counts under conventional vs Avra (conflict-aware)
/// register assignment.
pub fn sessions_table() -> Table {
    let mut t = Table::new(
        "E12  Test sessions (Harris & Orailoglu DAC'94)",
        &[
            "design",
            "modules",
            "strict (left-edge)",
            "strict (avra)",
            "pipelined",
        ],
    );
    for g in benchmarks::all() {
        let s = sched_for(&g);
        let (fu_of, _) = bind::bind_fus(&g, &s);
        let d1 = dp_with(&g, &s, bind::assign_registers(&g, &s, RegAlgo::LeftEdge));
        let d2 = dp_with(&g, &s, selfadj::avra_assignment(&g, &s, &fu_of));
        t.row(vec![
            g.name().to_string(),
            d1.fus().len().to_string(),
            sessions::session_count(&d1).to_string(),
            sessions::session_count(&d2).to_string(),
            sessions::session_count_relaxed(&d1).to_string(),
        ]);
    }
    t
}

/// E13 — arithmetic BIST: subspace-coverage-guided vs oblivious binding,
/// and accumulator patterns grading a real multiplier block.
pub fn arith_table() -> Table {
    let mut t = Table::new(
        "E13  Arithmetic BIST (Mukherjee et al. VTS'95): subspace state coverage",
        &[
            "design",
            "plain binding cov",
            "guided binding cov",
            "acc pat 90% mul",
            "uniform 90% mul",
        ],
    );
    for g in [benchmarks::ewf(), benchmarks::diffeq()] {
        let s = sched_for(&g);
        let streams = arith::operand_streams(&g, 8, 64);
        let (_, plain) = bind::bind_fus(&g, &s);
        let (_, guided) = arith::coverage_guided_binding(&g, &s, 8, 64, 4);
        let cp = arith::binding_coverage(&plain, &streams, 8, 4);
        let cg = arith::binding_coverage(&guided, &streams, 8, 4);
        let (acc90, uni90) = mul_pattern_comparison();
        t.row(vec![
            g.name().to_string(),
            format!("{cp:.3}"),
            format!("{cg:.3}"),
            acc90,
            uni90,
        ]);
    }
    t
}

/// Patterns needed to reach 90 % coverage on a 4-bit multiplier:
/// accumulator-generated vs a low-entropy counting source.
fn mul_pattern_comparison() -> (String, String) {
    let nl = hlstb_testgen::hier::module_netlist(OpKind::Mul, 4);
    let faults = collapsed_faults(&nl);
    let bits8 = |a: u64, b: u64| -> Vec<bool> {
        (0..4)
            .map(|k| a >> k & 1 == 1)
            .chain((0..4).map(|k| b >> k & 1 == 1))
            .collect()
    };
    let acc_a = arith::accumulator_patterns(1, 7, 4096, 4);
    let acc_b = arith::accumulator_patterns(3, 5, 4096, 4);
    let acc = pattern_source_run(&nl, &faults, 4096, |i| {
        (bits8(acc_a[i], acc_b[i]), Vec::new())
    });
    // Low-entropy comparator: a slow binary counter on one operand only.
    let uni = pattern_source_run(&nl, &faults, 4096, |i| {
        (bits8((i as u64) & 0xf, 0x3), Vec::new())
    });
    let fmt = |r: &hlstb::netlist::random::RandomRun| {
        r.patterns_to_reach(90.0)
            .map(|p| p.to_string())
            .unwrap_or_else(|| ">4096".into())
    };
    (fmt(&acc), fmt(&uni))
}

/// E17 — executable BIST: plan coverage at the gate level. The shared
/// plan must keep the naive plan's coverage at a fraction of its cost.
pub fn bist_coverage_table() -> Table {
    use hlstb::bist::selftest::bist_coverage_opts;
    use hlstb::bist::share::shared_plan;
    use hlstb::flow::SynthesisFlow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let costs = RegisterCosts::default();
    let mut t = Table::new(
        "E17  Executable BIST: naive vs shared plan, gate-level coverage",
        &[
            "design",
            "naive cov %",
            "shared cov %",
            "naive ovh %",
            "shared ovh %",
            "dropped",
        ],
    );
    for g in [
        benchmarks::figure1(),
        benchmarks::tseng(),
        benchmarks::diffeq(),
    ] {
        let d = SynthesisFlow::new(g.clone()).run().unwrap();
        let naive = naive_plan(&d.datapath);
        let shared = shared_plan(&d.datapath);
        let (cn, sn) = bist_coverage_opts(
            &d.expanded,
            &d.datapath,
            &naive,
            10,
            &mut StdRng::seed_from_u64(21),
        );
        let (cs, ss) = bist_coverage_opts(
            &d.expanded,
            &d.datapath,
            &shared,
            10,
            &mut StdRng::seed_from_u64(21),
        );
        t.row(vec![
            g.name().to_string(),
            format!("{cn:.1}"),
            format!("{cs:.1}"),
            format!("{:.1}", naive.overhead_percent(4, &costs)),
            format!("{:.1}", shared.overhead_percent(4, &costs)),
            (sn.dropped + ss.dropped).to_string(),
        ]);
    }
    t
}
