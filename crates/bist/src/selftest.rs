//! Executable BIST: grade a [`BistPlan`] at the gate level —
//! pattern-generating registers drive pseudorandom values, only the
//! plan's compacting registers (and primary outputs) observe.
//!
//! This is what turns the §5 register-role optimizations from area
//! accounting into a measurable trade: the E17 experiment shows the
//! exact-condition shared plan keeps the naive plan's coverage at a
//! fraction of its register overhead.

use hlstb_hls::datapath::Datapath;
use hlstb_hls::expand::ExpandedDatapath;
use hlstb_netlist::fault::collapsed_faults;
use hlstb_netlist::fsim::{seq_fault_sim_observed_opts, ParallelOptions};
use hlstb_netlist::net::NetId;
use hlstb_netlist::stats::GradeStats;
use rand::Rng;

use crate::registers::BistPlan;

/// Grades the data-path faults of an expanded design under a BIST plan,
/// multi-cycle: pattern-generating registers (TPGR/BILBO/CBILBO) start
/// each session from pseudorandom states and the machine free-runs for
/// two controller periods with per-cycle pseudorandom primary inputs
/// (they are fed by input TPGRs in the published schemes); detection is
/// counted at compacting registers' data inputs plus the primary
/// outputs every cycle — effects landing in plain registers get their
/// chance to propagate into a signature register on later cycles.
/// Controller-decode faults are excluded so plans over the same data
/// path compare on the same denominator.
pub fn bist_coverage<R: Rng>(
    exp: &ExpandedDatapath,
    dp: &Datapath,
    plan: &BistPlan,
    batches: usize,
    rng: &mut R,
) -> f64 {
    bist_coverage_opts(exp, dp, plan, batches, rng, &ParallelOptions::default()).0
}

/// [`bist_coverage`] with grading-engine options and the aggregated run
/// instrumentation of every batch.
pub fn bist_coverage_opts<R: Rng>(
    exp: &ExpandedDatapath,
    dp: &Datapath,
    plan: &BistPlan,
    batches: usize,
    rng: &mut R,
    opts: &ParallelOptions,
) -> (f64, GradeStats) {
    let nl = &exp.netlist;
    let (cs, ce) = exp.controller_nets;
    let faults: Vec<_> = collapsed_faults(nl)
        .into_iter()
        .filter(|f| f.net.0 < cs || f.net.0 >= ce)
        .collect();
    // Observation: compacting registers' flop data inputs + POs.
    let dffs = nl.dffs();
    let pos_of = |net: NetId| dffs.iter().position(|g| g.net() == net).expect("flop");
    let mut observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
    for (r, kind) in plan.kind_of.iter().enumerate() {
        if kind.compacts() {
            for &ffnet in &exp.reg_flops[r] {
                let d = nl.gate(dffs[pos_of(ffnet)]).inputs[0];
                observed.push(d);
            }
        }
    }
    // Generating registers' flop positions.
    let mut gen_pos = Vec::new();
    for (r, kind) in plan.kind_of.iter().enumerate() {
        if kind.generates() {
            for &ffnet in &exp.reg_flops[r] {
                gen_pos.push(pos_of(ffnet));
            }
        }
    }
    let state_pos: Vec<usize> = exp.state_flops.iter().map(|&ffnet| pos_of(ffnet)).collect();

    let cycles = (2 * dp.period()).max(4) as usize;
    let mut detected = std::collections::BTreeSet::new();
    let total = faults.len();
    let mut remaining = faults;
    let mut stats = GradeStats::default();
    for _ in 0..batches {
        if remaining.is_empty() {
            break;
        }
        let mut ff = vec![0u64; dffs.len()];
        for &p in &gen_pos {
            ff[p] = rng.gen();
        }
        for lane in 0..64u32 {
            let step = rng.gen_range(0..dp.period()) as u64;
            for (b, &p) in state_pos.iter().enumerate() {
                if step >> b & 1 == 1 {
                    ff[p] |= 1 << lane;
                } else {
                    ff[p] &= !(1 << lane);
                }
            }
        }
        let vectors: Vec<Vec<u64>> = (0..cycles)
            .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let (r, s) = seq_fault_sim_observed_opts(nl, &remaining, &vectors, &ff, &observed, opts);
        stats.absorb(&s);
        for f in r.detected {
            detected.insert(f);
        }
        remaining.retain(|f| !detected.contains(f));
    }
    stats.faults = total;
    let coverage = if total == 0 {
        100.0
    } else {
        100.0 * detected.len() as f64 / total as f64
    };
    (coverage, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::naive_plan;
    use crate::share::shared_plan;
    use hlstb_cdfg::benchmarks;
    use hlstb_hls::bind::{self, BindOptions};
    use hlstb_hls::expand::{expand, ExpandOptions};
    use hlstb_hls::fu::ResourceLimits;
    use hlstb_hls::sched::{self, ListPriority};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(g: &hlstb_cdfg::Cdfg) -> (Datapath, ExpandedDatapath) {
        let lim = ResourceLimits::minimal_for(g);
        let s = sched::list_schedule(g, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(g, &s, &BindOptions::default()).unwrap();
        let dp = Datapath::build(g, &s, &b).unwrap();
        let exp = expand(
            &dp,
            &ExpandOptions {
                width: 4,
                ..Default::default()
            },
        )
        .unwrap();
        (dp, exp)
    }

    #[test]
    fn bist_reaches_useful_coverage() {
        let (dp, exp) = build(&benchmarks::tseng());
        let plan = naive_plan(&dp);
        let cov = bist_coverage(&exp, &dp, &plan, 8, &mut StdRng::seed_from_u64(3));
        assert!(cov > 60.0, "{cov}");
    }

    #[test]
    fn shared_plan_keeps_naive_coverage() {
        let (dp, exp) = build(&benchmarks::figure1());
        let naive = naive_plan(&dp);
        let shared = shared_plan(&dp);
        let c_naive = bist_coverage(&exp, &dp, &naive, 8, &mut StdRng::seed_from_u64(5));
        let c_shared = bist_coverage(&exp, &dp, &shared, 8, &mut StdRng::seed_from_u64(5));
        assert!(
            c_shared + 5.0 >= c_naive,
            "shared {c_shared:.1} vs naive {c_naive:.1}"
        );
    }

    #[test]
    fn no_observation_means_no_coverage() {
        let (dp, exp) = build(&benchmarks::fir(3));
        // All-normal plan: nothing generates, nothing compacts beyond POs.
        let plan = crate::registers::BistPlan::normal(&dp);
        let cov = bist_coverage(&exp, &dp, &plan, 4, &mut StdRng::seed_from_u64(9));
        // Still some coverage through the primary outputs, but clearly
        // below a real plan's.
        let real = naive_plan(&dp);
        let cov_real = bist_coverage(&exp, &dp, &real, 4, &mut StdRng::seed_from_u64(9));
        assert!(cov_real >= cov, "{cov_real} vs {cov}");
    }
}
