//! Property tests for the grading loops that the oracle differential
//! suite (`soa_equivalence.rs`) does not cover: sequential grading is
//! held to an independent no-drop reference built from forced replays,
//! and a random-pattern curve ends at the requested budget.

use std::collections::BTreeSet;

use hlstb_netlist::fault::{collapsed_faults, Fault};
use hlstb_netlist::fsim::{seq_fault_sim_opts, ParallelOptions};
use hlstb_netlist::net::{random_combinational, GateKind, Netlist, NetlistBuilder};
use hlstb_netlist::random::random_pattern_run_opts;
use hlstb_netlist::sim::{run_sequence, ForcedNet};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The faults whose forced replay differs from the good replay at a
/// primary output in some cycle. `run_sequence` pins a stuck flop's
/// sampled state as the grader does, and replays every cycle of every
/// fault: nothing is dropped.
fn replay_reference(nl: &Netlist, faults: &[Fault], vectors: &[Vec<u64>]) -> BTreeSet<Fault> {
    let good = run_sequence(nl, vectors, None, None);
    faults
        .iter()
        .filter(|f| {
            let forced = ForcedNet {
                net: f.net,
                value: f.stuck_at_one,
            };
            run_sequence(nl, vectors, None, Some(forced)) != good
        })
        .copied()
        .collect()
}

fn vectors_for(nl: &Netlist, cycles: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    (0..cycles)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect()
}

/// Sequential grading of `vectors` must detect exactly the replay
/// reference's faults, and its work ledger must cover every (fault,
/// cycle) pair: each is either evaluated or dropped after a detection.
fn check_against_replay(nl: &Netlist, vectors: &[Vec<u64>]) -> Result<(), TestCaseError> {
    let faults = collapsed_faults(nl);
    let (got, stats) = seq_fault_sim_opts(nl, &faults, vectors, &ParallelOptions::default());
    prop_assert_eq!(&got.detected, &replay_reference(nl, &faults, vectors));
    prop_assert_eq!(got.total, faults.len());
    prop_assert_eq!(
        stats.fault_evals + stats.dropped,
        (faults.len() * vectors.len()) as u64
    );
    Ok(())
}

/// Adder, inverter, mux and two flops. Output `o` reads the first flop,
/// so faults before it are seen one cycle later, through state, and a
/// stuck flop output pins that state.
fn flop_circuit() -> Netlist {
    let mut b = NetlistBuilder::new("mix");
    let a = b.inputs("a", 3);
    let c = b.inputs("b", 3);
    let (s, co) = b.ripple_add(&a, &c);
    let n = b.not(s[0]);
    let m = b.gate(GateKind::Mux, &[co, n, s[1]]);
    let q = b.register(&[m, s[2]], None, true);
    b.output("o", q[0]);
    b.output("p", m);
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn seq_grading_matches_the_replay_reference(
        seed in 0u64..10_000,
        inputs in 2usize..5,
        gates in 4usize..24,
        outputs in 1usize..3,
        cycles in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(inputs, gates, outputs, &mut rng);
        let vectors = vectors_for(&nl, cycles, &mut rng);
        check_against_replay(&nl, &vectors)?;
    }

    #[test]
    fn seq_grading_matches_the_replay_reference_through_flops(
        seed in 0u64..10_000,
        cycles in 1usize..6,
    ) {
        let nl = flop_circuit();
        let vectors = vectors_for(&nl, cycles, &mut StdRng::seed_from_u64(seed));
        check_against_replay(&nl, &vectors)?;
    }

    #[test]
    fn random_pattern_curve_ends_at_the_budget(
        seed in 0u64..10_000,
        inputs in 2usize..5,
        gates in 4usize..30,
        outputs in 1usize..3,
        max_patterns in 1usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_combinational(inputs, gates, outputs, &mut rng);
        let faults = collapsed_faults(&nl);
        let mut r = StdRng::seed_from_u64(seed ^ 0xABCD);
        let (got, _) =
            random_pattern_run_opts(&nl, &faults, max_patterns, &mut r, &ParallelOptions::default());
        // The curve never claims more patterns than were requested, and
        // a run that does not saturate ends exactly at the requested
        // count (clamped final batch).
        prop_assert!(got.curve.last().unwrap().patterns <= max_patterns.max(64));
        if got.summary.detected.len() < faults.len() {
            prop_assert_eq!(got.curve.last().unwrap().patterns, max_patterns);
        }
    }
}
