//! Every `SeqStatus::Detected` verdict of sequential ATPG must survive an
//! independent replay: `fsim::seq_replay_oracle` steps the original
//! netlist, not the time-frame expansion PODEM searched, with good and
//! faulty machines in 3-valued logic from an unknown non-scan state.
//! The verdicts come from E1's ring and chain circuits at E1's budget,
//! and from a sample of E20's scoreboard: 10 evenly spaced collapsed
//! faults of each configuration that has scan flops, at E20's budget on
//! the reset-controller designs. A replay that does not detect its
//! fault is a PODEM bug, not a reason to loosen this check.

use hlstb::netlist::fault::Fault;
use hlstb::netlist::fsim::seq_replay_oracle;
use hlstb::netlist::net::Netlist;
use hlstb::netlist::seq::{seq_podem, SeqAtpgOptions, SeqStatus};
use hlstb_bench::{atpg_complexity, scoreboard};

/// Generates a test for `fault` and, when PODEM claims a detection,
/// replays it. Returns whether PODEM claimed one.
fn replay_verdict(nl: &Netlist, fault: Fault, options: &SeqAtpgOptions) -> bool {
    let SeqStatus::Detected {
        sequence,
        scan_load,
        frames,
    } = seq_podem(nl, fault, options).0
    else {
        return false;
    };
    assert_eq!(sequence.len(), frames);
    assert!(
        seq_replay_oracle(nl, fault, &sequence, &scan_load),
        "{}: the {frames}-frame test for {fault} does not detect it on replay",
        nl.name()
    );
    true
}

#[test]
fn e1_detections_replay_on_the_original_circuits() {
    let mut detected = 0;
    for n in atpg_complexity::RING_LENGTHS {
        let (nl, fault) = atpg_complexity::ring_circuit(n);
        detected += usize::from(replay_verdict(&nl, fault, &atpg_complexity::OPTIONS));
    }
    for n in atpg_complexity::CHAIN_DEPTHS {
        let (nl, fault) = atpg_complexity::chain_circuit(n);
        detected += usize::from(replay_verdict(&nl, fault, &atpg_complexity::OPTIONS));
    }
    // E1 detects every one of its ten faults.
    assert_eq!(detected, 10);
}

#[test]
fn e20_sample_detections_replay_on_the_original_designs() {
    let mut configurations = 0;
    let mut detected = 0;
    for (_, d) in scoreboard::designs() {
        let nl = &d.expanded.netlist;
        if nl.scan_flops().is_empty() {
            continue;
        }
        configurations += 1;
        let options = scoreboard::atpg_options(d.report.period);
        for fault in scoreboard::sample_faults(nl, 10) {
            detected += usize::from(replay_verdict(nl, fault, &options));
        }
    }
    // figure1 full scan, tseng behavioral partial scan, tseng full scan.
    assert_eq!(configurations, 3);
    assert!(detected > 0, "the sample replays no detection at all");
}
