//! E1 — §3.1: sequential ATPG effort grows exponentially with S-graph
//! cycle length and linearly with sequential depth.

use hlstb::netlist::fault::Fault;
use hlstb::netlist::net::{GateKind, NetId, Netlist, NetlistBuilder};
use hlstb::netlist::seq::{seq_podem, SeqAtpgOptions, SeqStatus};

use crate::Table;

/// A register ring of length `n` with an XOR injection point and an
/// observation output: the canonical "one cycle of length n" circuit.
pub fn ring_circuit(n: usize) -> (Netlist, Fault) {
    let mut b = NetlistBuilder::new(format!("ring{n}"));
    let x = b.input("x");
    let en = b.input("en");
    // Flops q0..q_{n-1}: q0 <- mux(en, x, xor(x, q_{n-1})), qi <- q_{i-1}.
    let last_ff = NetId(b.num_gates() as u32 + 2 + 2 * (n as u32 - 1));
    let feedback = b.gate(GateKind::Xor, &[x, last_ff]);
    let loaded = b.mux2(en, x, feedback);
    let q0 = b.gate(GateKind::Dff { scan: false }, &[loaded]);
    let mut prev = q0;
    for _ in 1..n {
        let buf = b.gate(GateKind::Buf, &[prev]);
        prev = b.gate(GateKind::Dff { scan: false }, &[buf]);
    }
    assert_eq!(prev, last_ff, "ring wiring must close on the last flop");
    b.output("o", prev);
    let nl = b.finish().unwrap();
    (nl, Fault::sa0(feedback))
}

/// A register pipeline of depth `n` (no cycles) with a fault at the
/// front: sequential depth without loops.
pub fn chain_circuit(n: usize) -> (Netlist, Fault) {
    let mut b = NetlistBuilder::new(format!("chain{n}"));
    let x = b.input("x");
    let y = b.input("y");
    let g = b.and2(x, y);
    let mut cur = g;
    for _ in 0..n {
        cur = b.gate(GateKind::Dff { scan: false }, &[cur]);
    }
    b.output("o", cur);
    let nl = b.finish().unwrap();
    (nl, Fault::sa0(g))
}

/// The ring lengths E1 measures.
pub const RING_LENGTHS: [usize; 5] = [1, 2, 3, 4, 5];

/// The chain depths E1 measures.
pub const CHAIN_DEPTHS: [usize; 5] = [1, 2, 4, 6, 8];

/// E1's sequential-ATPG budget.
pub const OPTIONS: SeqAtpgOptions = SeqAtpgOptions {
    max_frames: 12,
    backtrack_limit: 50_000,
};

/// Effort table over cycle lengths and chain depths.
pub fn run() -> Table {
    let mut t = Table::new(
        "E1  Sequential ATPG effort vs S-graph cycle length and depth",
        &[
            "circuit",
            "param",
            "detected",
            "frames",
            "decisions",
            "backtracks",
            "implications",
        ],
    );
    for n in RING_LENGTHS {
        let (nl, fault) = ring_circuit(n);
        let (status, effort) = seq_podem(&nl, fault, &OPTIONS);
        let (det, frames) = match status {
            SeqStatus::Detected { frames, .. } => ("yes", frames.to_string()),
            SeqStatus::Untestable => ("no(unt)", "-".into()),
            SeqStatus::Aborted => ("no(abort)", "-".into()),
        };
        t.row(vec![
            "ring".into(),
            n.to_string(),
            det.into(),
            frames,
            effort.decisions.to_string(),
            effort.backtracks.to_string(),
            effort.implications.to_string(),
        ]);
    }
    for n in CHAIN_DEPTHS {
        let (nl, fault) = chain_circuit(n);
        let (status, effort) = seq_podem(&nl, fault, &OPTIONS);
        let (det, frames) = match status {
            SeqStatus::Detected { frames, .. } => ("yes", frames.to_string()),
            SeqStatus::Untestable => ("no(unt)", "-".into()),
            SeqStatus::Aborted => ("no(abort)", "-".into()),
        };
        t.row(vec![
            "chain".into(),
            n.to_string(),
            det.into(),
            frames,
            effort.decisions.to_string(),
            effort.backtracks.to_string(),
            effort.implications.to_string(),
        ]);
    }
    t
}
