//! Fault simulation: parallel-pattern combinational grading and
//! sequence-based sequential grading.
//!
//! Sequential grading assumes a resettable design starting from the
//! all-zero state for both the good and the faulty machine — the
//! standard simplification for architecture-level coverage studies; the
//! in-tree sequential ATPG ([`crate::seq`]) is the pessimistic
//! (3-valued) instrument.
//!
//! # The grading engine
//!
//! Every entry point has an `_opts` variant taking a
//! [`ParallelOptions`] and returning a [`GradeStats`] alongside the
//! summary. Combinational frames are graded by the levelized
//! structure-of-arrays engine in [`crate::soa`], which packs
//! [`ParallelOptions::word_width`] frames into each pattern word. Three
//! screens avoid work without ever changing the detected set:
//!
//! * **activation** — a fault whose good value equals the stuck value
//!   on every live pattern is not excited in this frame;
//! * **observability** — a fault whose fanout cone reaches no
//!   observation point is structurally undetectable;
//! * **fault dropping** — once detected, a fault's remaining frames
//!   are skipped (detection is monotone in the frame set).
//!
//! [`comb_fault_sim_oracle`] is the independent reference the engine is
//! held to: serial, one full faulty-machine evaluation per fault and
//! frame, and none of the screens above. The differential suites and
//! `hlstb soa-check` compare the engine against it.
//! [`seq_replay_oracle`] is the same kind of check for sequential ATPG:
//! it replays a generated test on the netlist itself, cycle by cycle in
//! 3-valued logic, instead of trusting the time-frame expansion PODEM
//! searched.
//!
//! Every call grades on the caller's thread. Parallelism lives a layer
//! up, in the sweep's lanes and workers and the daemon's executors:
//! every benchmark design collapses to under ~2k faults, and sharding
//! universes that small measured slower than grading them in one pass.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::deadline::Deadline;
use crate::fault::Fault;
use crate::net::{GateKind, NetId, Netlist};
use crate::sim::{eval_comb, next_state, ForcedNet};
use crate::stats::GradeStats;
use crate::word::WordWidth;

/// One combinational test frame: a word (64 parallel patterns) per
/// primary input, and per flip-flop when the circuit is graded in
/// full-scan mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestFrame {
    /// One word per primary input.
    pub pi: Vec<u64>,
    /// One word per flip-flop (scan-loaded state); empty for pure
    /// combinational circuits or non-scan grading.
    pub ff: Vec<u64>,
    /// Which of the 64 lanes carry real patterns. A frame holding only
    /// `k < 64` patterns must clear the unused high lanes
    /// (`mask = (1 << k) - 1`) or padding lanes would contribute
    /// phantom detections. [`TestFrame::new`] sets all lanes live.
    pub mask: u64,
}

impl TestFrame {
    /// A frame with all 64 lanes live — the historical behavior.
    pub fn new(pi: Vec<u64>, ff: Vec<u64>) -> TestFrame {
        TestFrame {
            pi,
            ff,
            mask: u64::MAX,
        }
    }

    /// A frame carrying only the `count` low lanes (`count` is clamped
    /// to 64); the rest are padding and can never detect a fault.
    pub fn with_lanes(pi: Vec<u64>, ff: Vec<u64>, count: usize) -> TestFrame {
        TestFrame {
            pi,
            ff,
            mask: lane_mask(count),
        }
    }
}

/// The mask selecting the `count` low lanes of a word (`count >= 64`
/// selects all of them).
pub fn lane_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Summary of a grading run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimSummary {
    /// Faults detected, in fault order.
    pub detected: BTreeSet<Fault>,
    /// Size of the graded universe.
    pub total: usize,
}

impl FaultSimSummary {
    /// Detected / total, in percent (100 for an empty universe).
    pub fn coverage_percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.detected.len() as f64 / self.total as f64
        }
    }
}

/// Options for the grading engine: the width of its parallel-pattern
/// word and a deadline. The default — 64-pattern words and no deadline
/// — is what sweep and flow grading run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelOptions {
    /// Cooperative wall-clock cutoff. Fault loops poll it every
    /// [`deadline_poll_stride`] faults and stop early with
    /// [`GradeStats::timed_out`] set; the default never expires.
    pub deadline: Deadline,
    /// Pattern-word width of combinational grading: how many frames are
    /// packed into one [`crate::word::PatternWord`]. Sequential grading
    /// steps one 64-pattern word per cycle and ignores it.
    pub word_width: WordWidth,
}

/// How many faults a fault loop grades between deadline polls at the
/// historical one-lane width: often enough that an expired budget stops
/// work promptly, rarely enough that the `Instant::now` syscall is
/// invisible in the profile. Wider words poll at the scaled
/// [`deadline_poll_stride`] instead.
pub const DEADLINE_POLL_STRIDE: usize = 64;

/// Faults between deadline polls for an engine whose pattern words
/// carry `lanes` 64-bit lanes.
///
/// [`DEADLINE_POLL_STRIDE`] was calibrated as a *fault-eval* budget at
/// the historical one-lane width: 64 faults, each paying one frame-eval
/// per 64-pattern word between polls. An `L`-lane word does `L` lanes'
/// worth of evaluation per fault chunk, so the fault stride shrinks by
/// `L` to keep the work between polls — and therefore the worst-case
/// overshoot past an expired deadline — roughly constant across widths.
/// The stride never drops below one fault, and fault loops still skip
/// the poll before the first stride, so a zero-budget run always grades
/// exactly one stride's worth of faults: deterministic at every width,
/// with [`GradeStats::timed_out`] set the same way.
pub fn deadline_poll_stride(lanes: usize) -> usize {
    (DEADLINE_POLL_STRIDE / lanes.max(1)).max(1)
}

impl ParallelOptions {
    /// The engine at the given pattern-word width.
    pub fn with_width(width: WordWidth) -> Self {
        ParallelOptions {
            word_width: width,
            ..ParallelOptions::default()
        }
    }
}

fn forced(fault: Fault) -> ForcedNet {
    ForcedNet {
        net: fault.net,
        value: fault.stuck_at_one,
    }
}

/// The default observation set: primary outputs plus every scannable
/// flip-flop's data input (the response that would be shifted out).
pub fn scan_observed(nl: &Netlist) -> Vec<NetId> {
    let scan_obs: Vec<NetId> = nl
        .scan_flops()
        .iter()
        .map(|&f| nl.gate(f).inputs[0])
        .collect();
    nl.outputs()
        .iter()
        .map(|(_, n)| *n)
        .chain(scan_obs)
        .collect()
}

/// Grades `faults` against combinational/full-scan frames.
///
/// In scan mode (`frame.ff` nonempty) the observation points are the
/// primary outputs *plus every scannable flip-flop's data input* (the
/// response that would be shifted out); controllability comes from the
/// frame's `ff` words standing in for scan-in.
pub fn comb_fault_sim(nl: &Netlist, faults: &[Fault], frames: &[TestFrame]) -> FaultSimSummary {
    comb_fault_sim_opts(nl, faults, frames, &ParallelOptions::default()).0
}

/// [`comb_fault_sim`] with engine options and run instrumentation.
pub fn comb_fault_sim_opts(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    comb_fault_sim_observed_opts(nl, faults, frames, &scan_observed(nl), opts)
}

/// Grades `faults` with an explicit observation set, engine options
/// and run instrumentation — the primitive behind both full-scan
/// grading and BIST grading (where only the signature registers' data
/// inputs are compacted).
pub fn comb_fault_sim_observed_opts(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    observed: &[NetId],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    let mut session = crate::soa::GradeSession::new(nl, faults, observed, opts);
    session.grade(frames);
    let graded = session.finish();
    graded.1.trace_bridge();
    graded
}

/// The naive combinational grader, kept as the oracle the engine is
/// differential-tested against: for every fault and every frame, one
/// full [`eval_comb`] with the fault forced, compared with the good
/// machine on the `observed` nets under the frame's lane mask. Serial,
/// with no cones, screens, fault dropping, or deadline. Pass
/// [`scan_observed`] for the observation set of [`comb_fault_sim`].
///
/// The stats carry the run's shape, its work (`fault_evals` is always
/// `faults × frames`), the phase walls, and an `unobservable` count
/// from plain backward reachability — reported for comparison with the
/// engine, never used to skip a fault.
pub fn comb_fault_sim_oracle(
    nl: &Netlist,
    faults: &[Fault],
    frames: &[TestFrame],
    observed: &[NetId],
) -> (FaultSimSummary, GradeStats) {
    let good_start = Instant::now();
    // A frame without state words on a sequential circuit grades from
    // the all-zero state.
    let zero_ff = vec![0u64; nl.dffs().len()];
    let states: Vec<&[u64]> = frames
        .iter()
        .map(|f| if f.ff.is_empty() { &zero_ff } else { &f.ff })
        .map(Vec::as_slice)
        .collect();
    let goods: Vec<Vec<u64>> = frames
        .iter()
        .zip(&states)
        .map(|(f, ff)| eval_comb(nl, &f.pi, ff, None))
        .collect();
    let wall_good = good_start.elapsed();

    let fault_start = Instant::now();
    let mut detected = BTreeSet::new();
    for &fault in faults {
        for ((frame, ff), good) in frames.iter().zip(&states).zip(&goods) {
            let faulty = eval_comb(nl, &frame.pi, ff, Some(forced(fault)));
            if observed
                .iter()
                .any(|n| (faulty[n.index()] ^ good[n.index()]) & frame.mask != 0)
            {
                detected.insert(fault);
            }
        }
    }
    let wall_fault = fault_start.elapsed();

    // Backward reachability from the observation points through the
    // combinational gates; a flip-flop ends the frame.
    let mut reaches = vec![false; nl.num_nets()];
    for net in observed {
        reaches[net.index()] = true;
    }
    for &gid in nl.topo().iter().rev() {
        if reaches[gid.net().index()] {
            for input in nl.gate(gid).inputs {
                reaches[input.index()] = true;
            }
        }
    }
    let stats = GradeStats {
        faults: faults.len(),
        frames: frames.len(),
        fault_evals: (faults.len() * frames.len()) as u64,
        unobservable: faults.iter().filter(|f| !reaches[f.net.index()]).count() as u64,
        wall_good,
        wall_fault,
        ..GradeStats::default()
    };
    (
        FaultSimSummary {
            detected,
            total: faults.len(),
        },
        stats,
    )
}

/// Replays a sequential test on `nl` itself, not on its time-frame
/// expansion: the independent check of a
/// [`crate::seq::SeqStatus::Detected`] verdict. Kept deliberately naive,
/// and sharing no evaluation code with PODEM's 5-valued calculus: the
/// good and the faulty machine each step one cycle at a time in 3-valued
/// logic (`None` is unknown), gate by gate in [`Netlist::topo`] order.
/// Non-scan flops start unknown, scan flops take `scan_load` (order of
/// [`Netlist::scan_flops`]), `sequence[t][i]` drives the i-th primary
/// input at cycle `t`, and the fault is forced in every cycle.
/// The test detects the fault when some primary output in any cycle, or
/// some scan flop's data input in the last cycle, is known in both
/// machines and differs.
///
/// # Panics
///
/// Panics if a cycle's vector does not drive every primary input.
pub fn seq_replay_oracle(
    nl: &Netlist,
    fault: Fault,
    sequence: &[Vec<bool>],
    scan_load: &[bool],
) -> bool {
    let mut load = scan_load.iter();
    let initial: Vec<Option<bool>> = nl
        .dffs()
        .iter()
        .map(|&f| match nl.gate(f).kind {
            GateKind::Dff { scan: true } => load.next().copied(),
            _ => None,
        })
        .collect();
    let scan_d: Vec<NetId> = nl
        .scan_flops()
        .iter()
        .map(|&f| nl.gate(f).inputs[0])
        .collect();
    let mut good_state = initial.clone();
    let mut bad_state = initial;
    for (t, pis) in sequence.iter().enumerate() {
        let good = eval_comb3(nl, pis, &good_state, None);
        let bad = eval_comb3(nl, pis, &bad_state, Some(fault));
        let differs =
            |n: &NetId| matches!((good[n.index()], bad[n.index()]), (Some(g), Some(b)) if g != b);
        let last = t + 1 == sequence.len();
        if nl.outputs().iter().map(|(_, n)| n).any(differs) || (last && scan_d.iter().any(differs))
        {
            return true;
        }
        let sample = |values: &[Option<bool>]| -> Vec<Option<bool>> {
            nl.dffs()
                .iter()
                .map(|&f| values[nl.gate(f).inputs[0].index()])
                .collect()
        };
        good_state = sample(&good);
        bad_state = sample(&bad);
    }
    false
}

/// One cycle of [`seq_replay_oracle`]: every net's 3-valued value, with
/// `fault` forced on its net, sources included.
fn eval_comb3(
    nl: &Netlist,
    pis: &[bool],
    state: &[Option<bool>],
    fault: Option<Fault>,
) -> Vec<Option<bool>> {
    assert_eq!(pis.len(), nl.inputs().len(), "primary input count mismatch");
    let mut v: Vec<Option<bool>> = vec![None; nl.num_nets()];
    for (&net, &b) in nl.inputs().iter().zip(pis) {
        v[net.index()] = Some(b);
    }
    for (&f, &q) in nl.dffs().iter().zip(state) {
        v[f.index()] = q;
    }
    for (id, g) in nl.gates() {
        if let GateKind::Const(c) = g.kind {
            v[id.index()] = Some(c);
        }
    }
    let force = |v: &mut [Option<bool>], net: NetId| {
        if let Some(f) = fault.filter(|f| f.net == net) {
            v[net.index()] = Some(f.stuck_at_one);
        }
    };
    if let Some(f) = fault {
        force(&mut v, f.net);
    }
    let and = |a: Option<bool>, b: Option<bool>| match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    };
    let or = |a: Option<bool>, b: Option<bool>| match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    };
    let xor = |a: Option<bool>, b: Option<bool>| Some(a? != b?);
    let not = |a: Option<bool>| a.map(|x| !x);
    for &gid in nl.topo() {
        let g = nl.gate(gid);
        let i = |k: usize| v[g.inputs[k].index()];
        v[gid.index()] = match g.kind {
            GateKind::Buf => i(0),
            GateKind::Not => not(i(0)),
            GateKind::And => and(i(0), i(1)),
            GateKind::Or => or(i(0), i(1)),
            GateKind::Nand => not(and(i(0), i(1))),
            GateKind::Nor => not(or(i(0), i(1))),
            GateKind::Xor => xor(i(0), i(1)),
            GateKind::Xnor => not(xor(i(0), i(1))),
            // An unknown select still gives a known output when both
            // data inputs agree.
            GateKind::Mux => match i(0) {
                Some(true) => i(1),
                Some(false) => i(2),
                None => i(1).filter(|_| i(1) == i(2)),
            },
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => continue,
        };
        force(&mut v, gid.net());
    }
    v
}

/// The faulty-machine phase shared by combinational and sequential
/// grading: runs `grade` over the fault universe, which sets a verdict
/// per fault in `hits`, and stamps the run's shape and phase walls onto
/// the stats it returns. `grade` works in `scratch`, which the phase
/// first builds with `make` if it is empty, inside its timed wall, so a
/// caller that keeps `scratch` across calls builds it once and a run
/// that never grades builds none. The public entry point that returns
/// the stats journals them, once per run.
pub(crate) fn fault_phase<S>(
    faults: &[Fault],
    hits: &mut [bool],
    scratch: &mut Option<S>,
    make: impl FnOnce() -> S,
    frames: usize,
    wall_good: Duration,
    grade: impl FnOnce(&[Fault], &mut [bool], &mut S) -> GradeStats,
) -> GradeStats {
    let span = hlstb_trace::span("fsim.fault");
    let start = Instant::now();
    let scratch = scratch.get_or_insert_with(make);
    let mut stats = grade(faults, hits, scratch);
    stats.faults = faults.len();
    stats.frames = frames;
    stats.wall_good = wall_good;
    stats.wall_fault = start.elapsed();
    span.end();
    stats
}

/// Grades `faults` against an input sequence (64 parallel sequences per
/// word). Detection = any primary output differs in any cycle.
pub fn seq_fault_sim(nl: &Netlist, faults: &[Fault], vectors: &[Vec<u64>]) -> FaultSimSummary {
    seq_fault_sim_opts(nl, faults, vectors, &ParallelOptions::default()).0
}

/// [`seq_fault_sim`] with engine options and run instrumentation.
pub fn seq_fault_sim_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
    let initial = vec![0u64; nl.dffs().len()];
    seq_fault_sim_observed_opts(nl, faults, vectors, &initial, &observed, opts)
}

/// Sequence-based grading with an explicit observation set, initial
/// state, engine options and run instrumentation: the BIST instrument.
/// `vectors[t]` drives the primary inputs at cycle `t`; detection = any
/// observed net differs in any cycle.
///
/// The faulty machine replays the whole sequence per fault (state
/// feedback defeats per-frame cone restriction) and stops at the first
/// cycle that detects it. A stuck flip-flop output is forced by every
/// cycle's evaluation, so its sampled state needs no pinning.
pub fn seq_fault_sim_observed_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    initial: &[u64],
    observed: &[NetId],
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    seq_fault_sim_observed_masked_opts(nl, faults, vectors, initial, observed, u64::MAX, opts)
}

/// [`seq_fault_sim_observed_opts`] with an explicit lane mask: only the
/// lanes set in `lane_mask` carry real sequences. A caller packing
/// `k < 64` parallel sequences into the vector words must pass
/// [`lane_mask`]`(k)` so the zero-filled padding lanes cannot produce
/// phantom detections.
#[allow(clippy::too_many_arguments)]
pub fn seq_fault_sim_observed_masked_opts(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<u64>],
    initial: &[u64],
    observed: &[NetId],
    lane_mask: u64,
    opts: &ParallelOptions,
) -> (FaultSimSummary, GradeStats) {
    let good_span = hlstb_trace::span("fsim.good");
    let good_start = Instant::now();
    let obs: Vec<usize> = observed.iter().map(|n| n.index()).collect();
    let mut good_trace = Vec::with_capacity(vectors.len());
    let mut ff = initial.to_vec();
    for v in vectors {
        let values = eval_comb(nl, v, &ff, None);
        good_trace.push(obs.iter().map(|&i| values[i]).collect::<Vec<u64>>());
        ff = next_state(nl, &values);
    }
    let wall_good = good_start.elapsed();
    good_span.end();

    let mut hits = vec![false; faults.len()];
    let phase = |faults: &[Fault], hits: &mut [bool], _: &mut ()| {
        let mut stats = GradeStats::default();
        for (fault_idx, &fault) in faults.iter().enumerate() {
            if fault_idx > 0 && fault_idx % DEADLINE_POLL_STRIDE == 0 && opts.deadline.expired() {
                stats.timed_out = true;
                break;
            }
            let mut ff = initial.to_vec();
            for (t, v) in vectors.iter().enumerate() {
                stats.fault_evals += 1;
                let values = eval_comb(nl, v, &ff, Some(forced(fault)));
                let differs = obs
                    .iter()
                    .zip(&good_trace[t])
                    .any(|(&i, &g)| (values[i] ^ g) & lane_mask != 0);
                if differs {
                    // Detected: the remaining cycles are dropped.
                    stats.dropped += (vectors.len() - t - 1) as u64;
                    hits[fault_idx] = true;
                    break;
                }
                ff = next_state(nl, &values);
            }
        }
        stats
    };
    let stats = fault_phase(
        faults,
        &mut hits,
        &mut None,
        || (),
        vectors.len(),
        wall_good,
        phase,
    );
    stats.trace_bridge();
    let detected = faults
        .iter()
        .zip(&hits)
        .filter_map(|(&f, &hit)| hit.then_some(f))
        .collect();
    (
        FaultSimSummary {
            detected,
            total: faults.len(),
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use crate::net::{GateKind, NetlistBuilder};

    /// The oracle's verdict on the default (scan) observation set.
    fn oracle(nl: &Netlist, faults: &[Fault], frames: &[TestFrame]) -> FaultSimSummary {
        comb_fault_sim_oracle(nl, faults, frames, &scan_observed(nl)).0
    }

    fn xor_tree() -> Netlist {
        let mut b = NetlistBuilder::new("xt");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let x1 = b.xor2(a, c);
        let x2 = b.xor2(x1, d);
        b.output("o", x2);
        b.finish().unwrap()
    }

    #[test]
    fn exhaustive_patterns_detect_everything_in_xor_tree() {
        let nl = xor_tree();
        let faults = all_faults(&nl);
        // 8 patterns packed into one frame.
        let mut pi = vec![0u64; 3];
        for k in 0..8u64 {
            for (i, word) in pi.iter_mut().enumerate() {
                if k >> i & 1 == 1 {
                    *word |= 1 << k;
                }
            }
        }
        let frames = [TestFrame::new(pi, Vec::new())];
        let r = comb_fault_sim(&nl, &faults, &frames);
        assert_eq!(r.detected.len(), r.total);
        assert_eq!(r.coverage_percent(), 100.0);
        assert_eq!(oracle(&nl, &faults, &frames), r);
    }

    #[test]
    fn no_patterns_detect_nothing() {
        let nl = xor_tree();
        let faults = all_faults(&nl);
        let r = comb_fault_sim(&nl, &faults, &[]);
        assert!(r.detected.is_empty());
        assert_eq!(r.coverage_percent(), 0.0);
        assert_eq!(oracle(&nl, &faults, &[]), r);
    }

    #[test]
    fn blocked_logic_is_undetectable() {
        // o = x AND 0: faults on x can never propagate.
        let mut b = NetlistBuilder::new("blk");
        let x = b.input("x");
        let z = b.zero();
        let g = b.and2(x, z);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x), Fault::sa1(x)];
        let frames = [TestFrame::new(vec![0b01u64], Vec::new())];
        let r = comb_fault_sim(&nl, &faults, &frames);
        assert!(r.detected.is_empty());
        assert_eq!(oracle(&nl, &faults, &frames), r);
    }

    #[test]
    fn sequential_detection_through_a_flop() {
        // in -> dff -> out: a stuck input shows up one cycle later.
        let mut b = NetlistBuilder::new("pipe");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x)];
        let vectors = vec![vec![u64::MAX], vec![0]];
        let r = seq_fault_sim(&nl, &faults, &vectors);
        assert_eq!(r.detected.len(), 1);
    }

    #[test]
    fn scan_mode_observes_flop_inputs() {
        // x -> dff (scan) with no PO: only scan observation detects.
        let mut b = NetlistBuilder::new("scanobs");
        let x = b.input("x");
        let n = b.not(x);
        let _q = b.gate(GateKind::Dff { scan: true }, &[n]);
        b.output("dummy", x);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(n), Fault::sa1(n)];
        let frames = [
            TestFrame::new(vec![0], vec![0]),
            TestFrame::new(vec![u64::MAX], vec![0]),
        ];
        let r = comb_fault_sim(&nl, &faults, &frames);
        assert_eq!(r.detected.len(), 2);
        assert_eq!(oracle(&nl, &faults, &frames), r);
    }

    #[test]
    fn stuck_flop_output_corrupts_state() {
        let mut b = NetlistBuilder::new("st");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let ff_net = nl.dffs()[0].net();
        let faults = vec![Fault::sa1(ff_net)];
        // Good machine: out = delayed x = 0,0; faulty: 1,1.
        let vectors = vec![vec![0u64], vec![0u64]];
        let r = seq_fault_sim(&nl, &faults, &vectors);
        assert_eq!(r.detected.len(), 1);
    }

    #[test]
    fn replay_oracle_needs_a_known_difference() {
        // o = q AND x, q <- x: the flop starts unknown unless scanned.
        let mut b = NetlistBuilder::new("replay");
        let x = b.input("x");
        let q = b.register(&[x], None, false)[0];
        let g = b.and2(q, x);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let x_sa0 = Fault::sa0(x);
        let replay = |nl: &Netlist, fault, vectors: &[bool], load: &[bool]| {
            let sequence: Vec<Vec<bool>> = vectors.iter().map(|&x| vec![x]).collect();
            seq_replay_oracle(nl, fault, &sequence, load)
        };
        // Cycle 0 reads the unknown state; cycle 1 reads the x = 1 just
        // loaded.
        assert!(!replay(&nl, x_sa0, &[true], &[]));
        assert!(replay(&nl, x_sa0, &[true, true], &[]));
        assert!(!replay(&nl, x_sa0, &[false, false], &[]));
        // The fault is forced in every cycle, flop outputs included.
        assert!(replay(&nl, Fault::sa1(q), &[false, true], &[]));
        // A scan load makes the state known, and the scan flop's data
        // input is observed in the last cycle.
        let scanned = nl.with_full_scan();
        assert!(replay(&scanned, x_sa0, &[true], &[true]));
        assert!(replay(&scanned, x_sa0, &[true], &[false]));
    }

    /// A multi-level circuit with reconvergence, flops, and a mux, used
    /// to cross-check the engine against every option combination.
    fn mixed_circuit() -> Netlist {
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

    fn some_frames() -> Vec<TestFrame> {
        (0..4u64)
            .map(|k| {
                TestFrame::new(
                    (0..6)
                        .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left((k * 7 + i) as u32))
                        .collect(),
                    Vec::new(),
                )
            })
            .collect()
    }

    #[test]
    fn engine_options_never_change_the_result() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let baseline = comb_fault_sim(&nl, &faults, &frames);
        for width in crate::word::WordWidth::ALL {
            let opts = ParallelOptions::with_width(width);
            let (r, stats) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            assert_eq!(r, baseline, "width {width}");
            assert_eq!(stats.faults, faults.len());
            assert_eq!(stats.frames, frames.len());
        }
    }

    #[test]
    fn expired_deadline_truncates_large_universes_but_stays_deterministic() {
        use crate::deadline::Deadline;
        let nl = mixed_circuit();
        // Inflate the universe past one poll stride by repeating the
        // collapsed list; detection is idempotent so only the work
        // changes.
        let base = all_faults(&nl);
        let faults: Vec<Fault> = base
            .iter()
            .cycle()
            .take(DEADLINE_POLL_STRIDE * 3)
            .copied()
            .collect();
        let frames = some_frames();
        let opts = ParallelOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ParallelOptions::default()
        };
        let (r1, s1) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
        let (r2, s2) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
        assert!(s1.timed_out);
        assert_eq!(r1, r2);
        assert_eq!(s1.fault_evals, s2.fault_evals);
        // Only the first poll stride was graded.
        let full = comb_fault_sim(&nl, &faults, &frames);
        assert!(r1.detected.len() <= full.detected.len());
    }

    #[test]
    fn seq_engine_options_never_change_the_result() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let vectors: Vec<Vec<u64>> = (0..5u64)
            .map(|k| {
                (0..6)
                    .map(|i| (k * 6 + i).wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .collect()
            })
            .collect();
        let baseline = seq_fault_sim(&nl, &faults, &vectors);
        // Sequential grading steps one 64-pattern word per cycle at any
        // configured width.
        for width in crate::word::WordWidth::ALL {
            let opts = ParallelOptions::with_width(width);
            let (r, _) = seq_fault_sim_opts(&nl, &faults, &vectors, &opts);
            assert_eq!(r, baseline, "width {width}");
        }
    }

    #[test]
    fn dropping_skips_work_but_not_detections() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        // The oracle never drops: it evaluates every (fault, frame).
        let (kept, s_keep) = comb_fault_sim_oracle(&nl, &faults, &frames, &scan_observed(&nl));
        let (dropped, s_drop) =
            comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        assert_eq!(kept, dropped);
        assert!(s_drop.dropped > 0, "some fault should be dropped: {s_drop}");
        assert!(
            s_drop.fault_evals < s_keep.fault_evals,
            "dropping must save evaluations ({} vs {})",
            s_drop.fault_evals,
            s_keep.fault_evals
        );
    }

    /// Satellite regression: 65 real patterns graded with a tail-lane
    /// mask must detect exactly what 128 patterns detect when the 63
    /// padding lanes replicate a real pattern (explicit don't-cares).
    /// Before the mask existed, whatever garbage sat in the padding
    /// lanes contributed phantom detections.
    #[test]
    fn tail_lane_masking_matches_explicit_truncation() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let full: Vec<u64> = (0..6)
            .map(|i| 0xdead_beef_1996_0d0cu64.rotate_left(i * 9))
            .collect();
        let tail: Vec<u64> = (0..6)
            .map(|i| 0x0123_4567_89ab_cdefu64.rotate_left(i * 5))
            .collect();
        // 65 patterns: one full frame plus a frame with one live lane.
        let masked = [
            TestFrame::new(full.clone(), Vec::new()),
            TestFrame::with_lanes(tail.clone(), Vec::new(), 1),
        ];
        // 128 patterns whose last 63 are don't-cares: the tail frame's
        // lane 0 broadcast across the whole word. Duplicate patterns
        // cannot add detections, so the two runs must agree.
        let broadcast: Vec<u64> = tail
            .iter()
            .map(|w| if w & 1 == 1 { u64::MAX } else { 0 })
            .collect();
        let padded = [
            TestFrame::new(full, Vec::new()),
            TestFrame::new(broadcast, Vec::new()),
        ];
        // Graded whole, and the tail frame alone, where its 63 random
        // padding lanes would detect far more than its one live lane.
        for (masked, padded) in [(&masked[..], &padded[..]), (&masked[1..], &padded[1..])] {
            let want = oracle(&nl, &faults, padded);
            assert_eq!(oracle(&nl, &faults, masked).detected, want.detected);
            for width in crate::word::WordWidth::ALL {
                let opts = ParallelOptions::with_width(width);
                let (got, _) = comb_fault_sim_opts(&nl, &faults, masked, &opts);
                assert_eq!(got.detected, want.detected, "width {width}");
            }
        }
    }

    /// Satellite regression: the deadline poll stride is re-derived in
    /// fault-eval units per word width, so a zero-budget run grades
    /// exactly one stride's worth of faults — deterministically — at
    /// 64, 256, and 512-wide words.
    #[test]
    fn zero_budget_grades_one_stride_at_every_width() {
        use crate::deadline::Deadline;
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        let faults = all_faults(&nl);
        let frames = some_frames_for(&nl, 16);
        for width in crate::word::WordWidth::ALL {
            let lanes = width.lanes();
            let stride = deadline_poll_stride(lanes);
            assert!(faults.len() > stride, "universe must overflow a stride");
            let opts = ParallelOptions {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..ParallelOptions::with_width(width)
            };
            let (r1, s1) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            let (r2, s2) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            assert!(s1.timed_out, "width {width}");
            assert_eq!(r1, r2, "width {width}");
            assert_eq!(s1.fault_evals, s2.fault_evals, "width {width}");
            // The work ledger identifies exactly how many faults were
            // graded before the cutoff: one poll stride.
            let graded =
                s1.unobservable + (s1.fault_evals + s1.screened + s1.dropped) / frames.len() as u64;
            assert_eq!(graded, stride as u64, "width {width}");
        }
    }

    fn some_frames_for(nl: &Netlist, count: usize) -> Vec<TestFrame> {
        (0..count as u64)
            .map(|k| {
                TestFrame::new(
                    (0..nl.inputs().len() as u64)
                        .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left((k * 13 + i) as u32))
                        .collect(),
                    Vec::new(),
                )
            })
            .collect()
    }

    /// A lane-masked sequential run must ignore detections that only
    /// occur in padding lanes.
    #[test]
    fn seq_lane_mask_suppresses_padding_detections() {
        let mut b = NetlistBuilder::new("seqmask");
        let x = b.input("x");
        let q = b.register(&[x], None, false);
        b.output("o", q[0]);
        let nl = b.finish().unwrap();
        let faults = vec![Fault::sa0(x)];
        let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        let initial = vec![0u64; nl.dffs().len()];
        // Only lane 1 excites the fault; with lane 0 alone live the
        // fault must stay undetected.
        let vectors = vec![vec![0b10u64], vec![0]];
        let (one_lane, _) = seq_fault_sim_observed_masked_opts(
            &nl,
            &faults,
            &vectors,
            &initial,
            &observed,
            lane_mask(1),
            &ParallelOptions::default(),
        );
        assert!(one_lane.detected.is_empty());
        let (two_lanes, _) = seq_fault_sim_observed_masked_opts(
            &nl,
            &faults,
            &vectors,
            &initial,
            &observed,
            lane_mask(2),
            &ParallelOptions::default(),
        );
        assert_eq!(two_lanes.detected.len(), 1);
    }

    #[test]
    fn stats_account_for_every_fault_frame_pair() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let (_, s) = comb_fault_sim_opts(&nl, &faults, &frames, &ParallelOptions::default());
        let pairs = (s.faults as u64 - s.unobservable) * s.frames as u64;
        assert_eq!(s.fault_evals + s.screened + s.dropped, pairs);
        // The oracle evaluates every pair, observable or not, and finds
        // the same unobservable faults by plain reachability.
        let (_, o) = comb_fault_sim_oracle(&nl, &faults, &frames, &scan_observed(&nl));
        assert_eq!(o.fault_evals, s.faults as u64 * s.frames as u64);
        assert_eq!(o.unobservable, s.unobservable);
    }
}
