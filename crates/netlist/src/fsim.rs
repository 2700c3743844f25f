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
//!
//! With `threads > 1` combinational and sequential grading shard the
//! fault universe contiguously across `std::thread::scope` workers, in
//! one shared fault phase. Shards are disjoint and each fault's verdict
//! depends only on the shared good-machine trace, so the merged result
//! is bit-identical to the serial one regardless of scheduling — the
//! default options keep the engine serial anyway.
//!
//! ## The small-universe gate
//!
//! Spawning workers is not free: each worker pays the thread-spawn
//! cost and builds its own scratch state, so for small fault universes
//! the sharded engine is *slower* than the serial one (every benchmark
//! design collapses to under ~2k faults, and sharding them measured
//! behind serial grading).
//! [`ParallelOptions::min_faults_per_thread`] gates the shard count:
//! the engine uses at most `faults / min_faults_per_thread` workers
//! (never fewer than one), falling back to the serial path when the
//! universe cannot feed every worker at least that many faults. The
//! gate changes only the schedule, never the detected set, and the
//! *effective* worker count is what [`GradeStats::threads`] records.
//! Set the field to `0` to disable the gate (tests and measurements
//! that must exercise the sharded path do this).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::deadline::Deadline;
use crate::fault::Fault;
use crate::net::{NetId, Netlist};
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

/// Options for the grading engine. The default — one thread, fault
/// dropping on, 64-pattern words — reproduces the historical serial
/// behavior and results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Worker threads for the faulty-machine phase; `1` grades in place
    /// without spawning.
    pub threads: usize,
    /// Skip a fault's remaining frames (combinational) or cycles
    /// (sequential) once it is detected. Detection is monotone, so this
    /// changes only the work done, never the detected set.
    pub drop_detected: bool,
    /// Minimum faults each worker shard must receive before the engine
    /// spawns threads at all (see the module-level *small-universe
    /// gate*). `0` disables the gate. The default,
    /// [`DEFAULT_MIN_FAULTS_PER_THREAD`], keeps every benchmark-sized
    /// universe on the serial path, where it is measurably faster.
    pub min_faults_per_thread: usize,
    /// Cooperative wall-clock cutoff. Shard loops poll it every
    /// [`deadline_poll_stride`] faults and stop early with
    /// [`GradeStats::timed_out`] set; the default never expires.
    pub deadline: Deadline,
    /// Pattern-word width of combinational grading: how many frames are
    /// packed into one [`crate::word::PatternWord`]. Sequential grading
    /// steps one 64-pattern word per cycle and ignores it.
    pub word_width: WordWidth,
}

/// How many faults a shard grades between deadline polls at the
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
/// The stride never drops below one fault, and shard loops still skip
/// the poll before the first stride, so a zero-budget run always grades
/// exactly one stride's worth of faults: deterministic at every width,
/// with [`GradeStats::timed_out`] set the same way.
pub fn deadline_poll_stride(lanes: usize) -> usize {
    (DEADLINE_POLL_STRIDE / lanes.max(1)).max(1)
}

/// Default for [`ParallelOptions::min_faults_per_thread`]: below ~4k
/// faults per worker, thread-spawn cost and per-worker scratch
/// duplication outweigh the parallel win on every design we measure.
pub const DEFAULT_MIN_FAULTS_PER_THREAD: usize = 4096;

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 1,
            drop_detected: true,
            min_faults_per_thread: DEFAULT_MIN_FAULTS_PER_THREAD,
            deadline: Deadline::none(),
            word_width: WordWidth::W64,
        }
    }
}

impl ParallelOptions {
    /// The serial engine (the default).
    pub fn serial() -> Self {
        ParallelOptions::default()
    }

    /// The serial engine at the given pattern-word width.
    pub fn with_width(width: WordWidth) -> Self {
        ParallelOptions {
            word_width: width,
            ..ParallelOptions::default()
        }
    }

    /// An `n`-thread engine with fault dropping and the default
    /// small-universe gate.
    pub fn with_threads(n: usize) -> Self {
        ParallelOptions {
            threads: n.max(1),
            ..ParallelOptions::default()
        }
    }

    /// An `n`-thread engine with the small-universe gate disabled —
    /// for tests and measurements that must exercise the sharded path
    /// regardless of universe size.
    pub fn with_threads_ungated(n: usize) -> Self {
        ParallelOptions {
            threads: n.max(1),
            min_faults_per_thread: 0,
            ..ParallelOptions::default()
        }
    }

    /// Worker threads the engine will actually use for a universe of
    /// `faults` faults: the requested count, capped by the universe
    /// size and by the small-universe gate. This is the value recorded
    /// in [`GradeStats::threads`].
    pub fn effective_threads(&self, faults: usize) -> usize {
        let mut t = self.threads.max(1).min(faults.max(1));
        if let Some(full_shards) = faults.checked_div(self.min_faults_per_thread) {
            t = t.min(full_shards.max(1));
        }
        t
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
    let graded = crate::soa::grade_observed_opts(nl, faults, frames, observed, opts);
    graded.1.trace_bridge();
    graded
}

/// The naive combinational grader, kept as the oracle the engine is
/// differential-tested against: for every fault and every frame, one
/// full [`eval_comb`] with the fault forced, compared with the good
/// machine on the `observed` nets under the frame's lane mask. Serial,
/// with no cones, screens, fault dropping, threads, or deadline. Pass
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
            for input in &nl.gate(gid).inputs {
                reaches[input.index()] = true;
            }
        }
    }
    let stats = GradeStats {
        faults: faults.len(),
        frames: frames.len(),
        fault_evals: (faults.len() * frames.len()) as u64,
        unobservable: faults.iter().filter(|f| !reaches[f.net.index()]).count() as u64,
        threads: 1,
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

/// The faulty-machine phase shared by combinational and sequential
/// grading: runs `grade` over the fault universe on
/// [`ParallelOptions::effective_threads`] workers, merges the shards'
/// detected sets and work counters, and stamps the run's shape and
/// phase walls onto the stats. `grade` sees one contiguous shard; a
/// single worker grades in place without spawning. The public entry
/// point that returns the stats journals them, once per run.
pub(crate) fn fault_phase<G>(
    faults: &[Fault],
    frames: usize,
    wall_good: Duration,
    opts: &ParallelOptions,
    grade: G,
) -> (FaultSimSummary, GradeStats)
where
    G: Fn(&[Fault]) -> (BTreeSet<Fault>, GradeStats) + Sync,
{
    let span = hlstb_trace::span("fsim.fault");
    let start = Instant::now();
    let threads = opts.effective_threads(faults.len());
    let (detected, mut stats) = if threads == 1 {
        grade(faults)
    } else {
        let mut merged = BTreeSet::new();
        let mut counts = GradeStats::default();
        std::thread::scope(|scope| {
            let grade = &grade;
            let handles: Vec<_> = faults
                .chunks(faults.len().div_ceil(threads))
                .map(|shard| scope.spawn(move || grade(shard)))
                .collect();
            for handle in handles {
                let (shard_detected, shard_counts) =
                    handle.join().expect("grading worker panicked");
                merged.extend(shard_detected);
                counts.merge_counts(&shard_counts);
            }
        });
        (merged, counts)
    };
    stats.faults = faults.len();
    stats.frames = frames;
    stats.threads = threads;
    stats.wall_good = wall_good;
    stats.wall_fault = start.elapsed();
    span.end();
    (
        FaultSimSummary {
            detected,
            total: faults.len(),
        },
        stats,
    )
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
/// feedback defeats per-frame cone restriction), but the fault universe
/// shards across threads exactly like the combinational engine.
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

    let drop_detected = opts.drop_detected;
    let deadline = opts.deadline;
    let graded = fault_phase(faults, vectors.len(), wall_good, opts, |shard| {
        let mut detected = BTreeSet::new();
        let mut stats = GradeStats::default();
        for (fault_idx, &fault) in shard.iter().enumerate() {
            if fault_idx > 0 && fault_idx % DEADLINE_POLL_STRIDE == 0 && deadline.expired() {
                stats.timed_out = true;
                break;
            }
            let mut ff = initial.to_vec();
            pin_state(nl, fault, &mut ff);
            let mut hit = false;
            for (t, v) in vectors.iter().enumerate() {
                if hit && drop_detected {
                    stats.dropped += (vectors.len() - t) as u64;
                    break;
                }
                stats.fault_evals += 1;
                let values = eval_comb(nl, v, &ff, Some(forced(fault)));
                if !hit {
                    let differs = obs
                        .iter()
                        .zip(&good_trace[t])
                        .any(|(&i, &g)| (values[i] ^ g) & lane_mask != 0);
                    if differs {
                        hit = true;
                    }
                }
                ff = next_state(nl, &values);
                pin_state(nl, fault, &mut ff);
            }
            if hit {
                detected.insert(fault);
            }
        }
        (detected, stats)
    });
    graded.1.trace_bridge();
    graded
}

/// A stuck flip-flop output keeps its sampled state pinned as well.
fn pin_state(nl: &Netlist, fault: Fault, ff: &mut [u64]) {
    for (i, &f) in nl.dffs().iter().enumerate() {
        if f.net() == fault.net {
            ff[i] = if fault.stuck_at_one { u64::MAX } else { 0 };
        }
    }
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
        for threads in [1, 2, 4] {
            for drop_detected in [false, true] {
                // Gate disabled: the point is to exercise the sharded
                // path even on this tiny universe.
                let opts = ParallelOptions {
                    threads,
                    drop_detected,
                    ..ParallelOptions::with_threads_ungated(1)
                };
                let (r, stats) = comb_fault_sim_opts(&nl, &faults, &frames, &opts);
                assert_eq!(r, baseline, "threads={threads} drop={drop_detected}");
                assert_eq!(stats.faults, faults.len());
                assert_eq!(stats.frames, frames.len());
            }
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
        for threads in [1, 3] {
            let opts = ParallelOptions {
                threads,
                drop_detected: true,
                ..ParallelOptions::with_threads_ungated(1)
            };
            let (r, _) = seq_fault_sim_opts(&nl, &faults, &vectors, &opts);
            assert_eq!(r, baseline, "threads={threads}");
        }
    }

    #[test]
    fn dropping_skips_work_but_not_detections() {
        let nl = mixed_circuit();
        let faults = all_faults(&nl);
        let frames = some_frames();
        let (kept, s_keep) = comb_fault_sim_opts(
            &nl,
            &faults,
            &frames,
            &ParallelOptions {
                drop_detected: false,
                ..ParallelOptions::default()
            },
        );
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
