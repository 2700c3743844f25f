//! Event-driven fault grading over the structure-of-arrays IR.
//!
//! This is the combinational grading engine behind every
//! [`crate::fsim`] entry point. It is held bit-identical to the naive
//! oracle ([`crate::fsim::comb_fault_sim_oracle`]) and gets its speed
//! three ways, none of which may change a detected set:
//!
//! * **Levelized SoA walk** — the engine reads the netlist's own
//!   storage ([`crate::net::Netlist`]): one kind and three operand slots
//!   per gate in flat arrays, the gate levels, the level order and the
//!   reader table, so the inner loop is a handful of contiguous array
//!   reads.
//! * **Wide pattern words** — frames are packed [`WordWidth::lanes`]
//!   at a time into [`PatternWord`]s, so one propagation pass grades up
//!   to 512 patterns. Lanes are independent bitwise channels; the
//!   per-lane masks from [`TestFrame::mask`] keep padding lanes from
//!   ever contributing a detection.
//! * **Stem-region grading** — instead of simulating every fault's
//!   full faulty machine (as the oracle does), each fault is first
//!   traced through its fanout-free region: within an FFR every net
//!   has exactly one path forward, so the fault effect at the region's
//!   stem is the excitation word ANDed with one-step Boolean
//!   differences along the chain — all computed directly from good
//!   values. What remains is the stem's own observability, which is
//!   shared by *every* fault (of either polarity) that funnels into
//!   that stem: one event-driven flip propagation per stem and chunk,
//!   memoized, computes the exact per-pattern word of lanes in which
//!   flipping the stem flips some observed net. Pattern lanes are
//!   independent bit channels, so the composition
//!   `excitation & path_sensitization & stem_observability` is exact
//!   for every pattern, not an approximation.
//!
//! Deadline polling is re-derived in fault-eval units via
//! [`crate::fsim::deadline_poll_stride`] so zero-budget sweeps grade
//! the same deterministic prefix at every word width.
//!
//! Every call of a grading run (a 64-pattern batch of a coverage curve,
//! an ATPG fault-dropping pass, or the one call of
//! [`crate::fsim::comb_fault_sim_observed_opts`]) grades through the
//! run's one `GradeSession`, on the caller's thread. The session builds
//! the observation tables and event scratch once and drops detected
//! faults by position.

use std::time::Instant;

use crate::deadline::Deadline;
use crate::fault::Fault;
use crate::fsim::{deadline_poll_stride, fault_phase, FaultSimSummary, ParallelOptions, TestFrame};
use crate::net::{GateKind, NetId, Netlist};
use crate::stats::GradeStats;
use crate::word::{self, PatternWord, WordWidth};

/// Marker for nets that are stems (no unique forward path).
const STEM: u32 = u32::MAX;

/// Observation tables, built once per session and read-only after.
struct ObsTables {
    /// Net index → is an observation point.
    mark: Vec<bool>,
    /// Net index → some observation point is in this net's
    /// combinational fanout cone (including the net itself). Faults on
    /// nets outside this set are structurally undetectable.
    reach: Vec<bool>,
    /// CSR fanout restricted to obs-reaching combinational readers (the
    /// netlist's reader table less flip-flops and unreaching gates),
    /// rebuilt per observation set: `fedges[fstarts[g]..fstarts[g+1]]`
    /// holds each reader packed as `level << 32 | gate`, so the enqueue
    /// loop needs no `reach` or `level_of` lookups of its own.
    fstarts: Vec<u32>,
    fedges: Vec<u64>,
    /// Net index → the unique obs-reaching comb reader when the net is
    /// interior to a fanout-free region, else [`STEM`]. Observed nets
    /// are always stems (their fault effects are seen directly), as are
    /// nets with zero or several distinct reaching readers.
    parent: Vec<u32>,
}

impl ObsTables {
    fn new(nl: &Netlist, observed: &[NetId]) -> ObsTables {
        let n = nl.num_nets();
        let mut mark = vec![false; n];
        for net in observed {
            mark[net.index()] = true;
        }
        // Backward reachability over the levelized order: a gate that
        // reaches an observation point makes each operand reach it too.
        // Unused operand slots hold the gate's own id, so blanket
        // propagation over all three slots is harmless.
        let mut reach = mark.clone();
        for &g in nl.level_order().iter().rev() {
            if reach[g as usize] {
                for op in nl.operands(g) {
                    reach[op as usize] = true;
                }
            }
        }
        let mut fstarts = Vec::with_capacity(n + 1);
        let mut fedges = Vec::new();
        fstarts.push(0u32);
        for g in 0..n as u32 {
            for &h in nl.readers(NetId(g)) {
                if reach[h.index()] && !nl.kind_of(h.0).is_source() {
                    fedges.push(u64::from(nl.level_of(h.0)) << 32 | u64::from(h.0));
                }
            }
            fstarts.push(fedges.len() as u32);
        }
        // A net is interior to a fanout-free region when exactly one
        // distinct reaching gate reads it (a gate reading the net on
        // two pins counts once — the flip-based sensitization below is
        // exact for double reads) and the net is not observed itself.
        // Readers that cannot reach an observation point are ignored:
        // fault effects through them are never seen.
        let mut parent = vec![STEM; n];
        for g in 0..n {
            if mark[g] {
                continue;
            }
            let edges = &fedges[fstarts[g] as usize..fstarts[g + 1] as usize];
            if let Some((&first, rest)) = edges.split_first() {
                let first = first as u32;
                if rest.iter().all(|&e| e as u32 == first) {
                    parent[g] = first;
                }
            }
        }
        ObsTables {
            mark,
            reach,
            fstarts,
            fedges,
            parent,
        }
    }

    /// Obs-reaching readers of `g`, packed `level << 32 | gate`.
    #[inline]
    fn fanout(&self, g: u32) -> &[u64] {
        &self.fedges[self.fstarts[g as usize] as usize..self.fstarts[g as usize + 1] as usize]
    }
}

/// Reusable grading state, kept for a whole session: an epoch-marked
/// faulty-value overlay (unmarked nets read through to the good values),
/// one worklist bucket per level, and the per-chunk stem-observability
/// memo. One `mark` word per net carries both scheduling states —
/// `2 * epoch` once enqueued, `2 * epoch + 1` once a changed value is
/// stamped — so the hot loops touch a single side array.
struct EventScratch<const N: usize> {
    val: Vec<PatternWord<N>>,
    mark: Vec<u64>,
    epoch: u64,
    buckets: Vec<Vec<u32>>,
    /// Stem → observability word, valid when `stem_stamp[stem]` equals
    /// the stamp of the chunk being graded. Shared by every fault that
    /// funnels into the stem, for either stuck-at polarity.
    stem_obs: Vec<PatternWord<N>>,
    stem_stamp: Vec<u64>,
    /// Chunks graded with this scratch over every call of its session.
    /// Chunk `c` of a call is stamped `chunks + c + 1`, so a memo left
    /// by an earlier call (other frames at the same chunk index) never
    /// matches.
    chunks: u64,
}

impl<const N: usize> EventScratch<N> {
    fn new(nets: usize, levels: usize) -> Self {
        EventScratch {
            val: vec![word::zeros(); nets],
            mark: vec![0; nets],
            epoch: 0,
            buckets: vec![Vec::new(); levels],
            stem_obs: vec![word::zeros(); nets],
            stem_stamp: vec![0; nets],
            chunks: 0,
        }
    }
}

#[inline]
fn rd<const N: usize>(
    mark: &[u64],
    val: &[PatternWord<N>],
    good: &[PatternWord<N>],
    stamped: u64,
    i: usize,
) -> PatternWord<N> {
    if mark[i] == stamped {
        val[i]
    } else {
        good[i]
    }
}

/// Evaluates gate `p` from good values with net `flip` inverted in
/// every bit — the one-step Boolean difference used by the FFR path
/// walk. Every operand slot holding `flip` sees the inverted word, so
/// a gate reading the same net on two pins is handled exactly.
#[inline]
fn eval_flip<const N: usize>(
    nl: &Netlist,
    good: &[PatternWord<N>],
    p: u32,
    flip: u32,
) -> PatternWord<N> {
    let ops = nl.operands(p);
    let ld = |k: usize| {
        let i = ops[k];
        if i == flip {
            word::not(good[i as usize])
        } else {
            good[i as usize]
        }
    };
    match nl.kind_of(p) {
        GateKind::Buf => ld(0),
        GateKind::Not => word::not(ld(0)),
        GateKind::And => word::and(ld(0), ld(1)),
        GateKind::Or => word::or(ld(0), ld(1)),
        GateKind::Nand => word::not(word::and(ld(0), ld(1))),
        GateKind::Nor => word::not(word::or(ld(0), ld(1))),
        GateKind::Xor => word::xor(ld(0), ld(1)),
        GateKind::Xnor => word::not(word::xor(ld(0), ld(1))),
        GateKind::Mux => word::mux(ld(0), ld(1), ld(2)),
        // Sources never read nets, so they can never be an FFR parent.
        GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => good[p as usize],
    }
}

/// Computes the stem observability word: the pattern bits (confined to
/// live lanes) in which flipping `stem` changes at least one observed
/// net. Runs the event frontier to exhaustion — or stops early once
/// every live bit is covered — so the result is exact per pattern and
/// reusable by every fault that funnels into `stem` this chunk.
fn stem_flip_obs<const N: usize>(
    nl: &Netlist,
    obs: &ObsTables,
    good: &[PatternWord<N>],
    mask: &PatternWord<N>,
    stem: u32,
    scratch: &mut EventScratch<N>,
    stats: &mut GradeStats,
) -> PatternWord<N> {
    // A directly observed stem is its own observation point.
    if obs.mark[stem as usize] {
        return *mask;
    }
    scratch.epoch += 1;
    let queued = scratch.epoch * 2;
    let stamped = queued + 1;
    // Flip the stem in live lanes only: padding lanes keep their good
    // values, so no event ever carries a masked difference.
    scratch.val[stem as usize] = word::xor(good[stem as usize], *mask);
    scratch.mark[stem as usize] = stamped;
    let mut obs_word: PatternWord<N> = word::zeros();
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &packed in obs.fanout(stem) {
        let g = packed as u32;
        if scratch.mark[g as usize] >= queued {
            continue;
        }
        scratch.mark[g as usize] = queued;
        let l = (packed >> 32) as usize;
        scratch.buckets[l].push(g);
        lo = lo.min(l);
        hi = hi.max(l);
    }
    if lo == usize::MAX {
        return obs_word;
    }
    let mut lvl = lo;
    while lvl <= hi {
        // Pushes from this level only target strictly higher levels
        // (level = 1 + max operand level), so taking the bucket out
        // while enqueuing into others is safe.
        let mut bucket = std::mem::take(&mut scratch.buckets[lvl]);
        for &g in &bucket {
            let gi = g as usize;
            stats.flip_events += 1;
            let ops = nl.operands(g);
            let a = rd(&scratch.mark, &scratch.val, good, stamped, ops[0] as usize);
            let v = match nl.kind_of(g) {
                GateKind::Buf => a,
                GateKind::Not => word::not(a),
                GateKind::And => word::and(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                ),
                GateKind::Or => word::or(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                ),
                GateKind::Nand => word::not(word::and(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                )),
                GateKind::Nor => word::not(word::or(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                )),
                GateKind::Xor => word::xor(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                ),
                GateKind::Xnor => word::not(word::xor(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                )),
                GateKind::Mux => word::mux(
                    a,
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[1] as usize),
                    rd(&scratch.mark, &scratch.val, good, stamped, ops[2] as usize),
                ),
                GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. } => continue,
            };
            if v == good[gi] {
                // The event died here: downstream readers fall through
                // to the good values, so nothing is enqueued.
                continue;
            }
            scratch.val[gi] = v;
            scratch.mark[gi] = stamped;
            if obs.mark[gi] {
                obs_word = word::or(obs_word, word::xor(v, good[gi]));
                if obs_word == *mask {
                    // Every live pattern already observes the flip;
                    // drop the stale entries so the next pass starts
                    // from empty buckets.
                    stats.early_exits += 1;
                    bucket.clear();
                    scratch.buckets[lvl] = bucket;
                    for b in &mut scratch.buckets[lvl + 1..=hi] {
                        b.clear();
                    }
                    return obs_word;
                }
            }
            for &packed in obs.fanout(g) {
                let h = packed as u32;
                if scratch.mark[h as usize] < queued {
                    scratch.mark[h as usize] = queued;
                    let l = (packed >> 32) as usize;
                    scratch.buckets[l].push(h);
                    hi = hi.max(l);
                }
            }
        }
        bucket.clear();
        scratch.buckets[lvl] = bucket;
        lvl += 1;
    }
    obs_word
}

/// The wide good-machine trace plus per-chunk bookkeeping, read-only
/// while the faults are graded.
struct WideTrace<const N: usize> {
    /// Chunk-major good values: `goods[c * nets + net]`.
    goods: Vec<PatternWord<N>>,
    /// Per-chunk lane mask (padding lanes are zero).
    masks: Vec<PatternWord<N>>,
    /// Per-chunk count of real frames (the rest of the word is
    /// padding).
    active: Vec<usize>,
    nets: usize,
}

impl<const N: usize> WideTrace<N> {
    fn new(nl: &Netlist, frames: &[TestFrame]) -> WideTrace<N> {
        let nets = nl.num_nets();
        let nc = frames.len().div_ceil(N);
        let mut goods = Vec::with_capacity(nc * nets);
        let mut masks = Vec::with_capacity(nc);
        let mut active = Vec::with_capacity(nc);
        let zero_ff = vec![0u64; nl.dffs().len()];
        for chunk in frames.chunks(N) {
            let mut pi: Vec<PatternWord<N>> = vec![word::zeros(); nl.inputs().len()];
            let mut ff: Vec<PatternWord<N>> = vec![word::zeros(); nl.dffs().len()];
            let mut mask: PatternWord<N> = word::zeros();
            for (j, frame) in chunk.iter().enumerate() {
                for (i, w) in frame.pi.iter().enumerate() {
                    pi[i][j] = *w;
                }
                // Same rule as the oracle: a frame without state words
                // on a sequential circuit means all-zero state.
                let fw = if frame.ff.is_empty() && !nl.dffs().is_empty() {
                    &zero_ff
                } else {
                    &frame.ff
                };
                for (i, w) in fw.iter().enumerate() {
                    ff[i][j] = *w;
                }
                mask[j] = frame.mask;
            }
            goods.extend(crate::sim::eval_comb_wide(nl, &pi, &ff, None));
            masks.push(mask);
            active.push(chunk.len());
        }
        WideTrace {
            goods,
            masks,
            active,
            nets,
        }
    }

    #[inline]
    fn chunk(&self, c: usize) -> &[PatternWord<N>] {
        &self.goods[c * self.nets..(c + 1) * self.nets]
    }

    fn chunks(&self) -> usize {
        self.active.len()
    }
}

/// Grades the session's undetected `faults` against the wide trace,
/// setting `hits[i]` when `faults[i]` is detected.
fn grade_faults<const N: usize>(
    nl: &Netlist,
    obs: &ObsTables,
    trace: &WideTrace<N>,
    deadline: Deadline,
    faults: &[Fault],
    hits: &mut [bool],
    scratch: &mut EventScratch<N>,
) -> GradeStats {
    let mut stats = GradeStats::default();
    let stamp_base = scratch.chunks;
    scratch.chunks += trace.chunks() as u64;
    let stride = deadline_poll_stride(N);
    let zero: PatternWord<N> = word::zeros();
    for (fault_idx, &fault) in faults.iter().enumerate() {
        // Cooperative cutoff between faults, at the width-scaled
        // stride; the first stride always grades, which keeps
        // zero-budget runs deterministic.
        if fault_idx > 0 && fault_idx % stride == 0 && deadline.expired() {
            stats.timed_out = true;
            break;
        }
        let src = fault.net.index();
        if !obs.reach[src] {
            stats.unobservable += 1;
            continue;
        }
        let stuck = if fault.stuck_at_one { u64::MAX } else { 0 };
        let stuck_word: PatternWord<N> = word::splat(fault.stuck_at_one);
        for c in 0..trace.chunks() {
            let good = trace.chunk(c);
            let mask = &trace.masks[c];
            // Per-lane activation screen, counted in frame units so the
            // work ledger stays exact: each real frame is either
            // screened here or evaluated below.
            let gsrc = &good[src];
            let mut excited = 0usize;
            for j in 0..trace.active[c].min(N) {
                if (gsrc[j] ^ stuck) & mask[j] != 0 {
                    excited += 1;
                }
            }
            stats.screened += (trace.active[c] - excited) as u64;
            if excited == 0 {
                continue;
            }
            stats.fault_evals += excited as u64;
            // Fault effect at the stem: the per-pattern excitation word
            // ANDed with the one-step Boolean difference of every gate
            // on the (unique) path out of the fanout-free region.
            let mut s = word::and(word::xor(*gsrc, stuck_word), *mask);
            let mut n = src as u32;
            loop {
                let p = obs.parent[n as usize];
                if p == STEM {
                    break;
                }
                s = word::and(s, word::xor(eval_flip(nl, good, p, n), good[p as usize]));
                if s == zero {
                    break;
                }
                n = p;
            }
            if s == zero {
                continue;
            }
            // The stem observability word is shared by every fault of
            // this region, for either polarity; memoized per chunk.
            let stamp = stamp_base + c as u64 + 1;
            let ow = if scratch.stem_stamp[n as usize] == stamp {
                stats.stem_memo_hits += 1;
                scratch.stem_obs[n as usize]
            } else {
                stats.stem_memo_misses += 1;
                let w = stem_flip_obs(nl, obs, good, mask, n, scratch, &mut stats);
                scratch.stem_stamp[n as usize] = stamp;
                scratch.stem_obs[n as usize] = w;
                w
            };
            if word::and(s, ow) != zero {
                // Detected: the remaining chunks are dropped.
                stats.dropped += trace.active[c + 1..].iter().sum::<usize>() as u64;
                hits[fault_idx] = true;
                break;
            }
        }
    }
    stats
}

/// Grades `faults` against `frames` with the session's tables and
/// scratch (built on first need), setting `hits[i]` when `faults[i]`
/// is detected.
fn grade_frames<const N: usize>(
    nl: &Netlist,
    obs: &ObsTables,
    deadline: Deadline,
    faults: &[Fault],
    frames: &[TestFrame],
    hits: &mut [bool],
    scratch: &mut Option<EventScratch<N>>,
) -> GradeStats {
    let good_span = hlstb_trace::span("fsim.good");
    let good_start = Instant::now();
    let trace = WideTrace::<N>::new(nl, frames);
    let wall_good = good_start.elapsed();
    good_span.end();

    fault_phase(
        faults,
        hits,
        scratch,
        || EventScratch::new(nl.num_nets(), nl.level_count().max(1)),
        frames.len(),
        wall_good,
        |faults, hits, scratch| grade_faults(nl, obs, &trace, deadline, faults, hits, scratch),
    )
}

/// The session's event scratch at its word width, built by the first
/// call that grades.
enum Scratch {
    W64(Option<EventScratch<1>>),
    W256(Option<EventScratch<4>>),
    W512(Option<EventScratch<8>>),
}

/// One grading run of the combinational engine, for one netlist,
/// observation set and [`ParallelOptions`]. It is built once per run and
/// owns everything the run's calls share: the observation tables, one
/// event scratch at the run's word width (built by the first call that
/// grades), and the undetected faults, in universe order. Each [`grade`](Self::grade)
/// call drops the faults it detects by position;
/// [`finish`](Self::finish) builds the detected set and returns the
/// run's summed work. It journals nothing: the public entry points
/// journal the stats `finish` returns, once per run.
pub(crate) struct GradeSession<'a> {
    nl: &'a Netlist,
    deadline: Deadline,
    obs: ObsTables,
    scratch: Scratch,
    /// Undetected faults, in universe order.
    remaining: Vec<Fault>,
    /// The last call's verdict per position of `remaining`.
    hits: Vec<bool>,
    /// The distinct detected faults, in detection order.
    detected: Vec<Fault>,
    /// Whether a fault is in `detected`, at `2 * net + stuck_at_one`.
    seen: Vec<bool>,
    total: usize,
    stats: GradeStats,
}

impl<'a> GradeSession<'a> {
    /// Builds the session for grading `faults` of `nl` at `observed`.
    pub(crate) fn new(
        nl: &'a Netlist,
        faults: &[Fault],
        observed: &[NetId],
        opts: &ParallelOptions,
    ) -> GradeSession<'a> {
        let start = Instant::now();
        let obs = ObsTables::new(nl, observed);
        let scratch = match opts.word_width {
            WordWidth::W64 => Scratch::W64(None),
            WordWidth::W256 => Scratch::W256(None),
            WordWidth::W512 => Scratch::W512(None),
        };
        GradeSession {
            nl,
            deadline: opts.deadline,
            obs,
            scratch,
            remaining: faults.to_vec(),
            hits: Vec::new(),
            detected: Vec::new(),
            seen: vec![false; 2 * nl.num_nets()],
            total: faults.len(),
            stats: GradeStats {
                wall_good: start.elapsed(),
                ..GradeStats::default()
            },
        }
    }

    /// The faults not detected yet, in universe order.
    pub(crate) fn remaining(&self) -> &[Fault] {
        &self.remaining
    }

    /// How many distinct faults have been detected so far.
    pub(crate) fn detected_count(&self) -> usize {
        self.detected.len()
    }

    /// Grades the undetected faults against `frames`, drops the ones
    /// detected, and returns how many distinct faults were new.
    pub(crate) fn grade(&mut self, frames: &[TestFrame]) -> usize {
        let before = self.detected_count();
        self.hits.clear();
        self.hits.resize(self.remaining.len(), false);
        let (nl, obs, deadline) = (self.nl, &self.obs, self.deadline);
        let (faults, hits) = (&self.remaining[..], &mut self.hits[..]);
        let stats = match &mut self.scratch {
            Scratch::W64(s) => grade_frames(nl, obs, deadline, faults, frames, hits, s),
            Scratch::W256(s) => grade_frames(nl, obs, deadline, faults, frames, hits, s),
            Scratch::W512(s) => grade_frames(nl, obs, deadline, faults, frames, hits, s),
        };
        self.stats.absorb(&stats);
        // Recording the verdicts counts in the fault phase's wall, as
        // the oracle's set building does in its own: the fsim headline
        // compares the two walls.
        let start = Instant::now();
        let mut verdicts = self.hits.iter();
        let (detected, seen) = (&mut self.detected, &mut self.seen);
        self.remaining.retain(|&f| {
            let hit = *verdicts.next().expect("one verdict per undetected fault");
            let slot = 2 * f.net.index() + usize::from(f.stuck_at_one);
            if hit && !std::mem::replace(&mut seen[slot], true) {
                detected.push(f);
            }
            !hit
        });
        self.stats.wall_fault += start.elapsed();
        self.detected_count() - before
    }

    /// Drops every undetected copy of `fault` without grading it: a
    /// target the caller settled some other way.
    pub(crate) fn drop_fault(&mut self, fault: Fault) {
        self.remaining.retain(|&f| f != fault);
    }

    /// The run's detected set over the whole universe, and its work
    /// summed over every call.
    pub(crate) fn finish(self) -> (FaultSimSummary, GradeStats) {
        let start = Instant::now();
        let detected = self.detected.into_iter().collect();
        let mut stats = self.stats;
        stats.faults = self.total;
        stats.wall_fault += start.elapsed();
        (
            FaultSimSummary {
                detected,
                total: self.total,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::fault::all_faults;
    use crate::net::NetlistBuilder;

    fn mixed() -> Netlist {
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

    #[test]
    fn obs_reach_covers_exactly_the_observable_cones() {
        let nl = mixed();
        let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        let obs = ObsTables::new(&nl, &observed);
        // Every observed net reaches itself.
        for net in &observed {
            assert!(obs.reach[net.index()]);
        }
        // A net never read by anything and not observed reaches
        // nothing: the flop outputs here feed only output "o" (observed)
        // so instead check a fabricated dead gate.
        let mut b = NetlistBuilder::new("dead");
        let x = b.input("x");
        let dead = b.not(x);
        let live = b.not(x);
        b.output("o", live);
        let nl2 = b.finish().unwrap();
        let observed2: Vec<NetId> = nl2.outputs().iter().map(|(_, n)| *n).collect();
        let obs2 = ObsTables::new(&nl2, &observed2);
        assert!(!obs2.reach[dead.index()]);
        assert!(obs2.reach[live.index()]);
        assert!(obs2.reach[x.index()]);
    }

    #[test]
    fn ffr_parents_follow_unique_reaching_readers() {
        // x feeds two live readers → stem; a chain net with one reader
        // is interior; observed nets are stems regardless of fanout.
        let mut b = NetlistBuilder::new("ffr");
        let x = b.input("x");
        let y = b.input("y");
        let n1 = b.not(x);
        let n2 = b.not(x);
        let a = b.and2(n1, y);
        let o = b.or2(a, n2);
        b.output("o", o);
        let nl = b.finish().unwrap();
        let observed: Vec<NetId> = nl.outputs().iter().map(|(_, n)| *n).collect();
        let obs = ObsTables::new(&nl, &observed);
        assert_eq!(obs.parent[x.index()], STEM, "two readers");
        assert_eq!(obs.parent[n1.index()], a.index() as u32);
        assert_eq!(obs.parent[a.index()], o.index() as u32);
        assert_eq!(obs.parent[o.index()], STEM, "observed net");
    }

    #[test]
    fn levelization_is_a_topological_order() {
        let nl = mixed();
        let order = nl.level_order();
        for &g in order {
            for op in nl.operands(g) {
                if op != g {
                    assert!(
                        nl.level_of(op) < nl.level_of(g),
                        "operand {op} of gate {g} is not at a lower level"
                    );
                }
            }
        }
        // Every combinational gate once, level-major then id order.
        assert_eq!(order.len(), nl.topo().len());
        let key = |g: u32| (nl.level_of(g), g);
        assert!(order.windows(2).all(|w| key(w[0]) < key(w[1])));
        let deepest = order.iter().map(|&g| nl.level_of(g)).max().unwrap();
        assert_eq!(nl.level_count(), deepest as usize + 1);
    }

    #[test]
    fn a_session_drops_every_copy_and_counts_each_fault_once() {
        let nl = mixed();
        let base = all_faults(&nl);
        // Every fault twice, and not ascending: both copies drop on the
        // first hit and the fault counts once.
        let faults: Vec<Fault> = base.iter().rev().chain(&base).copied().collect();
        let observed = crate::fsim::scan_observed(&nl);
        let frames: Vec<TestFrame> = (0..3u64)
            .map(|k| {
                let pi = (0..6)
                    .map(|i| 0x2545_f491_4f6c_dd1du64.rotate_left((k * 5 + i) as u32))
                    .collect();
                TestFrame::with_lanes(pi, Vec::new(), 3)
            })
            .collect();
        let mut session = GradeSession::new(&nl, &faults, &observed, &ParallelOptions::default());
        let mut want = BTreeSet::new();
        for frame in &frames {
            let frame = std::slice::from_ref(frame);
            let (oracle, _) = crate::fsim::comb_fault_sim_oracle(&nl, &base, frame, &observed);
            let before = want.len();
            want.extend(oracle.detected);
            assert_eq!(session.grade(frame), want.len() - before);
            assert_eq!(session.detected_count(), want.len());
            assert_eq!(session.remaining().len(), 2 * (base.len() - want.len()));
            assert!(session.remaining().iter().all(|f| !want.contains(f)));
        }
        let (summary, stats) = session.finish();
        assert_eq!(summary.detected, want);
        assert_eq!(summary.total, faults.len());
        assert_eq!(stats.faults, faults.len());
        assert_eq!(stats.frames, frames.len());
    }

    #[test]
    fn all_widths_match_the_reference_detected_set() {
        let nl = mixed();
        let faults = all_faults(&nl);
        let frames: Vec<TestFrame> = (0..10u64)
            .map(|k| TestFrame {
                pi: (0..6)
                    .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left((k * 11 + i) as u32))
                    .collect(),
                ff: Vec::new(),
                mask: u64::MAX,
            })
            .collect();
        let observed = crate::fsim::scan_observed(&nl);
        let (oracle, _) = crate::fsim::comb_fault_sim_oracle(&nl, &faults, &frames, &observed);
        for width in WordWidth::ALL {
            let opts = ParallelOptions::with_width(width);
            let (r, stats) = crate::fsim::comb_fault_sim_opts(&nl, &faults, &frames, &opts);
            assert_eq!(r, oracle, "width {width}");
            // The work ledger still accounts for every real
            // (fault, frame) pair at every width.
            let pairs = (stats.faults as u64 - stats.unobservable) * stats.frames as u64;
            assert_eq!(stats.fault_evals + stats.screened + stats.dropped, pairs);
        }
    }
}
