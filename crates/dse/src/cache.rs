//! The content-keyed, single-flight artifact cache.
//!
//! One [`ArtifactCache`] lives for the duration of one sweep — or, via
//! [`ArtifactCache::bounded`] behind an `Arc`, for the lifetime of a
//! `hlstb serve` daemon, shared across requests. Each stage has its
//! own store keyed by the FNV-1a hash of the stage's inputs (see
//! [`crate::key`]); values are `Arc`s, so a hit is a pointer clone and
//! workers share artifacts without copying.
//!
//! Misses are *single-flight*: the first worker to miss a key installs
//! an in-flight slot and computes outside the lock; any worker that
//! arrives while the compute is running blocks on the slot's condvar
//! instead of duplicating the (often expensive) stage work, and its
//! lookup is served [`CacheOutcome::Coalesced`] when the leader's
//! value lands. If the leader's compute fails or panics, a drop guard
//! removes the slot and wakes the waiters, so exactly one of them
//! retakes the lead — errors are never cached and no waiter can
//! deadlock on a dead flight. Lock discipline is unchanged: a store's
//! mutex is held only for the lookup and the insert, never across a
//! compute or a wait.
//!
//! The stores count no lookups. Every lookup returns its
//! [`CacheOutcome`], and the point pipeline that asked counts it in
//! its run's [`CacheStats`] as it journals the stage's `point.stage`
//! record — so a cache shared by overlapping daemon requests still
//! reports each request's own lookups.
//!
//! A grading run serves only some budgets (`depth_serves`), so the
//! grading store looks up with `Store::get_or_try_where`: a ready run
//! that cannot serve the lookup is graded afresh under the same single
//! flight and replaced only by a deeper run.
//!
//! A bounded cache enforces [`CacheBounds`] per stage store: every hit
//! stamps the entry with a monotone use tick, and an insert that takes
//! the store over its entry or (approximate) byte cap evicts
//! least-recently-used *ready* entries until it fits. In-flight slots
//! live apart from ready entries and are never evicted — a leader
//! always gets to publish, and eviction can only forget finished
//! artifacts (a later lookup simply recomputes). Evictions and
//! occupancy are surfaced through [`ArtifactCache::occupancy`] for the
//! serve metrics snapshot.

use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hlstb::flow::{FrontEnd, PostScanStructure, SgraphFacts, SynthesisFlow};
use hlstb::hls::datapath::Datapath;
use hlstb::hls::expand::ExpandedDatapath;
use hlstb::netlist::random::RandomRun;
use hlstb_trace::json::{Obj, Value};

/// A pipeline stage with its own store — the one list of stages.
/// Counts, occupancy and their JSON objects go through
/// [`Stage::ALL`], in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Front-end artifacts (schedule + binding + data path).
    Front,
    /// Strategy-independent S-graph facts.
    Facts,
    /// DFT-processed data paths and plans.
    Dft,
    /// Gate-level expansions.
    Netlist,
    /// Pseudorandom grading runs.
    Grading,
}

impl Stage {
    /// Every stage, in pipeline order (the JSON key order).
    pub const ALL: [Stage; 5] = [
        Stage::Front,
        Stage::Facts,
        Stage::Dft,
        Stage::Netlist,
        Stage::Grading,
    ];

    /// The stage's journal label and JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Front => "front",
            Stage::Facts => "facts",
            Stage::Dft => "dft",
            Stage::Netlist => "netlist",
            Stage::Grading => "grading",
        }
    }
}

/// How one lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a ready slot without waiting.
    Hit,
    /// This caller computed the value.
    Miss,
    /// This caller waited on another worker's in-flight compute and
    /// took its result — a miss that would have been duplicated work.
    Coalesced,
}

impl CacheOutcome {
    /// The outcome's journal/table label.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// Lookup counts of one stage, or of all of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Lookups served from a ready slot.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Lookups that waited out another worker's in-flight compute.
    pub coalesced: u64,
}

impl StageCounts {
    /// Counts one lookup served as `outcome`.
    pub fn record(&mut self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Miss => self.misses += 1,
            CacheOutcome::Coalesced => self.coalesced += 1,
        }
    }

    /// Adds other counts into these.
    pub fn merge(&mut self, other: StageCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
    }

    /// Lookups served without computing (hits plus coalesced waits) as
    /// a percentage of all lookups (0.0 when nothing was looked up — a
    /// `--no-cache` or empty sweep).
    pub fn hit_rate_percent(&self) -> f64 {
        let served = self.hits + self.coalesced;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 * 100.0 / total as f64
        }
    }

    fn put(&self, o: &mut Obj) {
        o.number_u64("hits", self.hits)
            .number_u64("misses", self.misses)
            .number_u64("coalesced", self.coalesced);
    }

    fn from_json(v: &Value) -> Option<StageCounts> {
        let n = |k: &str| v.get(k).and_then(Value::as_f64).map(|x| x as u64);
        Some(StageCounts {
            hits: n("hits")?,
            misses: n("misses")?,
            coalesced: n("coalesced")?,
        })
    }
}

/// One run's lookup counts, indexed by [`Stage`]: what a sweep's
/// report, a worker's `done` frame and a serve request's `stats` frame
/// carry. The point pipeline counts each lookup as it journals the
/// stage; the stores count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats([StageCounts; Stage::ALL.len()]);

impl Index<Stage> for CacheStats {
    type Output = StageCounts;

    fn index(&self, stage: Stage) -> &StageCounts {
        &self.0[stage as usize]
    }
}

impl IndexMut<Stage> for CacheStats {
    fn index_mut(&mut self, stage: Stage) -> &mut StageCounts {
        &mut self.0[stage as usize]
    }
}

impl CacheStats {
    /// The counts summed over every stage.
    pub fn total(&self) -> StageCounts {
        let mut total = StageCounts::default();
        for s in Stage::ALL {
            total.merge(self[s]);
        }
        total
    }

    /// The counts as a JSON object: totals, then one object per stage.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        self.total().put(&mut o);
        for s in Stage::ALL {
            let mut stage = Obj::new();
            self[s].put(&mut stage);
            o.raw(s.name(), &stage.finish());
        }
        o.finish()
    }

    /// Parses the object [`to_json`](Self::to_json) renders (the
    /// per-worker payload of the wire protocol's `done` frame). `None`
    /// when any per-stage object is missing or malformed — the totals
    /// are derived, so only the stages are read back.
    pub fn from_json(v: &Value) -> Option<CacheStats> {
        let mut stats = CacheStats::default();
        for s in Stage::ALL {
            stats[s] = StageCounts::from_json(v.get(s.name())?)?;
        }
        Some(stats)
    }

    /// Adds other counts into these, stage by stage (fleet-wide
    /// aggregation across worker lanes, daemon-lifetime totals across
    /// requests).
    pub fn merge(&mut self, other: &CacheStats) {
        for s in Stage::ALL {
            self[s].merge(other[s]);
        }
    }
}

/// Capacity limits applied to *each* stage store of a bounded cache.
/// `None` means unlimited on that axis. The byte cap compares against
/// a coarse per-artifact cost estimate (gate counts, curve lengths),
/// not exact heap usage — it bounds growth, it is not an allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheBounds {
    /// Maximum ready entries per stage store.
    pub max_entries: Option<usize>,
    /// Maximum approximate bytes of ready entries per stage store.
    pub max_bytes: Option<u64>,
}

impl CacheBounds {
    /// No limits — the per-sweep default.
    pub fn unbounded() -> Self {
        CacheBounds::default()
    }
}

/// Occupancy and eviction counters of one stage store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOccupancy {
    /// Ready entries currently resident.
    pub entries: u64,
    /// Approximate bytes of resident ready entries.
    pub bytes: u64,
    /// Ready entries evicted under capacity pressure so far.
    pub evictions: u64,
}

/// A snapshot of every stage store's occupancy, indexed by [`Stage`],
/// for the serve metrics endpoint. Occupancy is the stores' own
/// daemon-local, volatile state; lookup counts are a run's
/// ([`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOccupancy([StoreOccupancy; Stage::ALL.len()]);

impl Index<Stage> for CacheOccupancy {
    type Output = StoreOccupancy;

    fn index(&self, stage: Stage) -> &StoreOccupancy {
        &self.0[stage as usize]
    }
}

impl CacheOccupancy {
    /// Entries, bytes and evictions summed over every stage.
    pub fn total(&self) -> StoreOccupancy {
        let mut total = StoreOccupancy::default();
        for s in Stage::ALL {
            total.entries += self[s].entries;
            total.bytes += self[s].bytes;
            total.evictions += self[s].evictions;
        }
        total
    }

    /// The occupancy as a JSON object: totals, then one object per
    /// stage.
    pub fn to_json(&self) -> String {
        let put = |o: &mut Obj, c: StoreOccupancy| {
            o.number_u64("entries", c.entries)
                .number_u64("bytes", c.bytes)
                .number_u64("evictions", c.evictions);
        };
        let mut o = Obj::new();
        put(&mut o, self.total());
        for s in Stage::ALL {
            let mut stage = Obj::new();
            put(&mut stage, self[s]);
            o.raw(s.name(), &stage.finish());
        }
        o.finish()
    }
}

/// A slot an in-flight leader settles when its compute finishes (or
/// dies). Waiters block on the condvar and re-check the store map.
struct Flight {
    settled: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            settled: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut settled = self.settled.lock().expect("flight lock");
        while !*settled {
            settled = self.cv.wait(settled).expect("flight lock");
        }
    }

    fn settle(&self) {
        *self.settled.lock().expect("flight lock") = true;
        self.cv.notify_all();
    }
}

/// A finished artifact with its LRU stamp and approximate cost.
struct ReadyEntry<T> {
    value: Arc<T>,
    last_used: u64,
    cost: u64,
}

/// The lock-guarded half of a store: the finished artifacts, the
/// flights their leaders are still computing (a key can have both
/// while a run that did not serve a lookup is graded afresh), the LRU
/// tick, and the running byte total of ready entries.
struct Inner<T> {
    ready: HashMap<u64, ReadyEntry<T>>,
    flights: HashMap<u64, Arc<Flight>>,
    tick: u64,
    bytes: u64,
}

/// One stage's store: keyed `Arc` values with single-flight misses and
/// optional LRU capacity bounds. It counts evictions, which only it
/// sees, but no lookups: each lookup returns its [`CacheOutcome`] to
/// the caller that counts it.
pub(crate) struct Store<T> {
    inner: Mutex<Inner<T>>,
    bounds: CacheBounds,
    cost_fn: fn(&T) -> u64,
    evictions: AtomicU64,
}

/// Removes a leader's flight and wakes its waiters once the leader is
/// done — published, failed, or unwinding — so a panicking compute
/// (the engine catches point panics) can never strand waiters on a
/// flight nobody is working on.
struct FlightGuard<'a, T> {
    store: &'a Store<T>,
    key: u64,
    flight: Arc<Flight>,
}

impl<T> Drop for FlightGuard<'_, T> {
    fn drop(&mut self) {
        // Only this leader's guard removes the key's flight, and no
        // other flight of the key can start until it has.
        let mut inner = self.store.inner.lock().expect("cache lock");
        inner.flights.remove(&self.key);
        drop(inner);
        self.flight.settle();
    }
}

impl<T> Store<T> {
    fn new(bounds: CacheBounds, cost_fn: fn(&T) -> u64) -> Self {
        Store {
            inner: Mutex::new(Inner {
                ready: HashMap::new(),
                flights: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            bounds,
            cost_fn,
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key` plus how the lookup was
    /// served, computing (outside the lock) and inserting on a miss.
    /// Concurrent callers of the same key coalesce onto the first
    /// caller's in-flight compute instead of duplicating it; if that
    /// compute errors or panics, one waiter retakes the lead, so an
    /// `Err` is only ever this caller's own compute failing.
    pub(crate) fn get_or_try<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, CacheOutcome), E> {
        self.get_or_try_where(key, |_| true, |_, _| true, compute)
    }

    /// [`get_or_try`](Self::get_or_try) for values that serve only
    /// some lookups: a ready value serves this one only when `serves`
    /// holds for it. Otherwise this caller waits out any flight of
    /// `key`, then computes afresh as its leader, and publishes its
    /// value over the ready one only when `replaces(new, old)` holds.
    pub(crate) fn get_or_try_where<E>(
        &self,
        key: u64,
        serves: impl Fn(&T) -> bool,
        replaces: impl Fn(&T, &T) -> bool,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, CacheOutcome), E> {
        let mut waited = false;
        loop {
            let flight = {
                let mut inner = self.inner.lock().expect("cache lock");
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(e) = inner.ready.get_mut(&key).filter(|e| serves(&e.value)) {
                    e.last_used = tick;
                    let v = Arc::clone(&e.value);
                    drop(inner);
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    return Ok((v, outcome));
                }
                match inner.flights.get(&key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let flight = Arc::new(Flight::new());
                        inner.flights.insert(key, Arc::clone(&flight));
                        drop(inner);
                        // Dropped on every exit, an Err or a panic
                        // included: the flight goes and waiters wake.
                        let _guard = FlightGuard {
                            store: self,
                            key,
                            flight,
                        };
                        let v = Arc::new(compute()?);
                        self.publish(key, Arc::clone(&v), replaces);
                        return Ok((v, CacheOutcome::Miss));
                    }
                }
            };
            flight.wait();
            waited = true;
        }
    }

    /// Installs a leader's finished value — unless a ready value of
    /// the key outranks it under `replaces` — then evicts
    /// least-recently-used ready entries until the store is back under
    /// its bounds. Flights are untouchable: they carry waiters and no
    /// bytes. The freshly published entry holds the newest use tick,
    /// so LRU only claims it when it alone exceeds the byte cap — an
    /// artifact the store cannot hold at all.
    fn publish(&self, key: u64, value: Arc<T>, replaces: impl Fn(&T, &T) -> bool) {
        let cost = (self.cost_fn)(value.as_ref());
        let mut inner = self.inner.lock().expect("cache lock");
        if inner
            .ready
            .get(&key)
            .is_some_and(|old| !replaces(&value, &old.value))
        {
            return;
        }
        inner.tick += 1;
        let last_used = inner.tick;
        let old = inner.ready.insert(
            key,
            ReadyEntry {
                value,
                last_used,
                cost,
            },
        );
        inner.bytes = inner.bytes + cost - old.map_or(0, |e| e.cost);
        let over = |inner: &Inner<T>| {
            self.bounds
                .max_entries
                .is_some_and(|cap| inner.ready.len() > cap)
                || self.bounds.max_bytes.is_some_and(|cap| inner.bytes > cap)
        };
        while over(&inner) {
            let victim = inner.ready.iter().map(|(k, e)| (e.last_used, *k)).min();
            let Some((_, victim)) = victim else { break };
            if let Some(e) = inner.ready.remove(&victim) {
                inner.bytes -= e.cost;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Every ready value, in no particular order.
    #[cfg(test)]
    pub(crate) fn ready_values(&self) -> Vec<Arc<T>> {
        let inner = self.inner.lock().expect("cache lock");
        inner.ready.values().map(|e| Arc::clone(&e.value)).collect()
    }

    fn occupancy(&self) -> StoreOccupancy {
        let inner = self.inner.lock().expect("cache lock");
        StoreOccupancy {
            entries: inner.ready.len() as u64,
            bytes: inner.bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The front-end stage's output: the front end and, in a run that
/// keeps stores, the content hash of its data path. The hash is taken
/// once per front artifact and is the content half of the netlist key
/// of every DFT output derived from it ([`DftOutput::content_hash`]).
#[derive(Debug, Clone)]
pub struct FrontOutput {
    /// Schedule, binding and the data path before any scan marks.
    pub front: FrontEnd,
    datapath_hash: Option<u64>,
}

impl FrontOutput {
    /// Wraps a front-end stage's result, hashing its data path only
    /// when `hashed` (a run without stores derives no netlist key).
    pub fn new(front: FrontEnd, hashed: bool) -> Self {
        let datapath_hash = hashed.then(|| crate::key::hash_debug(&front.datapath));
        FrontOutput {
            front,
            datapath_hash,
        }
    }
}

/// The DFT stage's output: the scan-marked data path, its post-scan
/// report structure, and the content hash of the marked data path.
#[derive(Debug, Clone)]
pub struct DftOutput {
    /// The data path with the strategy's scan marks applied.
    pub datapath: Datapath,
    /// The width-independent half of every report read from it.
    pub structure: PostScanStructure,
    content_hash: Option<u64>,
}

impl DftOutput {
    /// The DFT stage: applies `flow`'s strategy to `front`'s data path
    /// and builds the post-scan structure from it, once per artifact.
    /// The marked data path's content hash combines the front's hash
    /// with the final scan-register set: [`SynthesisFlow::apply_dft`]
    /// only sets scan flags and the front end sets none, so two marked
    /// data paths render alike exactly when their unmarked data paths
    /// and scan sets do.
    pub fn new(flow: &SynthesisFlow, front: FrontOutput) -> Self {
        let FrontOutput {
            front: mut fe,
            datapath_hash,
        } = front;
        let plans = flow.apply_dft(&mut fe);
        let structure = SynthesisFlow::post_scan_structure(&fe.datapath, plans.bist.as_ref());
        let content_hash = datapath_hash.map(|h| {
            crate::key::combine(&[h, crate::key::hash_debug(&fe.datapath.scan_registers())])
        });
        DftOutput {
            datapath: fe.datapath,
            structure,
            content_hash,
        }
    }

    /// The content hash of the marked data path — the content part of
    /// the netlist key — when the front end it came from was hashed.
    pub fn content_hash(&self) -> Option<u64> {
        self.content_hash
    }
}

/// The grading stage's output: a pseudorandom run and the pattern
/// budget it was graded to.
#[derive(Debug, Clone)]
pub(crate) struct GradingRun {
    /// The budget the run was asked for.
    pub(crate) depth: usize,
    /// The run itself.
    pub(crate) run: RandomRun,
}

/// Whether a run graded to `depth` reads at `budget` exactly as a
/// fresh run at `budget` does. Every batch but the last is a whole
/// 64-pattern word drawn identically at any depth, but a budget that
/// is not a multiple of 64 masks lanes in its last batch. So a run
/// serves its own depth and every whole-batch budget within it.
pub(crate) fn depth_serves(depth: usize, budget: usize) -> bool {
    budget == depth || (budget.is_multiple_of(64) && budget <= depth)
}

/// Per-stage artifact stores for one sweep.
pub struct ArtifactCache {
    pub(crate) front: Store<FrontOutput>,
    pub(crate) facts: Store<SgraphFacts>,
    pub(crate) dft: Store<DftOutput>,
    pub(crate) netlist: Store<ExpandedDatapath>,
    pub(crate) grading: Store<GradingRun>,
}

/// Coarse per-artifact cost estimates for the byte cap. Exact heap
/// accounting is not worth the coupling; these scale with the fields
/// that dominate each artifact (gate counts, curve lengths, register
/// counts) plus a flat overhead for the rest.
fn front_cost(v: &FrontOutput) -> u64 {
    let fe = &v.front;
    1024 + 256 * fe.datapath.registers().len() as u64 + 8 * fe.boundary_scan.len() as u64
}

fn facts_cost(_: &SgraphFacts) -> u64 {
    std::mem::size_of::<SgraphFacts>() as u64
}

fn dft_cost(v: &DftOutput) -> u64 {
    1024 + 256 * v.datapath.registers().len() as u64
}

fn netlist_cost(v: &ExpandedDatapath) -> u64 {
    1024 + 64 * v.netlist.num_gates() as u64
}

fn grading_cost(v: &GradingRun) -> u64 {
    256 + 64 * v.run.curve.len() as u64
}

impl ArtifactCache {
    /// An empty, unbounded cache — the per-sweep default.
    pub fn new() -> Self {
        ArtifactCache::bounded(CacheBounds::unbounded())
    }

    /// An empty cache whose stage stores each enforce `bounds` with
    /// LRU eviction — the daemon-lifetime configuration.
    pub fn bounded(bounds: CacheBounds) -> Self {
        ArtifactCache {
            front: Store::new(bounds, front_cost),
            facts: Store::new(bounds, facts_cost),
            dft: Store::new(bounds, dft_cost),
            netlist: Store::new(bounds, netlist_cost),
            grading: Store::new(bounds, grading_cost),
        }
    }

    /// A snapshot of every stage's occupancy and eviction counters.
    pub fn occupancy(&self) -> CacheOccupancy {
        CacheOccupancy(Stage::ALL.map(|s| match s {
            Stage::Front => self.front.occupancy(),
            Stage::Facts => self.facts.occupancy(),
            Stage::Dft => self.dft.occupancy(),
            Stage::Netlist => self.netlist.occupancy(),
            Stage::Grading => self.grading.occupancy(),
        }))
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn store_hits_after_first_compute() {
        let cache = ArtifactCache::new();
        let mut computed = 0;
        let mut counts = StageCounts::default();
        for round in 0..3 {
            let (v, outcome) = cache
                .facts
                .get_or_try(42, || {
                    computed += 1;
                    Ok::<_, String>(SgraphFacts {
                        cycles: 7,
                        mfvs_size: 2,
                    })
                })
                .unwrap();
            assert_eq!(v.cycles, 7);
            let expect = if round > 0 {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            assert_eq!(outcome, expect);
            counts.record(outcome);
        }
        assert_eq!(computed, 1);
        assert_eq!(
            counts,
            StageCounts {
                hits: 2,
                misses: 1,
                coalesced: 0
            }
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let r = cache
            .facts
            .get_or_try(1, || Err::<SgraphFacts, _>("boom".to_string()));
        assert!(r.is_err());
        // The failed compute left nothing behind; the next call computes.
        let (v, outcome) = cache
            .facts
            .get_or_try(1, || {
                Ok::<_, String>(SgraphFacts {
                    cycles: 1,
                    mfvs_size: 1,
                })
            })
            .unwrap();
        assert_eq!(v.mfvs_size, 1);
        assert_eq!(outcome, CacheOutcome::Miss);
    }

    #[test]
    fn stats_json_names_every_stage() {
        let j = CacheStats::default().to_json();
        for key in [
            "front",
            "facts",
            "dft",
            "netlist",
            "grading",
            "hits",
            "coalesced",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "{j}");
        }
        assert!(hlstb_trace::json::parse(&j).is_ok(), "{j}");
    }

    /// Racing lookups of one key must run the compute exactly once:
    /// the leader blocks inside its compute on a barrier the main
    /// thread releases only after the waiters have had time to queue
    /// up on the flight.
    #[test]
    fn racing_misses_coalesce_onto_one_compute() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let cache = ArtifactCache::new();
        let computed = AtomicUsize::new(0);
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (v, outcome) = cache
                    .facts
                    .get_or_try(9, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        entered.wait();
                        release.wait();
                        Ok::<_, String>(SgraphFacts {
                            cycles: 3,
                            mfvs_size: 1,
                        })
                    })
                    .unwrap();
                assert_eq!(v.cycles, 3);
                assert_eq!(outcome, CacheOutcome::Miss);
            });
            // The leader owns the flight before any waiter looks up.
            entered.wait();
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let (v, outcome) = cache
                            .facts
                            .get_or_try(9, || {
                                computed.fetch_add(1, Ordering::SeqCst);
                                Ok::<_, String>(SgraphFacts {
                                    cycles: 3,
                                    mfvs_size: 1,
                                })
                            })
                            .unwrap();
                        assert_eq!(v.cycles, 3);
                        outcome
                    })
                })
                .collect();
            // Give the waiters time to block on the flight, then let
            // the leader finish. (The sleep only biases hit vs
            // coalesced; single-flight itself is asserted exactly.)
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            let outcomes: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            assert_eq!(computed.load(Ordering::SeqCst), 1);
            // Only the leader missed; every waiter was served.
            assert!(
                outcomes.iter().all(|&o| o != CacheOutcome::Miss),
                "{outcomes:?}"
            );
        });
    }

    /// A leader whose compute fails must hand the lead to a waiter
    /// instead of caching the error or stranding the flight.
    #[test]
    fn failed_leader_hands_lead_to_waiter() {
        use std::sync::Barrier;

        let cache = ArtifactCache::new();
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let r = cache.facts.get_or_try(5, || {
                    entered.wait();
                    release.wait();
                    Err::<SgraphFacts, _>("boom".to_string())
                });
                assert!(r.is_err());
            });
            // The leader owns the flight before the waiter looks up.
            entered.wait();
            let waiter = s.spawn(|| {
                cache
                    .facts
                    .get_or_try(5, || {
                        Ok::<_, String>(SgraphFacts {
                            cycles: 2,
                            mfvs_size: 2,
                        })
                    })
                    .unwrap()
            });
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            let (v, outcome) = waiter.join().unwrap();
            assert_eq!(v.cycles, 2);
            // The waiter retook the lead and computed the value itself.
            assert_eq!(outcome, CacheOutcome::Miss);
        });
    }

    /// A panicking leader (the engine catches point panics) must not
    /// strand waiters: the drop guard evicts the flight and a waiter
    /// recomputes.
    #[test]
    fn panicking_leader_does_not_strand_waiters() {
        use std::sync::Barrier;

        let cache = ArtifactCache::new();
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache
                        .facts
                        .get_or_try(6, || -> Result<SgraphFacts, String> {
                            entered.wait();
                            release.wait();
                            panic!("injected")
                        })
                }));
                assert!(r.is_err());
            });
            // The leader owns the flight before the waiter looks up.
            entered.wait();
            let waiter = s.spawn(|| {
                cache
                    .facts
                    .get_or_try(6, || {
                        Ok::<_, String>(SgraphFacts {
                            cycles: 4,
                            mfvs_size: 4,
                        })
                    })
                    .unwrap()
            });
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            let (v, _) = waiter.join().unwrap();
            assert_eq!(v.cycles, 4);
        });
    }

    fn facts_of(cycles: usize) -> SgraphFacts {
        SgraphFacts {
            cycles,
            mfvs_size: 1,
        }
    }

    /// A ready value that cannot serve a lookup is computed afresh;
    /// the fresh value goes back to its caller either way, but replaces
    /// the stored one only when it outranks it, and a failed compute
    /// leaves the stored one in place.
    #[test]
    fn an_unserving_value_is_recomputed_and_replaced_only_when_deeper() {
        let cache = ArtifactCache::new();
        let lookup = |want: usize, computed: Result<usize, &'static str>| {
            cache.facts.get_or_try_where(
                1,
                |v| v.cycles == want || v.cycles >= 2 * want,
                |new, old| new.cycles > old.cycles,
                || computed.map(facts_of),
            )
        };
        let got = |r: Result<(Arc<SgraphFacts>, CacheOutcome), &'static str>| {
            r.map(|(v, outcome)| (v.cycles, outcome))
        };
        assert_eq!(got(lookup(4, Ok(4))), Ok((4, CacheOutcome::Miss)));
        assert_eq!(got(lookup(2, Ok(99))), Ok((4, CacheOutcome::Hit)));
        assert_eq!(got(lookup(8, Ok(8))), Ok((8, CacheOutcome::Miss)));
        // Shallower than the stored 8: returned, not stored.
        assert_eq!(got(lookup(5, Ok(5))), Ok((5, CacheOutcome::Miss)));
        assert_eq!(got(lookup(4, Ok(99))), Ok((8, CacheOutcome::Hit)));
        // A failed compute keeps the stored value serving.
        assert_eq!(got(lookup(16, Err("cut"))), Err("cut"));
        assert_eq!(got(lookup(8, Ok(99))), Ok((8, CacheOutcome::Hit)));
        assert_eq!(cache.occupancy()[Stage::Facts].entries, 1);
    }

    /// An entry-capped store evicts in least-recently-used order: a
    /// re-touched old key outlives a colder, newer one.
    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let cache = ArtifactCache::bounded(CacheBounds {
            max_entries: Some(2),
            max_bytes: None,
        });
        for key in [1u64, 2] {
            cache
                .facts
                .get_or_try(key, || Ok::<_, String>(facts_of(key as usize)))
                .unwrap();
        }
        // Touch key 1 so key 2 becomes the LRU victim.
        let (_, outcome) = cache
            .facts
            .get_or_try(1, || Ok::<_, String>(facts_of(99)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        cache
            .facts
            .get_or_try(3, || Ok::<_, String>(facts_of(3)))
            .unwrap();
        // Key 1 survived, key 2 was evicted and recomputes.
        let (v, outcome) = cache
            .facts
            .get_or_try(1, || Ok::<_, String>(facts_of(99)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(v.cycles, 1);
        let (_, outcome) = cache
            .facts
            .get_or_try(2, || Ok::<_, String>(facts_of(2)))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let occ = cache.occupancy();
        assert_eq!(occ[Stage::Facts].entries, 2);
        assert_eq!(occ[Stage::Facts].evictions, 2, "{occ:?}");
        assert_eq!(occ.total().evictions, 2);
    }

    /// The byte cap evicts by approximate cost, and occupancy bytes
    /// track residents exactly (insert adds, evict subtracts).
    #[test]
    fn byte_cap_bounds_resident_cost() {
        let unit = std::mem::size_of::<SgraphFacts>() as u64;
        let cache = ArtifactCache::bounded(CacheBounds {
            max_entries: None,
            max_bytes: Some(3 * unit),
        });
        for key in 0..10u64 {
            cache
                .facts
                .get_or_try(key, || Ok::<_, String>(facts_of(key as usize)))
                .unwrap();
            let occ = cache.occupancy()[Stage::Facts];
            assert!(occ.bytes <= 3 * unit, "{occ:?}");
            assert_eq!(occ.bytes, occ.entries * unit);
        }
        let occ = cache.occupancy()[Stage::Facts];
        assert_eq!(occ.entries, 3);
        assert_eq!(occ.evictions, 7);
    }

    /// Unbounded caches never evict and report zero eviction pressure.
    #[test]
    fn unbounded_cache_reports_occupancy_without_evictions() {
        let cache = ArtifactCache::new();
        for key in 0..5u64 {
            cache
                .facts
                .get_or_try(key, || Ok::<_, String>(facts_of(key as usize)))
                .unwrap();
        }
        let occ = cache.occupancy();
        assert_eq!(occ[Stage::Facts].entries, 5);
        assert_eq!(occ.total().evictions, 0);
        assert!(occ.total().bytes > 0);
        let j = occ.to_json();
        for key in ["entries", "bytes", "evictions", "front", "grading"] {
            assert!(j.contains(&format!("\"{key}\"")), "{j}");
        }
        assert!(hlstb_trace::json::parse(&j).is_ok(), "{j}");
    }

    /// Capacity pressure must not evict an in-flight slot: the leader
    /// publishes and its waiters all get the value even when the store
    /// is saturated by other inserts while the flight is open.
    #[test]
    fn inflight_slots_survive_capacity_pressure() {
        use std::sync::Barrier;

        let cache = ArtifactCache::bounded(CacheBounds {
            max_entries: Some(1),
            max_bytes: None,
        });
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (v, outcome) = cache
                    .facts
                    .get_or_try(7, || {
                        entered.wait();
                        release.wait();
                        Ok::<_, String>(facts_of(7))
                    })
                    .unwrap();
                assert_eq!(v.cycles, 7);
                assert_eq!(outcome, CacheOutcome::Miss);
            });
            // The leader owns the flight before the waiter looks up.
            entered.wait();
            let waiter = s.spawn(|| {
                cache
                    .facts
                    .get_or_try(7, || Ok::<_, String>(facts_of(7)))
                    .unwrap()
            });
            std::thread::sleep(Duration::from_millis(30));
            // Saturate the store while the flight is open.
            for key in 100..105u64 {
                cache
                    .facts
                    .get_or_try(key, || Ok::<_, String>(facts_of(0)))
                    .unwrap();
            }
            release.wait();
            let (v, _) = waiter.join().unwrap();
            assert_eq!(v.cycles, 7);
        });
        assert!(cache.occupancy()[Stage::Facts].entries <= 1);
    }

    #[test]
    fn stats_round_trip_json_and_merge() {
        let mut a = CacheStats::default();
        a[Stage::Front] = StageCounts {
            hits: 3,
            misses: 2,
            coalesced: 1,
        };
        a[Stage::Grading].misses = 7;
        let v = hlstb_trace::json::parse(&a.to_json()).expect("stats render as JSON");
        let back = CacheStats::from_json(&v).expect("stats parse back");
        assert_eq!(back, a);
        // Totals are derived from the parsed stages.
        assert_eq!(back.total().hits, 3);
        assert_eq!(back.total().misses, 9);
        // Merge is per-stage addition.
        let mut sum = back;
        sum.merge(&a);
        assert_eq!(sum[Stage::Front].hits, 6);
        assert_eq!(sum[Stage::Grading].misses, 14);
        assert_eq!(sum.total().coalesced, 2);
        // A non-stats object is rejected, not zero-filled.
        let bogus = hlstb_trace::json::parse("{\"hits\": 1}").unwrap();
        assert!(CacheStats::from_json(&bogus).is_none());
    }
}
