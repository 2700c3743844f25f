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
//! instead of duplicating the (often expensive) stage work, and is
//! counted as a *coalesced* lookup when the leader's value lands. If
//! the leader's compute fails or panics, a drop guard removes the slot
//! and wakes the waiters, so exactly one of them retakes the lead —
//! errors are never cached and no waiter can deadlock on a dead
//! flight. Lock discipline is unchanged: a store's mutex is held only
//! for the lookup and the insert, never across a compute or a wait.
//!
//! A bounded cache enforces [`CacheBounds`] per stage store: every hit
//! stamps the entry with a monotone use tick, and an insert that takes
//! the store over its entry or (approximate) byte cap evicts
//! least-recently-used *ready* entries until it fits. In-flight slots
//! are never evicted — a leader always gets to publish, and eviction
//! can only forget finished artifacts (a later lookup simply
//! recomputes). Evictions and occupancy are surfaced through
//! [`ArtifactCache::occupancy`] for the serve metrics snapshot;
//! [`CacheStats`] (the wire-protocol payload) is unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hlstb::flow::{DftPlans, FrontEnd, SgraphFacts};
use hlstb::hls::datapath::Datapath;
use hlstb::hls::expand::ExpandedDatapath;
use hlstb::netlist::random::RandomRun;
use hlstb_trace::json::{Obj, Value};

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

/// Lookup counters of one stage store.
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
    /// Adds another snapshot's counters into this one.
    pub fn merge(&mut self, other: StageCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
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

/// A snapshot of every stage's lookup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Front-end artifacts (schedule + binding + data path).
    pub front: StageCounts,
    /// Strategy-independent S-graph facts.
    pub facts: StageCounts,
    /// DFT-processed data paths and plans.
    pub dft: StageCounts,
    /// Gate-level expansions.
    pub netlist: StageCounts,
    /// Pseudorandom grading runs.
    pub grading: StageCounts,
}

impl CacheStats {
    /// Total hits across all stages.
    pub fn hits(&self) -> u64 {
        self.front.hits + self.facts.hits + self.dft.hits + self.netlist.hits + self.grading.hits
    }

    /// Total misses across all stages.
    pub fn misses(&self) -> u64 {
        self.front.misses
            + self.facts.misses
            + self.dft.misses
            + self.netlist.misses
            + self.grading.misses
    }

    /// Total coalesced lookups across all stages.
    pub fn coalesced(&self) -> u64 {
        self.front.coalesced
            + self.facts.coalesced
            + self.dft.coalesced
            + self.netlist.coalesced
            + self.grading.coalesced
    }

    /// Lookups served without computing (hits plus coalesced waits) as
    /// a percentage of all lookups (0.0 when nothing was looked up — a
    /// `--no-cache` or empty sweep).
    pub fn hit_rate_percent(&self) -> f64 {
        let served = self.hits() + self.coalesced();
        let total = served + self.misses();
        if total == 0 {
            0.0
        } else {
            served as f64 * 100.0 / total as f64
        }
    }

    /// The stats as a JSON object (per stage plus totals).
    pub fn to_json(&self) -> String {
        let stage = |c: StageCounts| {
            let mut o = Obj::new();
            o.number_u64("hits", c.hits)
                .number_u64("misses", c.misses)
                .number_u64("coalesced", c.coalesced);
            o.finish()
        };
        let mut o = Obj::new();
        o.number_u64("hits", self.hits())
            .number_u64("misses", self.misses())
            .number_u64("coalesced", self.coalesced())
            .raw("front", &stage(self.front))
            .raw("facts", &stage(self.facts))
            .raw("dft", &stage(self.dft))
            .raw("netlist", &stage(self.netlist))
            .raw("grading", &stage(self.grading));
        o.finish()
    }

    /// Parses the object [`to_json`](Self::to_json) renders (the
    /// per-worker payload of the wire protocol's `done` frame). `None`
    /// when any per-stage object is missing or malformed — the totals
    /// are derived, so only the stages are read back.
    pub fn from_json(v: &Value) -> Option<CacheStats> {
        Some(CacheStats {
            front: StageCounts::from_json(v.get("front")?)?,
            facts: StageCounts::from_json(v.get("facts")?)?,
            dft: StageCounts::from_json(v.get("dft")?)?,
            netlist: StageCounts::from_json(v.get("netlist")?)?,
            grading: StageCounts::from_json(v.get("grading")?)?,
        })
    }

    /// Adds another snapshot's counters into this one, stage by stage
    /// (fleet-wide aggregation across worker lanes).
    pub fn merge(&mut self, other: &CacheStats) {
        self.front.merge(other.front);
        self.facts.merge(other.facts);
        self.dft.merge(other.dft);
        self.netlist.merge(other.netlist);
        self.grading.merge(other.grading);
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

/// A snapshot of every stage store's occupancy, for the serve metrics
/// endpoint. Deliberately separate from [`CacheStats`]: stats travel
/// on the wire in `done` frames and must stay byte-stable, occupancy
/// is daemon-local and volatile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Front-end artifacts.
    pub front: StoreOccupancy,
    /// S-graph facts.
    pub facts: StoreOccupancy,
    /// DFT outputs.
    pub dft: StoreOccupancy,
    /// Gate-level expansions.
    pub netlist: StoreOccupancy,
    /// Pseudorandom grading runs.
    pub grading: StoreOccupancy,
}

impl CacheOccupancy {
    /// Total resident entries across all stages.
    pub fn entries(&self) -> u64 {
        self.front.entries
            + self.facts.entries
            + self.dft.entries
            + self.netlist.entries
            + self.grading.entries
    }

    /// Total approximate resident bytes across all stages.
    pub fn bytes(&self) -> u64 {
        self.front.bytes
            + self.facts.bytes
            + self.dft.bytes
            + self.netlist.bytes
            + self.grading.bytes
    }

    /// Total evictions across all stages.
    pub fn evictions(&self) -> u64 {
        self.front.evictions
            + self.facts.evictions
            + self.dft.evictions
            + self.netlist.evictions
            + self.grading.evictions
    }

    /// The occupancy as a JSON object (totals plus per stage).
    pub fn to_json(&self) -> String {
        let stage = |c: StoreOccupancy| {
            let mut o = Obj::new();
            o.number_u64("entries", c.entries)
                .number_u64("bytes", c.bytes)
                .number_u64("evictions", c.evictions);
            o.finish()
        };
        let mut o = Obj::new();
        o.number_u64("entries", self.entries())
            .number_u64("bytes", self.bytes())
            .number_u64("evictions", self.evictions())
            .raw("front", &stage(self.front))
            .raw("facts", &stage(self.facts))
            .raw("dft", &stage(self.dft))
            .raw("netlist", &stage(self.netlist))
            .raw("grading", &stage(self.grading));
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

/// A slot in a store's map: either the finished artifact or a flight
/// the current leader is still computing.
enum Slot<T> {
    Ready(ReadyEntry<T>),
    InFlight(Arc<Flight>),
}

/// The lock-guarded half of a store: the slot map plus the LRU tick
/// and the running byte total of ready entries (in-flight slots cost
/// nothing until they publish).
struct Inner<T> {
    map: HashMap<u64, Slot<T>>,
    tick: u64,
    bytes: u64,
    ready: u64,
}

/// One stage's store: keyed `Arc` values with single-flight misses and
/// optional LRU capacity bounds, plus lookup instrumentation bridged
/// to the trace layer under static counter names.
pub(crate) struct Store<T> {
    inner: Mutex<Inner<T>>,
    bounds: CacheBounds,
    cost_fn: fn(&T) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    hit_counter: &'static str,
    miss_counter: &'static str,
    coalesced_counter: &'static str,
}

/// Removes a leader's in-flight slot and wakes its waiters unless the
/// leader disarmed it after publishing a ready value. Runs on the
/// error return *and* during unwinding, so a panicking compute (the
/// engine catches point panics) can never strand waiters on a flight
/// nobody is working on.
struct FlightGuard<'a, T> {
    store: &'a Store<T>,
    key: u64,
    flight: Arc<Flight>,
    armed: bool,
}

impl<T> Drop for FlightGuard<'_, T> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.store.inner.lock().expect("cache lock");
        if let Some(Slot::InFlight(f)) = inner.map.get(&self.key) {
            if Arc::ptr_eq(f, &self.flight) {
                inner.map.remove(&self.key);
            }
        }
        drop(inner);
        self.flight.settle();
    }
}

impl<T> Store<T> {
    fn new(
        bounds: CacheBounds,
        cost_fn: fn(&T) -> u64,
        hit_counter: &'static str,
        miss_counter: &'static str,
        coalesced_counter: &'static str,
    ) -> Self {
        Store {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                ready: 0,
            }),
            bounds,
            cost_fn,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hit_counter,
            miss_counter,
            coalesced_counter,
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
        let mut waited = false;
        loop {
            let flight = {
                let mut inner = self.inner.lock().expect("cache lock");
                inner.tick += 1;
                let tick = inner.tick;
                match inner.map.get_mut(&key) {
                    Some(Slot::Ready(e)) => {
                        e.last_used = tick;
                        let v = Arc::clone(&e.value);
                        drop(inner);
                        return Ok((v, self.record_served(waited)));
                    }
                    Some(Slot::InFlight(f)) => Arc::clone(f),
                    None => {
                        let f = Arc::new(Flight::new());
                        inner.map.insert(key, Slot::InFlight(Arc::clone(&f)));
                        drop(inner);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        hlstb_trace::counter(self.miss_counter, 1);
                        let mut guard = FlightGuard {
                            store: self,
                            key,
                            flight: f,
                            armed: true,
                        };
                        // An Err (or a panic) drops the armed guard,
                        // which evicts the flight and wakes waiters.
                        let v = Arc::new(compute()?);
                        self.publish(key, Arc::clone(&v));
                        guard.armed = false;
                        guard.flight.settle();
                        return Ok((v, CacheOutcome::Miss));
                    }
                }
            };
            flight.wait();
            waited = true;
        }
    }

    /// Installs a leader's finished value, then evicts
    /// least-recently-used ready entries until the store is back under
    /// its bounds. In-flight slots are untouchable: they carry waiters
    /// and no bytes. The freshly published entry holds the newest use
    /// tick, so LRU only claims it when it alone exceeds the byte cap
    /// — an artifact the store cannot hold at all.
    fn publish(&self, key: u64, value: Arc<T>) {
        let cost = (self.cost_fn)(value.as_ref());
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let old = inner.map.insert(
            key,
            Slot::Ready(ReadyEntry {
                value,
                last_used: tick,
                cost,
            }),
        );
        inner.bytes += cost;
        inner.ready += 1;
        if let Some(Slot::Ready(e)) = old {
            // A re-publish over an existing ready slot (possible when
            // a guard-evicted leader's waiter recomputed first).
            inner.bytes -= e.cost;
            inner.ready -= 1;
        }
        let over = |inner: &Inner<T>| {
            self.bounds
                .max_entries
                .is_some_and(|cap| inner.ready as usize > cap)
                || self.bounds.max_bytes.is_some_and(|cap| inner.bytes > cap)
        };
        while over(&inner) {
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(e) => Some((e.last_used, *k)),
                    Slot::InFlight(_) => None,
                })
                .min();
            let Some((_, victim_key)) = victim else { break };
            if let Some(Slot::Ready(e)) = inner.map.remove(&victim_key) {
                inner.bytes -= e.cost;
                inner.ready -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Every ready value, in no particular order.
    #[cfg(test)]
    pub(crate) fn ready_values(&self) -> Vec<Arc<T>> {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .map
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready(e) => Some(Arc::clone(&e.value)),
                Slot::InFlight(_) => None,
            })
            .collect()
    }

    fn record_served(&self, waited: bool) -> CacheOutcome {
        if waited {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            hlstb_trace::counter(self.coalesced_counter, 1);
            CacheOutcome::Coalesced
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hlstb_trace::counter(self.hit_counter, 1);
            CacheOutcome::Hit
        }
    }

    fn counts(&self) -> StageCounts {
        StageCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    fn occupancy(&self) -> StoreOccupancy {
        let inner = self.inner.lock().expect("cache lock");
        StoreOccupancy {
            entries: inner.ready,
            bytes: inner.bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The DFT stage's cached output: the scan-marked data path plus the
/// plans the strategy attached.
#[derive(Debug, Clone)]
pub struct DftOutput {
    datapath: Datapath,
    datapath_hash: u64,
    /// BIST / test-point plans.
    pub plans: DftPlans,
}

impl DftOutput {
    /// Wraps a DFT stage's result, hashing the marked data path once
    /// so a cache hit never re-renders it.
    pub fn new(datapath: Datapath, plans: DftPlans) -> Self {
        DftOutput {
            datapath_hash: crate::key::hash_debug(&datapath),
            datapath,
            plans,
        }
    }

    /// The data path with the strategy's scan marks applied.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// [`key::hash_debug`](crate::key::hash_debug) of
    /// [`datapath`](Self::datapath) — the content part of the netlist
    /// key.
    pub fn datapath_hash(&self) -> u64 {
        self.datapath_hash
    }
}

/// Per-stage artifact stores for one sweep.
pub struct ArtifactCache {
    pub(crate) front: Store<FrontEnd>,
    pub(crate) facts: Store<SgraphFacts>,
    pub(crate) dft: Store<DftOutput>,
    pub(crate) netlist: Store<ExpandedDatapath>,
    pub(crate) grading: Store<RandomRun>,
}

/// Coarse per-artifact cost estimates for the byte cap. Exact heap
/// accounting is not worth the coupling; these scale with the fields
/// that dominate each artifact (gate counts, curve lengths, register
/// counts) plus a flat overhead for the rest.
fn front_cost(v: &FrontEnd) -> u64 {
    1024 + 256 * v.datapath.registers().len() as u64 + 8 * v.boundary_scan.len() as u64
}

fn facts_cost(_: &SgraphFacts) -> u64 {
    std::mem::size_of::<SgraphFacts>() as u64
}

fn dft_cost(v: &DftOutput) -> u64 {
    1024 + 256 * v.datapath().registers().len() as u64
}

fn netlist_cost(v: &ExpandedDatapath) -> u64 {
    1024 + 64 * v.netlist.num_gates() as u64
}

fn grading_cost(v: &RandomRun) -> u64 {
    256 + 64 * v.curve.len() as u64
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
            front: Store::new(
                bounds,
                front_cost,
                "dse.cache.front.hit",
                "dse.cache.front.miss",
                "dse.cache.front.coalesced",
            ),
            facts: Store::new(
                bounds,
                facts_cost,
                "dse.cache.facts.hit",
                "dse.cache.facts.miss",
                "dse.cache.facts.coalesced",
            ),
            dft: Store::new(
                bounds,
                dft_cost,
                "dse.cache.dft.hit",
                "dse.cache.dft.miss",
                "dse.cache.dft.coalesced",
            ),
            netlist: Store::new(
                bounds,
                netlist_cost,
                "dse.cache.netlist.hit",
                "dse.cache.netlist.miss",
                "dse.cache.netlist.coalesced",
            ),
            grading: Store::new(
                bounds,
                grading_cost,
                "dse.cache.grading.hit",
                "dse.cache.grading.miss",
                "dse.cache.grading.coalesced",
            ),
        }
    }

    /// A snapshot of every stage's lookup counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            front: self.front.counts(),
            facts: self.facts.counts(),
            dft: self.dft.counts(),
            netlist: self.netlist.counts(),
            grading: self.grading.counts(),
        }
    }

    /// A snapshot of every stage's occupancy and eviction counters.
    pub fn occupancy(&self) -> CacheOccupancy {
        CacheOccupancy {
            front: self.front.occupancy(),
            facts: self.facts.occupancy(),
            dft: self.dft.occupancy(),
            netlist: self.netlist.occupancy(),
            grading: self.grading.occupancy(),
        }
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
        }
        assert_eq!(computed, 1);
        let s = cache.stats();
        assert_eq!(
            s.facts,
            StageCounts {
                hits: 2,
                misses: 1,
                coalesced: 0
            }
        );
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.coalesced(), 0);
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
        let j = ArtifactCache::new().stats().to_json();
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
                        assert_ne!(outcome, CacheOutcome::Miss);
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
            let s = cache.stats();
            assert_eq!(s.facts.misses, 1);
            assert_eq!(
                s.facts.hits + s.facts.coalesced,
                outcomes.len() as u64,
                "{s:?}"
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
            let (v, _) = waiter.join().unwrap();
            assert_eq!(v.cycles, 2);
        });
        let s = cache.stats();
        // Both the failed and the succeeding compute count as misses.
        assert_eq!(s.facts.misses, 2);
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
        assert_eq!(occ.facts.entries, 2);
        assert_eq!(occ.facts.evictions, 2, "{occ:?}");
        assert_eq!(occ.evictions(), 2);
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
            let occ = cache.occupancy().facts;
            assert!(occ.bytes <= 3 * unit, "{occ:?}");
            assert_eq!(occ.bytes, occ.entries * unit);
        }
        let occ = cache.occupancy().facts;
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
        assert_eq!(occ.facts.entries, 5);
        assert_eq!(occ.evictions(), 0);
        assert!(occ.bytes() > 0);
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
        assert!(cache.occupancy().facts.entries <= 1);
    }

    #[test]
    fn stats_round_trip_json_and_merge() {
        let a = CacheStats {
            front: StageCounts {
                hits: 3,
                misses: 2,
                coalesced: 1,
            },
            grading: StageCounts {
                hits: 0,
                misses: 7,
                coalesced: 0,
            },
            ..CacheStats::default()
        };
        let v = hlstb_trace::json::parse(&a.to_json()).expect("stats render as JSON");
        let back = CacheStats::from_json(&v).expect("stats parse back");
        assert_eq!(back, a);
        // Totals are derived from the parsed stages.
        assert_eq!(back.hits(), 3);
        assert_eq!(back.misses(), 9);
        // Merge is per-stage addition.
        let mut sum = back;
        sum.merge(&a);
        assert_eq!(sum.front.hits, 6);
        assert_eq!(sum.grading.misses, 14);
        assert_eq!(sum.coalesced(), 2);
        // A non-stats object is rejected, not zero-filled.
        let bogus = hlstb_trace::json::parse("{\"hits\": 1}").unwrap();
        assert!(CacheStats::from_json(&bogus).is_none());
    }
}
