//! Per-layer numbers from the `hlstb_trace::events` journal.
//!
//! The engine journals one `point.stage` record per pipeline stage of
//! every point (stage name, cache outcome, wall time), one
//! `point.grading` record per grading run it computes (work counters),
//! and one `point.completed` record per point (wall time). This module
//! folds those records into per-layer totals, named by [`STAGES`].
//!
//! A stage's `misses` metric counts computations: cache misses plus
//! evaluations with the cache off (outcome `off`). The `dse.cache.*`
//! metrics count cache lookups only.

use std::collections::BTreeMap;

use hlstb_trace::events::{FieldValue, Journal, Record};

use crate::stats::ratio;
use crate::Metric;

/// Stage names as journaled, in pipeline order, with the metric
/// prefix of each.
pub const STAGES: [(&str, &str); 5] = [
    ("front", "hls.front"),
    ("facts", "sgraph.facts"),
    ("dft", "dft.apply"),
    ("netlist", "hls.expand"),
    ("grading", "netlist.grade"),
];

/// Busy time and cache outcomes of one stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    /// Summed stage wall time, µs.
    pub busy_us: u64,
    /// Cache misses (each one a computation).
    pub misses: u64,
    /// Evaluations with the cache off (each one a computation).
    pub uncached: u64,
    /// Cache hits.
    pub hits: u64,
    /// Lookups that waited on another thread's computation.
    pub coalesced: u64,
}

/// Journal totals over some number of jobs (sweeps or requests).
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Per stage, indexed like [`STAGES`].
    pub stages: [StageTotals; 5],
    /// Summed `point.completed`/`point.failed` wall time, µs.
    pub point_wall_us: u64,
    /// Grading work counters, summed over computed grading runs.
    pub faults: u64,
    /// Single-fault evaluations.
    pub fault_evals: u64,
    /// Faults dropped on first detection.
    pub dropped: u64,
    /// Gates of the netlists the expand stage computed.
    pub gates: u64,
    /// Per job: max over min of points per evaluating thread.
    pub balance: Vec<f64>,
}

fn field<'a>(r: &'a Record, name: &str) -> Option<&'a FieldValue> {
    r.fields.iter().find(|f| f.name == name).map(|f| &f.value)
}

fn u64_field(r: &Record, name: &str) -> u64 {
    match field(r, name) {
        Some(FieldValue::U64(v)) => *v,
        _ => 0,
    }
}

fn str_field<'a>(r: &'a Record, name: &str) -> &'a str {
    match field(r, name) {
        Some(FieldValue::Str(s)) => s,
        _ => "",
    }
}

impl LayerTotals {
    /// Folds one job's journal in. `gates_of(point)` is the gate count
    /// of the point's netlist, when the caller can attribute it.
    pub fn absorb(&mut self, journal: &Journal, gates_of: &dyn Fn(u64) -> Option<u64>) {
        let mut per_thread: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &journal.records {
            match r.kind {
                "point.stage" => {
                    let Some(i) = STAGES.iter().position(|s| s.0 == str_field(r, "stage")) else {
                        continue;
                    };
                    let s = &mut self.stages[i];
                    s.busy_us += u64_field(r, "wall_us");
                    let computed = match str_field(r, "cache") {
                        "hit" => {
                            s.hits += 1;
                            false
                        }
                        "coalesced" => {
                            s.coalesced += 1;
                            false
                        }
                        "miss" => {
                            s.misses += 1;
                            true
                        }
                        _ => {
                            s.uncached += 1;
                            true
                        }
                    };
                    if computed && STAGES[i].0 == "netlist" {
                        self.gates += r.point.and_then(gates_of).unwrap_or(0);
                    }
                }
                "point.grading" => {
                    self.faults += u64_field(r, "faults");
                    self.fault_evals += u64_field(r, "fault_evals");
                    self.dropped += u64_field(r, "dropped");
                }
                "point.completed" | "point.failed" => {
                    self.point_wall_us += u64_field(r, "wall_us");
                    *per_thread.entry(r.tid).or_default() += 1;
                }
                _ => {}
            }
        }
        let max = per_thread.values().copied().max().unwrap_or(0);
        let min = per_thread.values().copied().min().unwrap_or(0);
        if min > 0 {
            self.balance.push(max as f64 / min as f64);
        }
    }

    /// Summed stage busy time, µs.
    pub fn stage_busy_us(&self) -> u64 {
        self.stages.iter().map(|s| s.busy_us).sum()
    }

    /// Computations of stage `i`: cache misses plus uncached runs.
    pub fn computed(&self, i: usize) -> u64 {
        self.stages[i].misses + self.stages[i].uncached
    }

    /// Cache lookups over every stage: (hits, misses, coalesced).
    pub fn cache_lookups(&self) -> (u64, u64, u64) {
        self.stages.iter().fold((0, 0, 0), |(h, m, c), s| {
            (h + s.hits, m + s.misses, c + s.coalesced)
        })
    }

    /// The journal-derived metrics every workload reports, per job (a
    /// sweep, or a serve request).
    pub fn metrics(&self, jobs: f64) -> Vec<Metric> {
        let t = self;
        let per = |x: u64| x as f64 / jobs.max(1.0);
        let mut out = Vec::new();
        for (i, (_, layer)) in STAGES.iter().enumerate() {
            out.push(Metric::new(
                format!("{layer}.busy_ms"),
                per(t.stages[i].busy_us) / 1e3,
                "ms",
            ));
            out.push(Metric::new(
                format!("{layer}.misses"),
                per(t.computed(i)),
                "count",
            ));
        }
        let grade = &t.stages[4];
        let (hits, misses, coalesced) = t.cache_lookups();
        let lookups = (hits + misses + coalesced) as f64;
        out.extend([
            Metric::new("netlist.grade.coalesced", per(grade.coalesced), "count"),
            Metric::new("netlist.grade.faults", per(t.faults), "count"),
            Metric::new("netlist.grade.fault_evals", per(t.fault_evals), "count"),
            Metric::new("netlist.grade.dropped", per(t.dropped), "count"),
            Metric::new("hls.expand.gates", per(t.gates), "count"),
            Metric::new(
                "dse.unattributed_ms",
                per(t.point_wall_us.saturating_sub(t.stage_busy_us())) / 1e3,
                "ms",
            ),
            Metric::new("dse.cache.hits", per(hits), "count"),
            Metric::new("dse.cache.misses", per(misses), "count"),
            Metric::new("dse.cache.coalesced", per(coalesced), "count"),
            Metric::new(
                "dse.cache.hit_ratio",
                ratio((hits + coalesced) as f64, lookups),
                "ratio",
            ),
            Metric::new(
                "dse.worker.lane_points_max_over_min",
                if t.balance.is_empty() {
                    1.0
                } else {
                    t.balance.iter().sum::<f64>() / t.balance.len() as f64
                },
                "ratio",
            ),
        ]);
        out
    }
}
