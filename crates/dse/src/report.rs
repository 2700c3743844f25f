//! Deterministic sweep reports.
//!
//! [`SweepReport::canonical_json`] renders only run-invariant content —
//! point coordinates, synthesis/coverage metrics, and typed failure
//! records, in point-index order — so a parallel cached sweep and a
//! serial uncached sweep of the same spec produce byte-identical
//! documents (enforced by tests and the CI smoke step).
//! [`SweepReport::to_json`] adds the run-varying envelope: wall/CPU
//! time, worker count, retry/restore counters, cache counters.
//!
//! A point restored from a checkpoint carries its original canonical
//! JSON verbatim ([`PointRecord::restored`]) and re-emits those exact
//! bytes, which is what makes a resumed sweep byte-identical to an
//! uninterrupted one without re-deriving float formatting.

use std::time::Duration;

use hlstb::report::TestabilityReport;
use hlstb_trace::json::{number_f64, Obj};

use crate::cache::CacheStats;
use crate::error::PointError;

/// Run-invariant metrics of one successfully synthesized point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// The flow's testability report (never carries grading/ATPG
    /// payloads — sweep grading is recorded in `coverage_percent` so
    /// cached and uncached runs stay comparable).
    pub report: TestabilityReport,
    /// Stuck-at coverage at the point's pattern budget, when the point
    /// asked for grading.
    pub coverage_percent: Option<f64>,
    /// Whether the point's wall-clock budget expired mid-grading:
    /// `coverage_percent` is then a truncated lower bound, not the
    /// coverage at the requested budget.
    pub timed_out: bool,
}

/// One sweep point's result, in enumeration order.
#[derive(Debug, Clone)]
pub struct PointRecord {
    /// Point index (slot in the spec's enumeration).
    pub index: usize,
    /// Design name.
    pub design: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Register-policy name.
    pub policy: String,
    /// DFT-strategy name.
    pub strategy: String,
    /// Data-path width in bits.
    pub width: u32,
    /// Pattern budget (0 = ungraded).
    pub patterns: usize,
    /// Metrics, or the typed failure that ended the point.
    pub outcome: Result<PointMetrics, PointError>,
    /// Wall time this point took to evaluate (excluded from canonical
    /// output; ~zero for restored points).
    pub wall: Duration,
    /// When the point was served from a checkpoint: its original
    /// canonical JSON object, re-emitted verbatim so a resumed sweep's
    /// canonical document stays byte-identical.
    pub restored: Option<String>,
}

impl PointRecord {
    /// The point's canonical (run-invariant) JSON object — also the
    /// payload the checkpoint stores.
    pub(crate) fn canonical_point_json(&self) -> String {
        self.to_json(false)
    }

    /// The point's JSON object; timing only when `with_timing`.
    fn to_json(&self, with_timing: bool) -> String {
        if let Some(raw) = &self.restored {
            if !with_timing {
                return raw.clone();
            }
            // Splice the timing field into the verbatim object rather
            // than re-rendering, so full and canonical outputs agree.
            let body = raw.trim_end().strip_suffix('}').unwrap_or(raw);
            return format!(
                "{body}, \"wall_ms\": {:.3}}}",
                self.wall.as_secs_f64() * 1e3
            );
        }
        let mut o = Obj::new();
        o.number_u64("index", self.index as u64)
            .string("design", &self.design)
            .string("scheduler", &self.scheduler)
            .string("policy", &self.policy)
            .string("strategy", &self.strategy)
            .number_u64("width", u64::from(self.width))
            .number_u64("patterns", self.patterns as u64);
        match &self.outcome {
            Ok(m) => {
                o.raw(
                    "coverage_percent",
                    &m.coverage_percent.map_or("null".into(), number_f64),
                );
                o.boolean("timed_out", m.timed_out);
                o.raw("error", "null");
                o.raw("report", &m.report.to_json());
            }
            Err(e) => {
                o.raw("coverage_percent", "null");
                o.boolean("timed_out", false);
                o.raw("error", &e.to_json());
                o.raw("report", "null");
            }
        }
        if with_timing {
            o.raw("wall_ms", &format!("{:.3}", self.wall.as_secs_f64() * 1e3));
        }
        o.finish()
    }
}

/// The full result of one sweep, points ordered by index.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-point records, index order.
    pub points: Vec<PointRecord>,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Worker *processes* a scale-out sweep sharded over (0 = the
    /// in-process pool).
    pub workers: usize,
    /// Whether the artifact cache was enabled, and the run's lookups.
    pub cache: Option<CacheStats>,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Summed per-point wall time (the work the pool executed).
    pub cpu: Duration,
    /// Points served from the resume checkpoint instead of evaluated.
    pub restored: usize,
    /// Per-point retry attempts the bounded-retry policy performed
    /// (transient point failures: panics, timeouts). In a scale-out
    /// sweep this is the fleet-wide sum the workers reported.
    pub retries: u64,
    /// Leased points re-issued to another lane because their worker
    /// died mid-lease (transport recovery, not point failures; always
    /// 0 for in-process sweeps).
    pub reissued: u64,
    /// Whether a checkpoint write failure downgraded the run to
    /// checkpoint-less mode mid-sweep (results are complete; the
    /// checkpoint file is not).
    pub checkpoint_degraded: bool,
}

impl SweepReport {
    /// Points that failed, as `(index, error)` pairs.
    pub fn errors(&self) -> Vec<(usize, &PointError)> {
        self.points
            .iter()
            .filter_map(|p| p.outcome.as_ref().err().map(|e| (p.index, e)))
            .collect()
    }

    /// Failure totals grouped by [`PointError::kind`], name-sorted.
    /// Empty when every point succeeded.
    pub fn error_kinds(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut kinds = std::collections::BTreeMap::new();
        for p in &self.points {
            if let Err(e) = &p.outcome {
                *kinds.entry(e.kind()).or_insert(0) += 1;
            }
        }
        kinds
    }

    /// Points whose wall-clock budget expired: timeout failures plus
    /// successes with truncated (timed-out) coverage.
    pub fn timeouts(&self) -> usize {
        self.points
            .iter()
            .filter(|p| match &p.outcome {
                Ok(m) => m.timed_out,
                Err(e) => matches!(e, PointError::Timeout { .. }),
            })
            .count()
    }

    fn points_json(&self, with_timing: bool) -> String {
        let mut out = String::from("[\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&p.to_json(with_timing));
            if i + 1 < self.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        out
    }

    /// The run-invariant document: identical bytes for any thread
    /// count and cache setting, because every field depends only on
    /// the spec (and any injected fail plan).
    pub fn canonical_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"dse_sweep\",\n");
        out.push_str(&format!("  \"points\": {}\n", self.points_json(false)));
        out.push('}');
        out
    }

    /// The full document: canonical content plus the run envelope
    /// (threads, wall/CPU time, per-point wall, retry/restore counts,
    /// cache counters).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"dse_sweep\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"wall_ms\": {},\n", ms(self.wall)));
        out.push_str(&format!("  \"cpu_ms\": {},\n", ms(self.cpu)));
        out.push_str(&format!("  \"failures\": {},\n", self.errors().len()));
        let kinds = self
            .error_kinds()
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("  \"error_kinds\": {{{kinds}}},\n"));
        out.push_str(&format!("  \"retries\": {},\n", self.retries));
        out.push_str(&format!("  \"reissued\": {},\n", self.reissued));
        out.push_str(&format!(
            "  \"checkpoint_degraded\": {},\n",
            self.checkpoint_degraded
        ));
        out.push_str(&format!("  \"timeouts\": {},\n", self.timeouts()));
        out.push_str(&format!("  \"restored\": {},\n", self.restored));
        match &self.cache {
            Some(c) => {
                out.push_str(&format!(
                    "  \"cache_hit_rate_percent\": {},\n",
                    number_f64(c.total().hit_rate_percent())
                ));
                out.push_str(&format!("  \"cache\": {},\n", c.to_json()));
            }
            None => {
                out.push_str("  \"cache_hit_rate_percent\": null,\n");
                out.push_str("  \"cache\": null,\n");
            }
        }
        out.push_str(&format!("  \"points\": {}\n", self.points_json(true)));
        out.push('}');
        out
    }

    /// A fixed-width text table of the sweep (the CLI's default
    /// rendering).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4}  {:<12} {:<24} {:<13} {:>5} {:>8} {:>6} {:>8} {:>7} {:>7}\n",
            "#",
            "design",
            "strategy",
            "policy",
            "width",
            "patterns",
            "scan",
            "gates",
            "area",
            "cov %"
        ));
        for p in &self.points {
            match &p.outcome {
                Ok(m) => {
                    let cov = m
                        .coverage_percent
                        .map_or("-".to_string(), |c| format!("{c:.1}"));
                    let cov = if m.timed_out { format!("{cov}*") } else { cov };
                    out.push_str(&format!(
                        "{:>4}  {:<12} {:<24} {:<13} {:>5} {:>8} {:>6} {:>8} {:>7.0} {:>7}\n",
                        p.index,
                        p.design,
                        p.strategy,
                        p.policy,
                        p.width,
                        p.patterns,
                        m.report.scan_registers,
                        m.report.gates,
                        m.report.area,
                        cov
                    ));
                }
                Err(e) => {
                    out.push_str(&format!(
                        "{:>4}  {:<12} {:<24} {:<13} {:>5} {:>8} {}: {}\n",
                        p.index,
                        p.design,
                        p.strategy,
                        p.policy,
                        p.width,
                        p.patterns,
                        e.kind(),
                        e.message()
                    ));
                }
            }
        }
        out
    }

    /// One-line run summary (the CLI's stderr footer): point, error
    /// (with a per-kind breakdown), retry, lease-reissue, timeout, and
    /// restore counts, threads, cache hit/miss totals with hit rate,
    /// wall time.
    pub fn summary(&self) -> String {
        let errors = {
            let kinds = self.error_kinds();
            if kinds.is_empty() {
                "0 errors".to_string()
            } else {
                let detail = kinds
                    .iter()
                    .map(|(k, n)| format!("{k}: {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{} errors [{detail}]", self.errors().len())
            }
        };
        let cache = match self.cache.map(|c| c.total()) {
            Some(c) => format!(
                "cache hits: {}, misses: {}, coalesced: {} ({:.1}% hit)",
                c.hits,
                c.misses,
                c.coalesced,
                c.hit_rate_percent()
            ),
            None => "cache off".to_string(),
        };
        let workers = if self.workers > 0 {
            format!(", {} workers", self.workers)
        } else {
            String::new()
        };
        format!(
            "sweep: {} points ({errors}), {} threads{workers}, {} retries, {} reissued, {} timeouts, {} restored, {cache}, wall: {:.1} ms, cpu: {:.1} ms",
            self.points.len(),
            self.threads,
            self.retries,
            self.reissued,
            self.timeouts(),
            self.restored,
            self.wall.as_secs_f64() * 1e3,
            self.cpu.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_trace::json;

    fn record(index: usize, ok: bool) -> PointRecord {
        let report = TestabilityReport {
            name: "x".into(),
            period: 4,
            registers: 10,
            io_registers: 5,
            fus: 3,
            scan_registers: 2,
            sgraph_cycles: 1,
            sgraph_acyclic_after_scan: true,
            mfvs_size: 1,
            max_control_depth: 2,
            max_observe_depth: 3,
            gates: 500,
            area: 1234.5,
            bist_overhead_percent: 12.5,
            grading: None,
            atpg: None,
        };
        PointRecord {
            index,
            design: "x".into(),
            scheduler: "list".into(),
            policy: "left-edge".into(),
            strategy: "none".into(),
            width: 4,
            patterns: 128,
            outcome: if ok {
                Ok(PointMetrics {
                    report,
                    coverage_percent: Some(92.5),
                    timed_out: false,
                })
            } else {
                Err(PointError::Flow {
                    message: "scheduling: no feasible schedule".into(),
                })
            },
            wall: Duration::from_millis(3),
            restored: None,
        }
    }

    fn report() -> SweepReport {
        SweepReport {
            points: vec![record(0, true), record(1, false)],
            threads: 4,
            workers: 0,
            cache: Some(CacheStats::default()),
            wall: Duration::from_millis(10),
            cpu: Duration::from_millis(30),
            restored: 0,
            retries: 0,
            reissued: 0,
            checkpoint_degraded: false,
        }
    }

    #[test]
    fn canonical_json_excludes_the_run_envelope() {
        let r = report();
        let c = r.canonical_json();
        assert!(!c.contains("wall_ms"), "{c}");
        assert!(!c.contains("threads"), "{c}");
        assert!(!c.contains("cache"), "{c}");
        let v = json::parse(&c).expect("canonical parses");
        let pts = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(
            pts[0].get("coverage_percent").and_then(|x| x.as_f64()),
            Some(92.5)
        );
        // Failures are typed objects, not bare strings.
        let err = pts[1].get("error").expect("error field");
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("flow"));
        assert!(err
            .get("message")
            .and_then(|m| m.as_str())
            .unwrap()
            .contains("scheduling"));
    }

    #[test]
    fn full_json_carries_the_envelope_and_parses() {
        let r = report();
        let j = r.to_json();
        let v = json::parse(&j).expect("full parses");
        assert_eq!(v.get("threads").and_then(|t| t.as_f64()), Some(4.0));
        assert!(v.get("wall_ms").and_then(|w| w.as_f64()).is_some());
        assert!(v.get("cache").is_some());
        assert_eq!(v.get("failures").and_then(|f| f.as_f64()), Some(1.0));
        assert_eq!(v.get("retries").and_then(|f| f.as_f64()), Some(0.0));
        assert_eq!(v.get("reissued").and_then(|f| f.as_f64()), Some(0.0));
        assert_eq!(v.get("restored").and_then(|f| f.as_f64()), Some(0.0));
        let pts = v.get("points").and_then(|p| p.as_array()).unwrap();
        assert!(pts[0].get("wall_ms").and_then(|w| w.as_f64()).is_some());
    }

    #[test]
    fn canonical_json_is_identical_across_run_envelopes() {
        let a = report();
        let mut b = report();
        b.threads = 1;
        b.cache = None;
        b.wall = Duration::from_millis(99);
        b.points[0].wall = Duration::from_millis(77);
        b.retries = 5;
        b.reissued = 2;
        b.restored = 1;
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn restored_points_reemit_their_bytes_verbatim() {
        let original = record(0, true);
        let canonical = original.canonical_point_json();
        let mut restored = original.clone();
        restored.restored = Some(canonical.clone());
        restored.wall = Duration::ZERO;
        assert_eq!(restored.to_json(false), canonical);
        // The timed variant splices wall_ms into the same object.
        let timed = restored.to_json(true);
        assert!(timed.ends_with("\"wall_ms\": 0.000}"), "{timed}");
        assert!(json::parse(&timed).is_ok(), "{timed}");
    }

    #[test]
    fn table_and_summary_render() {
        let r = report();
        let t = r.table();
        assert!(t.contains("design"), "{t}");
        assert!(t.contains("flow: scheduling"), "{t}");
        let s = r.summary();
        assert!(s.contains("2 points (1 errors [flow: 1])"), "{s}");
        assert!(s.contains("0 retries"), "{s}");
        assert!(s.contains("0 reissued"), "{s}");
        assert!(s.contains("0 restored"), "{s}");
        assert!(
            s.contains("cache hits: 0, misses: 0, coalesced: 0 (0.0% hit)"),
            "{s}"
        );
        assert!(!s.contains("workers"), "{s}");
        assert_eq!(r.errors().len(), 1);
        assert_eq!(r.timeouts(), 0);
        // A scale-out run names its worker-process count.
        let mut w = report();
        w.workers = 4;
        assert!(
            w.summary().contains("4 threads, 4 workers"),
            "{}",
            w.summary()
        );
        assert!(w.to_json().contains("\"workers\": 4"));
        // Without a cache the summary says so instead of zero counters.
        let mut nc = report();
        nc.cache = None;
        nc.points.truncate(1);
        let s = nc.summary();
        assert!(s.contains("cache off"), "{s}");
        assert!(s.contains("(0 errors)"), "{s}");
    }

    #[test]
    fn error_kinds_group_failures_and_reach_the_envelope() {
        let mut r = report();
        r.points.push(record(2, false));
        r.points.push({
            let mut p = record(3, false);
            p.outcome = Err(PointError::Timeout {
                message: "budget expired".into(),
            });
            p
        });
        let kinds = r.error_kinds();
        assert_eq!(kinds.get("flow"), Some(&2));
        assert_eq!(kinds.get("timeout"), Some(&1));
        let v = json::parse(&r.to_json()).expect("full parses");
        let ek = v.get("error_kinds").expect("error_kinds object");
        assert_eq!(ek.get("flow").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(ek.get("timeout").and_then(|x| x.as_f64()), Some(1.0));
        assert!(v.get("cache_hit_rate_percent").is_some());
        assert!(
            r.summary().contains("[flow: 2, timeout: 1]"),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn timed_out_successes_are_counted_and_starred() {
        let mut r = report();
        if let Ok(m) = &mut r.points[0].outcome {
            m.timed_out = true;
        }
        assert_eq!(r.timeouts(), 1);
        assert!(r.table().contains("92.5*"), "{}", r.table());
        assert!(r.canonical_json().contains("\"timed_out\": true"));
    }
}
