//! `hlstb-trace` — the workbench's structured-observability facade.
//!
//! A zero-dependency, in-tree crate (in the style of the offline
//! `rand`/`proptest`/`criterion` subsets) that every synthesis crate
//! links against. Everything it records goes into one stream, the
//! [`events`] journal:
//!
//! * **RAII spans** ([`span`]): scoped wall-time measurements of the
//!   synthesis phases (scheduling, binding, expansion, scan selection,
//!   BIST planning, ATPG, fault grading, …), each journaled as one
//!   `span.close` record carrying its start and duration;
//! * **counters** ([`counter`]) and **gauges** ([`gauge`]): one
//!   volatile `counter` or `gauge` record per call;
//! * **views** ([`Snapshot::from_journal`]): per-phase totals and log₂
//!   duration histograms from the span closes, counters summed, gauges
//!   at their maximum, rendered as a Chrome trace-event JSON file
//!   (Perfetto / `chrome://tracing`), a flat metrics JSON, or a
//!   human-readable text summary;
//! * **sinks** ([`Sinks`]): the files a run asks for, filled from CLI
//!   flags or the `HLSTB_TRACE*` environment hooks. [`Sinks::finish`]
//!   drains the journal once and writes every view from it.
//!
//! # Overhead guarantee
//!
//! Tracing is **off by default**. When disabled, every entry point is a
//! single relaxed load of the journal's one flag followed by an
//! immediate return: no allocation, no lock, no syscall. The hot
//! fault-simulation loop can therefore stay instrumented
//! unconditionally (enforced by the `zero_alloc` integration test).
//!
//! # Determinism
//!
//! The journal only *observes*: no instrumented algorithm branches on
//! [`events::enabled`], and no trace call touches an RNG or reorders
//! work. Enabling tracing changes wall time, never results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
mod sinks;

pub use sinks::Sinks;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use events::{FieldValue, Journal, Record};

/// Histogram buckets: bucket `i` counts durations in `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also holds sub-microsecond spans).
pub const HIST_BUCKETS: usize = 32;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Pins the trace epoch (timestamp zero) if not already pinned.
pub(crate) fn pin_epoch() {
    EPOCH.get_or_init(Instant::now);
}

/// Microseconds elapsed since the trace epoch (pinning it on first use).
pub(crate) fn epoch_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Small dense id of the calling thread (assigned on first traced use).
pub(crate) fn thread_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// An RAII span guard: measures wall time from construction to drop and
/// journals it then, as one record. When the journal is off at
/// construction the guard is inert (no allocation, no lock on drop).
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    /// Microseconds since the trace epoch at construction.
    start_us: u64,
}

/// Opens a span named `name`. Close it by dropping the guard (or
/// explicitly via [`Span::end`]), which journals one `span.close`
/// record with the span's start and duration; inert when the journal
/// is off. Both ends are read from the one epoch clock, so a span
/// opened inside another on the same thread has an interval inside
/// the outer one.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !events::enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(ActiveSpan {
            name,
            start_us: epoch_us(),
        }),
    }
}

impl Span {
    /// Ends the span now (sugar for dropping the guard).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let dur_us = epoch_us().saturating_sub(s.start_us);
            events::span_close(s.name, s.start_us, dur_us);
        }
    }
}

/// Adds `delta` to the counter `name`: journals a volatile `counter`
/// record. The views sum a counter's deltas. No-op when the journal is
/// off.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if events::enabled() {
        events::named_u64("counter", name, "delta", delta);
    }
}

/// Reports `value` for the gauge `name`: journals a volatile `gauge`
/// record. The views keep a gauge's maximum — the monotone merge that
/// needs no coordination between concurrent reporters. No-op when the
/// journal is off.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if events::enabled() {
        events::named_u64("gauge", name, "value", value);
    }
}

/// One exported span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name.
    pub name: String,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Summed wall time.
    pub total: Duration,
    /// Shortest occurrence.
    pub min: Duration,
    /// Longest occurrence.
    pub max: Duration,
    /// log₂(µs) duration histogram (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl PhaseSummary {
    fn new(name: &str) -> Self {
        PhaseSummary {
            name: name.to_string(),
            count: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
            max: Duration::ZERO,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn record(&mut self, dur_us: u64) {
        let d = Duration::from_micros(dur_us);
        self.count += 1;
        self.total += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        let bucket = (63 - dur_us.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

/// The aggregate views of one drained [`Journal`], with the exporters.
/// Plain data: building one does not touch the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Completed span events, sorted by `(start_us, dur_us, tid,
    /// name)` — a deterministic order regardless of which worker's
    /// records happened to be drained first.
    pub events: Vec<Event>,
    /// Journal records dropped past [`events::MAX_RECORDS`]; when
    /// nonzero every view under-counts.
    pub dropped_events: u64,
    /// Per-span-name aggregates, name-sorted.
    pub phases: Vec<PhaseSummary>,
    /// Counters (summed deltas), name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges (largest value), name-sorted.
    pub gauges: Vec<(String, u64)>,
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

impl Snapshot {
    /// Folds a drained journal into the views: one span event and one
    /// phase sample per `span.close` (with its own `start_us` and
    /// `dur_us`), counters summed over `counter` deltas, and gauges at
    /// the largest `gauge` value.
    pub fn from_journal(journal: &Journal) -> Snapshot {
        let mut events = Vec::new();
        let mut phases: BTreeMap<&str, PhaseSummary> = BTreeMap::new();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &journal.records {
            let Some(FieldValue::Str(name)) = field(r, "name") else {
                continue;
            };
            match r.kind {
                "span.close" => {
                    let dur_us = u64_field(r, "dur_us");
                    phases
                        .entry(name)
                        .or_insert_with(|| PhaseSummary::new(name))
                        .record(dur_us);
                    events.push(Event {
                        name: name.clone(),
                        tid: r.tid,
                        start_us: u64_field(r, "start_us"),
                        dur_us,
                    });
                }
                "counter" => {
                    let slot = counters.entry(name).or_insert(0);
                    *slot = slot.saturating_add(u64_field(r, "delta"));
                }
                "gauge" => {
                    let slot = gauges.entry(name).or_insert(0);
                    *slot = (*slot).max(u64_field(r, "value"));
                }
                _ => {}
            }
        }
        events.sort_by(|a, b| {
            (a.start_us, a.dur_us, a.tid, &a.name).cmp(&(b.start_us, b.dur_us, b.tid, &b.name))
        });
        let owned =
            |m: BTreeMap<&str, u64>| m.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Snapshot {
            events,
            dropped_events: journal.dropped,
            phases: phases.into_values().collect(),
            counters: owned(counters),
            gauges: owned(gauges),
        }
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Total wall time of the span `name`, if it occurred.
    pub fn phase_total(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.total)
    }

    /// Current value of counter `name`, if it was touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Renders the snapshot as a Chrome trace-event JSON document
    /// (the `chrome://tracing` / Perfetto "JSON array format" with
    /// complete `ph: "X"` events; counters become `ph: "C"` samples).
    pub fn chrome_trace_json(&self) -> String {
        let mut events = json::Arr::new();
        let mut meta = json::Obj::new();
        meta.string("name", "process_name");
        meta.string("ph", "M");
        meta.number_u64("pid", 1);
        let mut args = json::Obj::new();
        args.string("name", "hlstb");
        meta.raw("args", &args.finish());
        events.raw(&meta.finish());
        let mut end_us = 0u64;
        for e in &self.events {
            end_us = end_us.max(e.start_us + e.dur_us);
            let mut o = json::Obj::new();
            o.string("name", &e.name);
            o.string("cat", "hlstb");
            o.string("ph", "X");
            o.number_u64("ts", e.start_us);
            o.number_u64("dur", e.dur_us);
            o.number_u64("pid", 1);
            o.number_u64("tid", e.tid as u64);
            events.raw(&o.finish());
        }
        for (name, value) in &self.counters {
            let mut o = json::Obj::new();
            o.string("name", name);
            o.string("cat", "hlstb");
            o.string("ph", "C");
            o.number_u64("ts", end_us);
            o.number_u64("pid", 1);
            let mut args = json::Obj::new();
            args.number_u64("value", *value);
            o.raw("args", &args.finish());
            events.raw(&o.finish());
        }
        let mut doc = json::Obj::new();
        doc.string("displayTimeUnit", "ms");
        doc.number_u64("droppedEvents", self.dropped_events);
        doc.raw("traceEvents", &events.finish());
        doc.finish()
    }

    /// Renders the snapshot as one flat metrics JSON object: per-phase
    /// aggregates (count / total / min / max / histogram), counters,
    /// and gauges.
    pub fn metrics_json(&self) -> String {
        let ms = |d: Duration| json::number_f64(d.as_secs_f64() * 1e3);
        let mut phases = json::Obj::new();
        for p in &self.phases {
            let mut o = json::Obj::new();
            o.number_u64("count", p.count);
            o.raw("total_ms", &ms(p.total));
            o.raw("min_ms", &ms(p.min));
            o.raw("max_ms", &ms(p.max));
            let last = p.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            let mut hist = json::Arr::new();
            for &b in &p.buckets[..last] {
                hist.raw(&b.to_string());
            }
            o.raw("hist_log2_us", &hist.finish());
            phases.raw(&p.name, &o.finish());
        }
        let mut counters = json::Obj::new();
        for (k, v) in &self.counters {
            counters.number_u64(k, *v);
        }
        let mut gauges = json::Obj::new();
        for (k, v) in &self.gauges {
            gauges.number_u64(k, *v);
        }
        let mut doc = json::Obj::new();
        doc.number_u64("events", self.events.len() as u64);
        doc.number_u64("dropped_events", self.dropped_events);
        doc.raw("phases", &phases.finish());
        doc.raw("counters", &counters.finish());
        doc.raw("gauges", &gauges.finish());
        doc.finish()
    }

    /// Renders a human-readable per-phase breakdown (wall-time-sorted)
    /// plus the counters and gauges.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>12}\n",
            "phase", "count", "total ms", "min ms", "max ms"
        ));
        let mut phases: Vec<&PhaseSummary> = self.phases.iter().collect();
        phases.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(&b.name)));
        for p in phases {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12.3} {:>12.3} {:>12.3}\n",
                p.name,
                p.count,
                p.total.as_secs_f64() * 1e3,
                p.min.as_secs_f64() * 1e3,
                p.max.as_secs_f64() * 1e3,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "({} journal records dropped past the retention cap)\n",
                self.dropped_events
            ));
        }
        out
    }
}

/// The journal is process-global: every unit test in this crate that
/// enables, resets or drains it holds this one lock, so `cargo test`'s
/// threads cannot land one test's records in another's window.
#[cfg(test)]
pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `work` with the journal on and returns its views.
    fn traced(work: impl FnOnce()) -> Snapshot {
        events::set_enabled(true);
        events::reset();
        work();
        events::set_enabled(false);
        Snapshot::from_journal(&events::drain())
    }

    #[test]
    fn disabled_journal_records_no_spans_counters_or_gauges() {
        let _x = exclusive();
        events::set_enabled(false);
        events::reset();
        {
            let _s = span("phase");
            counter("work", 3);
            gauge("peak", 9);
        }
        assert!(Snapshot::from_journal(&events::drain()).is_empty());
    }

    #[test]
    fn spans_counters_and_gauges_are_journaled_and_merged() {
        let _x = exclusive();
        let snap = traced(|| {
            {
                let _s = span("alpha");
                std::thread::sleep(Duration::from_millis(1));
            }
            span("alpha").end();
            counter("work", 2);
            counter("work", 3);
            gauge("peak", 4);
            gauge("peak", 2);
        });
        let alpha = snap.phases.iter().find(|p| p.name == "alpha").unwrap();
        assert_eq!(alpha.count, 2);
        assert!(alpha.total >= Duration::from_millis(1));
        assert!(alpha.min <= alpha.max);
        assert_eq!(alpha.buckets.iter().sum::<u64>(), 2);
        assert_eq!(snap.counter("work"), Some(5));
        assert_eq!(snap.gauges, vec![("peak".to_string(), 4)]);
        assert_eq!(snap.events.len(), 2);
        assert!(snap.phase_total("alpha").unwrap() >= Duration::from_millis(1));
        // A reset discards what was journaled before it.
        events::set_enabled(true);
        counter("work", 1);
        events::reset();
        events::set_enabled(false);
        assert!(Snapshot::from_journal(&events::drain()).is_empty());
    }

    #[test]
    fn span_start_is_its_close_record_start() {
        let _x = exclusive();
        events::set_enabled(true);
        events::reset();
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(1));
            span("inner").end();
        }
        events::set_enabled(false);
        let journal = events::drain();
        let snap = Snapshot::from_journal(&journal);
        let closes: Vec<(&str, u64)> = journal
            .records
            .iter()
            .filter(|r| r.kind == "span.close")
            .map(|r| match field(r, "name") {
                Some(FieldValue::Str(name)) => (name.as_str(), u64_field(r, "start_us")),
                _ => panic!("unnamed span: {r:?}"),
            })
            .collect();
        let starts: Vec<(&str, u64)> = snap
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.start_us))
            .collect();
        // Inner closes first; the events are sorted by start.
        assert_eq!(starts, vec![closes[1], closes[0]]);
        // The outer span covers the inner one.
        let (outer, inner) = (&snap.events[0], &snap.events[1]);
        assert!(outer.start_us <= inner.start_us);
        assert!(outer.start_us + outer.dur_us >= inner.start_us + inner.dur_us);
    }

    #[test]
    fn spans_from_worker_threads_get_distinct_tids() {
        let _x = exclusive();
        let snap = traced(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| span("worker").end());
                }
            });
            span("main").end();
        });
        let mut tids: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "{:?}", snap.events);
    }

    #[test]
    fn exporters_render_name_sorted_regardless_of_insertion_order() {
        let _x = exclusive();
        // Insert counters and spans in reverse-alphabetical order; the
        // exporters must still render them name-sorted.
        let snap = traced(|| {
            counter("zeta", 1);
            counter("alpha", 1);
            span("zz_last").end();
            span("aa_first").end();
        });
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        let phases: Vec<&str> = snap.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phases, vec!["aa_first", "zz_last"]);
        let metrics = snap.metrics_json();
        assert!(
            metrics.find("\"alpha\"").unwrap() < metrics.find("\"zeta\"").unwrap(),
            "{metrics}"
        );
        assert!(
            metrics.find("\"aa_first\"").unwrap() < metrics.find("\"zz_last\"").unwrap(),
            "{metrics}"
        );
        // Event order in exporters follows the deterministic sort key,
        // not journal order.
        let starts: Vec<u64> = snap.events.iter().map(|e| e.start_us).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn exporters_produce_parseable_json() {
        let _x = exclusive();
        let snap = traced(|| {
            span("sched").end();
            counter("fsim.fault_evals", 7);
            gauge("threads", 2);
        });

        let chrome = json::parse(&snap.chrome_trace_json()).expect("chrome JSON parses");
        let events = chrome
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        // Metadata + 1 span + 1 counter sample.
        assert_eq!(events.len(), 3);
        assert!(events.iter().any(|e| {
            e.get("name").and_then(json::Value::as_str) == Some("sched")
                && e.get("ph").and_then(json::Value::as_str) == Some("X")
        }));

        let metrics = json::parse(&snap.metrics_json()).expect("metrics JSON parses");
        let sched = metrics.get("phases").and_then(|p| p.get("sched")).unwrap();
        assert_eq!(sched.get("count").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("fsim.fault_evals"))
                .and_then(json::Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            metrics
                .get("gauges")
                .and_then(|c| c.get("threads"))
                .and_then(json::Value::as_f64),
            Some(2.0)
        );

        let text = snap.text_summary();
        assert!(text.contains("sched"));
        assert!(text.contains("fsim.fault_evals"));
    }
}
