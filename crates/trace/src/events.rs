//! The structured event journal: the crate's one telemetry stream, a
//! durable, thread-safe record of *what happened* during a run. The
//! span, counter and gauge primitives in the crate root journal into
//! it too, and [`crate::Snapshot::from_journal`] folds a drained
//! journal into the aggregate views (phases, counters, gauges).
//!
//! # Model
//!
//! A journal is an append-only sequence of [`Record`]s. Each record
//! carries:
//!
//! * a **per-thread monotonic sequence number** (`seq`) — gap-free per
//!   recording thread, which is what lets a reader reconstruct each
//!   thread's own event order without trusting wall clocks;
//! * the recording thread's dense id (`tid`) and a microsecond
//!   timestamp since the trace epoch;
//! * a static `kind` (e.g. `point.completed`, `span.close`), an
//!   optional **point index** attributing the record to one unit of
//!   work (a sweep point), and a list of typed [`Field`]s.
//!
//! Records and fields are classified **stable** or **volatile**:
//! stable content is a pure function of the run's inputs (point
//! coordinates, coverage, error kinds), while volatile content varies
//! run to run (timestamps, durations, cache hit/miss outcomes under
//! racing workers, thread ids, and every span, counter and gauge
//! record). The canonical exporter ([`Journal::to_canonical_jsonl`])
//! keeps only stable records and fields and re-sorts them by `(point,
//! seq)` — every record of one point is emitted by the one worker
//! thread that evaluated it, so the per-thread sequence gives a total
//! order within each point and the projection is **byte-identical
//! across thread counts and cache settings**. That extends the
//! workbench's byte-compare CI style from reports to telemetry.
//!
//! # Buffering and overhead
//!
//! Each recording thread appends to its **own** buffer — an
//! `Arc<Mutex<Vec<Record>>>` registered in a global registry on the
//! thread's first emission — so concurrent emitters never contend
//! with each other, only (briefly) with a drain. The registry, not
//! thread-local storage, owns the buffers: [`drain`] sweeps every
//! registered buffer under its lock, which makes it safe to drain
//! right after a `thread::scope` join (TLS destructors of exited
//! workers may still be pending at that point — a registry sweep does
//! not care). Past [`MAX_RECORDS`] new records are counted as dropped
//! instead of stored, so every view under-counts and reports the drop.
//! When the journal is disabled (the default) every entry point is a
//! single relaxed atomic load and an immediate return — the
//! field-builder closure is never called, so the disabled path
//! allocates nothing (enforced alongside the span primitives by
//! `tests/zero_alloc.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{number_f64, Obj};

/// Hard cap on retained journal records across all threads; past it
/// new records are counted as dropped instead of stored.
pub const MAX_RECORDS: usize = 1 << 20;

static JOURNAL_ON: AtomicBool = AtomicBool::new(false);
/// All per-thread buffers ever registered (buffers of exited threads
/// are pruned once drained empty).
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Record>>>>> = Mutex::new(Vec::new());
/// Total records currently held across buffers, for cap enforcement.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Records discarded past [`MAX_RECORDS`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            next_seq: 0,
            buf: None,
            worker: None,
        })
    };
}

/// Per-thread journal state. The record buffer itself is shared with
/// the global registry so a drain never depends on this thread still
/// being alive (or on its TLS destructors having run).
struct Local {
    next_seq: u64,
    /// This thread's registered buffer, created on first emission.
    buf: Option<Arc<Mutex<Vec<Record>>>>,
    /// The executor lane this thread serves (see [`set_worker`]).
    worker: Option<u32>,
}

impl Local {
    fn buffer(&mut self) -> &Mutex<Vec<Record>> {
        self.buf.get_or_insert_with(|| {
            let b = Arc::new(Mutex::new(Vec::new()));
            lock(&REGISTRY).push(Arc::clone(&b));
            b
        })
    }
}

/// One typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (rendered via [`crate::json::number_f64`]).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped on export).
    Str(String),
    /// A string fixed at compile time — a span, counter or gauge name —
    /// held without a copy and exported exactly as the same text in
    /// [`FieldValue::Str`] would be.
    Static(&'static str),
}

impl FieldValue {
    /// The text of either string arm.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            FieldValue::Static(s) => Some(s),
            _ => None,
        }
    }
}

/// One named field of a record, tagged stable or volatile.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (static, like counter names).
    pub name: &'static str,
    /// The value.
    pub value: FieldValue,
    /// Whether the field survives the canonical projection.
    pub stable: bool,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Per-thread monotonic sequence number (gap-free per `tid`).
    pub seq: u64,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// Microseconds since the trace epoch.
    pub t_us: u64,
    /// Event kind, e.g. `point.completed`.
    pub kind: &'static str,
    /// The work unit (sweep point index) this record belongs to.
    pub point: Option<u64>,
    /// The executor lane (pool thread or sweep worker process) that
    /// recorded this — volatile identity like `tid`, kept only by the
    /// full export (which lane evaluates which point races run to run).
    pub worker: Option<u32>,
    /// Whether the record survives the canonical projection.
    pub stable: bool,
    /// Typed payload fields, in emission order.
    pub fields: Vec<Field>,
}

impl Record {
    /// Renders the record as one JSON object. `canonical` drops the
    /// run-varying identity (`seq`/`tid`/`t_us`) and volatile fields.
    fn to_json(&self, canonical: bool) -> String {
        let mut o = Obj::new();
        if !canonical {
            o.number_u64("seq", self.seq)
                .number_u64("tid", u64::from(self.tid))
                .number_u64("t_us", self.t_us);
            if let Some(w) = self.worker {
                o.number_u64("worker", u64::from(w));
            }
        }
        o.string("kind", self.kind);
        if let Some(p) = self.point {
            o.number_u64("point", p);
        }
        for f in &self.fields {
            if canonical && !f.stable {
                continue;
            }
            match &f.value {
                FieldValue::U64(v) => o.number_u64(f.name, *v),
                FieldValue::F64(v) => o.raw(f.name, &number_f64(*v)),
                FieldValue::Bool(v) => o.boolean(f.name, *v),
                FieldValue::Str(v) => o.string(f.name, v),
                FieldValue::Static(v) => o.string(f.name, v),
            };
        }
        o.finish()
    }
}

/// Collects the fields of one record; handed to the closure passed to
/// [`emit`] so field construction is skipped entirely when the journal
/// is disabled.
#[derive(Debug, Default)]
pub struct EventBuilder {
    fields: Vec<Field>,
}

impl EventBuilder {
    fn push(&mut self, name: &'static str, value: FieldValue, stable: bool) -> &mut Self {
        self.fields.push(Field {
            name,
            value,
            stable,
        });
        self
    }

    /// Adds a stable unsigned-integer field.
    pub fn u64(&mut self, name: &'static str, v: u64) -> &mut Self {
        self.push(name, FieldValue::U64(v), true)
    }

    /// Adds a stable float field.
    pub fn f64(&mut self, name: &'static str, v: f64) -> &mut Self {
        self.push(name, FieldValue::F64(v), true)
    }

    /// Adds a stable boolean field.
    pub fn bool(&mut self, name: &'static str, v: bool) -> &mut Self {
        self.push(name, FieldValue::Bool(v), true)
    }

    /// Adds a stable string field.
    pub fn str(&mut self, name: &'static str, v: &str) -> &mut Self {
        self.push(name, FieldValue::Str(v.to_string()), true)
    }

    /// Adds a volatile (run-varying) unsigned-integer field.
    pub fn volatile_u64(&mut self, name: &'static str, v: u64) -> &mut Self {
        self.push(name, FieldValue::U64(v), false)
    }

    /// Adds a volatile (run-varying) boolean field.
    pub fn volatile_bool(&mut self, name: &'static str, v: bool) -> &mut Self {
        self.push(name, FieldValue::Bool(v), false)
    }

    /// Adds a volatile (run-varying) string field.
    pub fn volatile_str(&mut self, name: &'static str, v: &str) -> &mut Self {
        self.push(name, FieldValue::Str(v.to_string()), false)
    }
}

/// Turns the journal on or off — the crate's one enabled flag, which
/// spans, counters and gauges check too. Enabling pins the trace epoch
/// (timestamp zero) on first use.
pub fn set_enabled(on: bool) {
    if on {
        crate::pin_epoch();
    }
    JOURNAL_ON.store(on, Ordering::Relaxed);
}

/// Whether the journal is recording — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    JOURNAL_ON.load(Ordering::Relaxed)
}

/// Tags the calling thread with an executor lane id (a sweep pool
/// thread or worker process). Every record the thread emits from here
/// on carries the id in the full export — `trace-view` rolls these up
/// into per-worker lanes. Like `tid`, the tag is volatile identity and
/// never appears in the canonical projection.
pub fn set_worker(id: u32) {
    LOCAL.with(|l| l.borrow_mut().worker = Some(id));
}

/// Discards every record in every registered buffer and zeroes the
/// dropped count. Call between runs (concurrent emitters racing a
/// reset keep whatever they emit after it, as expected).
pub fn reset() {
    let mut reg = lock(&REGISTRY);
    for buf in reg.iter() {
        lock(buf).clear();
    }
    // Prune buffers whose thread has exited (registry holds the only
    // other reference).
    reg.retain(|b| Arc::strong_count(b) > 1);
    TOTAL.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
}

fn record(kind: &'static str, point: Option<u64>, stable: bool, fields: Vec<Field>) {
    let tid = crate::thread_tid();
    let t_us = crate::epoch_us();
    if TOTAL.fetch_add(1, Ordering::Relaxed) >= MAX_RECORDS {
        TOTAL.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        // Dropped records are accounted centrally; the per-thread seq
        // does not advance, so stored sequences stay gap-free.
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let seq = l.next_seq;
        l.next_seq += 1;
        let worker = l.worker;
        lock(l.buffer()).push(Record {
            seq,
            tid,
            t_us,
            kind,
            point,
            worker,
            stable,
            fields,
        });
    })
}

/// Emits one **stable** record (kept by the canonical projection).
/// `fill` is only called when the journal is enabled, so call sites in
/// hot loops stay allocation-free when it is off.
#[inline]
pub fn emit(kind: &'static str, point: Option<u64>, fill: impl FnOnce(&mut EventBuilder)) {
    if !enabled() {
        return;
    }
    let mut b = EventBuilder::default();
    fill(&mut b);
    record(kind, point, true, b.fields);
}

/// Emits one **volatile** record (dropped by the canonical
/// projection): timings, cache outcomes under racing workers.
#[inline]
pub fn emit_volatile(kind: &'static str, point: Option<u64>, fill: impl FnOnce(&mut EventBuilder)) {
    if !enabled() {
        return;
    }
    let mut b = EventBuilder::default();
    fill(&mut b);
    record(kind, point, false, b.fields);
}

/// Journals one finished span (volatile): its name, its start in
/// microseconds since the trace epoch, and its duration. Called by
/// [`crate::Span`]'s drop; a span is this one record, and readers
/// recover nesting from each thread's `(start_us, dur_us)` intervals.
pub(crate) fn span_close(name: &'static str, start_us: u64, dur_us: u64) {
    let mut b = EventBuilder::default();
    b.push("name", FieldValue::Static(name), false)
        .volatile_u64("start_us", start_us)
        .volatile_u64("dur_us", dur_us);
    record("span.close", None, false, b.fields);
}

/// Journals a volatile `kind` record (`counter` or `gauge`) carrying
/// the metric `name` and one value. Called by [`crate::counter`] and
/// [`crate::gauge`].
pub(crate) fn named_u64(kind: &'static str, name: &'static str, field: &'static str, v: u64) {
    let mut b = EventBuilder::default();
    b.push("name", FieldValue::Static(name), false)
        .volatile_u64(field, v);
    record(kind, None, false, b.fields);
}

/// Takes every record from every registered per-thread buffer. Emits
/// happen under each buffer's lock, so a drain after a
/// `thread::scope` join observes everything the joined workers wrote
/// — no dependency on their TLS destructors having run.
pub fn drain() -> Journal {
    let mut records = Vec::new();
    let mut reg = lock(&REGISTRY);
    for buf in reg.iter() {
        records.append(&mut *lock(buf));
    }
    reg.retain(|b| Arc::strong_count(b) > 1);
    drop(reg);
    TOTAL.fetch_sub(records.len(), Ordering::Relaxed);
    Journal {
        records,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// A drained journal, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Every record, in global flush order (not meaningful; the
    /// exporters re-sort).
    pub records: Vec<Record>,
    /// Records discarded past [`MAX_RECORDS`].
    pub dropped: u64,
}

/// The canonical record order: point-major, then each point's own
/// emission order via the per-thread sequence (every record of one
/// point comes from the one thread that evaluated it). Records with no
/// point (sweep begin/end, spans, counters, gauges) sort after all
/// points.
fn canonical_key(r: &Record) -> (u64, u64, u32, &'static str) {
    (r.point.unwrap_or(u64::MAX), r.seq, r.tid, r.kind)
}

impl Journal {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The full journal as JSONL, one record per line, re-sorted into
    /// canonical order so the file's content does not depend on which
    /// thread flushed first. Timestamps, seqs, and tids are included —
    /// this is the file `hlstb trace-view` rolls up.
    pub fn to_jsonl(&self) -> String {
        let mut sorted: Vec<&Record> = self.records.iter().collect();
        sorted.sort_by_key(|r| canonical_key(r));
        let mut out = String::new();
        for r in sorted {
            out.push_str(&r.to_json(false));
            out.push('\n');
        }
        out
    }

    /// The canonical projection as JSONL: stable records only, stable
    /// fields only, no seq/tid/timestamps, re-sorted by `(point,
    /// seq)`. Byte-identical across thread counts and cache settings
    /// for the same spec — the telemetry analogue of
    /// `SweepReport::canonical_json`.
    pub fn to_canonical_jsonl(&self) -> String {
        let mut sorted: Vec<&Record> = self.records.iter().filter(|r| r.stable).collect();
        sorted.sort_by_key(|r| canonical_key(r));
        let mut out = String::new();
        for r in sorted {
            out.push_str(&r.to_json(true));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exclusive;

    #[test]
    fn disabled_journal_records_nothing_and_skips_the_closure() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        let mut called = false;
        emit("probe", None, |_| called = true);
        emit_volatile("probe", None, |_| called = true);
        assert!(!called, "builder closure must not run when disabled");
        assert!(drain().is_empty());
    }

    #[test]
    fn records_carry_seq_point_and_typed_fields() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        emit("point.completed", Some(3), |e| {
            e.f64("coverage_percent", 92.5)
                .bool("timed_out", false)
                .volatile_u64("wall_us", 1234);
        });
        emit_volatile("counterish", None, |e| {
            e.str("name", "x");
        });
        set_enabled(false);
        let j = drain();
        assert_eq!(j.records.len(), 2);
        let first = &j.records[0];
        assert_eq!(first.kind, "point.completed");
        assert_eq!(first.point, Some(3));
        assert!(first.stable);
        let full = first.to_json(false);
        assert!(full.contains("\"seq\""), "{full}");
        assert!(full.contains("\"wall_us\": 1234"), "{full}");
        let canon = first.to_json(true);
        assert!(!canon.contains("wall_us"), "{canon}");
        assert!(!canon.contains("seq"), "{canon}");
        assert!(canon.contains("\"coverage_percent\": 92.5"), "{canon}");
        assert!(!j.records[1].stable);
    }

    #[test]
    fn worker_tag_rides_full_export_only() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        let h = std::thread::spawn(|| {
            set_worker(7);
            emit("point.completed", Some(0), |e| {
                e.bool("timed_out", false);
            });
        });
        h.join().expect("worker thread");
        set_enabled(false);
        let j = drain();
        let r = &j.records[0];
        assert_eq!(r.worker, Some(7));
        assert!(r.to_json(false).contains("\"worker\": 7"));
        assert!(!r.to_json(true).contains("worker"));
    }

    #[test]
    fn canonical_jsonl_drops_volatile_and_sorts_by_point() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        emit("sweep.begin", None, |e| {
            e.u64("points", 2);
        });
        emit("point.scheduled", Some(1), |_| {});
        emit("point.scheduled", Some(0), |_| {});
        emit_volatile("volatile.probe", None, |_| {});
        set_enabled(false);
        let j = drain();
        let canon = j.to_canonical_jsonl();
        let lines: Vec<&str> = canon.lines().collect();
        assert_eq!(lines.len(), 3, "{canon}");
        assert!(lines[0].contains("\"point\": 0"), "{canon}");
        assert!(lines[1].contains("\"point\": 1"), "{canon}");
        assert!(lines[2].contains("sweep.begin"), "{canon}");
        for line in lines {
            crate::json::parse(line).expect("every canonical line parses");
        }
        // The full export keeps everything.
        assert_eq!(j.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn a_span_is_one_close_record_nested_by_interval() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _outer = crate::span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = crate::span("inner");
        }
        set_enabled(false);
        let j = drain();
        let kinds: Vec<&str> = j.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec!["span.close", "span.close"]);
        let interval = |r: &Record| {
            let u = |name| match r.fields.iter().find(|f| f.name == name) {
                Some(Field {
                    value: FieldValue::U64(v),
                    ..
                }) => *v,
                _ => panic!("{name} missing: {r:?}"),
            };
            (u("start_us"), u("start_us") + u("dur_us"))
        };
        // Inner closes first; its interval lies inside the outer one.
        let (inner, outer) = (interval(&j.records[0]), interval(&j.records[1]));
        assert!(outer.0 <= inner.0 && inner.1 <= outer.1, "{:?}", j.records);
        assert!(outer.1 - outer.0 >= 1000, "{:?}", j.records);
        for r in &j.records {
            let names: Vec<&str> = r.fields.iter().map(|f| f.name).collect();
            assert_eq!(names, vec!["name", "start_us", "dur_us"]);
        }
        // Nothing canonical came out of spans alone.
        assert!(j.to_canonical_jsonl().is_empty());
    }

    #[test]
    fn counters_and_gauges_journal_volatile_records_when_enabled() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        crate::counter("probe.count", 5);
        crate::gauge("probe.peak", 9);
        set_enabled(false);
        let j = drain();
        for (kind, field, v) in [("counter", "delta", 5), ("gauge", "value", 9)] {
            let r = j
                .records
                .iter()
                .find(|r| r.kind == kind)
                .unwrap_or_else(|| panic!("{kind} journaled: {:?}", j.records));
            assert!(!r.stable);
            assert!(r
                .fields
                .iter()
                .any(|f| f.name == field && f.value == FieldValue::U64(v)));
        }
        assert!(j.to_canonical_jsonl().is_empty());
    }
}
