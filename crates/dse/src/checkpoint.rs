//! JSONL sweep checkpoints: stream completed points, resume cheaply.
//!
//! # Format
//!
//! One JSON object per line, appended (and flushed) as each point
//! completes, so an interrupted sweep loses at most the in-flight
//! points:
//!
//! ```text
//! {"v": 1, "key": "<16-hex content key>", "index": 3, "canonical": "<the point's canonical JSON, escaped>"}
//! ```
//!
//! The `key` is the point's content key ([`crate::engine::point_key`]):
//! a hash of the design's content plus every axis coordinate, so a
//! checkpoint written against an edited spec simply misses and the
//! point is recomputed — stale results are never served. The `index`
//! must also match, because the canonical payload embeds it.
//!
//! # Byte-exact resume
//!
//! The `canonical` field stores the point's canonical JSON object
//! *verbatim* (as an escaped string). On resume the bytes are spliced
//! back into the report unchanged, which is what makes a resumed
//! sweep's [`crate::SweepReport::canonical_json`] byte-identical to an
//! uninterrupted run's — no float re-formatting, no field-order drift.
//! The payload is *also* parsed back into a typed [`PointRecord`] so
//! tables, summaries, and programmatic consumers see real metrics; a
//! line that fails to parse (e.g. the torn tail of a killed run) is
//! ignored and its point recomputed.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use hlstb::report::TestabilityReport;
use hlstb_trace::json::{self, Obj, Value};

use crate::appendlog::{self, AppendLog};
use crate::error::PointError;
use crate::report::{PointMetrics, PointRecord};

/// Streams completed points to a JSONL [`AppendLog`] (one flush per
/// point), shared by the sweep's evaluating threads.
///
/// A failing append (ENOSPC, a yanked volume) does not abort the
/// sweep: callers route write errors through
/// [`degrade`](Checkpoint::degrade), which warns on stderr exactly
/// once and latches the checkpoint into a no-op — the sweep finishes
/// checkpoint-less and the envelope carries a `checkpoint_degraded`
/// flag.
pub struct Checkpoint {
    log: AppendLog,
}

impl Checkpoint {
    /// Opens (creating if needed) the checkpoint for appending.
    pub fn open_append(path: &Path) -> Result<Checkpoint, PointError> {
        Ok(Checkpoint {
            log: AppendLog::open(path, "checkpoint")?,
        })
    }

    /// Whether a write failure already downgraded this checkpoint to a
    /// no-op.
    pub fn degraded(&self) -> bool {
        self.log.degraded()
    }

    /// Latches the checkpoint into degraded (no-op) mode, warning on
    /// stderr only on the first call.
    pub fn degrade(&self, why: &str) {
        self.log
            .degrade(&format!("{why}; continuing without checkpointing"));
    }

    /// Appends one completed point as a single line ([`AppendLog`]), so
    /// a coordinator and a resumed run sharing the file never tear it.
    pub fn record(&self, key: u64, index: usize, canonical: &str) -> Result<(), PointError> {
        self.log
            .append(&encode_line(key, index, canonical))
            .map_err(|e| PointError::Io {
                message: format!("checkpoint write: {e}"),
            })
    }
}

/// Renders one checkpoint record line (no trailing newline). This is
/// also the wire frame a sweep worker streams back per completed point
/// — the formats are identical by construction, not by convention.
pub(crate) fn encode_line(key: u64, index: usize, canonical: &str) -> String {
    let mut o = Obj::new();
    o.number_u64("v", 1)
        .string("key", &format!("{key:016x}"))
        .number_u64("index", index as u64)
        .string("canonical", canonical);
    o.finish()
}

/// Parses one checkpoint/wire record line back into `(key, index,
/// canonical)`. `None` on anything malformed — a torn tail line, a
/// wrong version, a missing field.
pub(crate) fn parse_line(line: &str) -> Option<(u64, usize, String)> {
    let v = json::parse(line).ok()?;
    if v.get("v").and_then(Value::as_f64) != Some(1.0) {
        return None;
    }
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())?;
    let index = v.get("index").and_then(Value::as_f64)?;
    let canonical = v.get("canonical").and_then(Value::as_str)?;
    Some((key, index as usize, canonical.to_string()))
}

/// Completed points loaded from a checkpoint, keyed by content key and
/// point index.
#[derive(Debug, Default)]
pub struct RestoredSet {
    map: HashMap<(u64, usize), String>,
    skipped: usize,
}

impl RestoredSet {
    /// Loads a checkpoint file, skipping malformed lines with a single
    /// stderr warning (a killed sweep can tear its final line;
    /// everything before it is intact and a torn tail must not fail
    /// the whole resume). A missing file is an error — resuming from
    /// nothing is almost always a typo'd path.
    pub fn load(path: &Path) -> Result<RestoredSet, PointError> {
        let mut map = HashMap::new();
        let skipped = appendlog::load(
            path,
            "resume checkpoint",
            "the affected points recompute",
            |line| {
                // Later lines win: a re-run after an interrupted resume
                // may append the same point again with identical content.
                parse_line(line)
                    .map(|(key, index, canonical)| map.insert((key, index), canonical))
                    .is_some()
            },
        )
        .map_err(|e| PointError::Io {
            message: format!("resume checkpoint {}: {e}", path.display()),
        })?;
        Ok(RestoredSet { map, skipped })
    }

    /// How many malformed lines the load skipped (0 for a clean file).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The stored canonical JSON for a point, when present.
    pub fn lookup(&self, key: u64, index: usize) -> Option<&str> {
        self.map.get(&(key, index)).map(String::as_str)
    }

    /// Number of restorable points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the checkpoint held no restorable points.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

fn as_usize(v: &Value, key: &str) -> Option<usize> {
    v.get(key).and_then(Value::as_f64).map(|n| n as usize)
}

/// Rebuilds a typed [`PointRecord`] from a checkpointed canonical
/// payload. The verbatim text is kept on the record so re-rendering is
/// byte-exact; the parsed fields feed the table/summary/programmatic
/// views. Returns `None` (point recomputed) on any structural mismatch.
pub(crate) fn record_from_canonical(text: &str) -> Option<PointRecord> {
    let v = json::parse(text).ok()?;
    let outcome = match v.get("error") {
        Some(Value::Null) | None => {
            let coverage_percent = v.get("coverage_percent").and_then(Value::as_f64);
            let timed_out = v.get("timed_out").and_then(Value::as_bool).unwrap_or(false);
            let report = report_from_json(v.get("report")?)?;
            Ok(PointMetrics {
                report,
                coverage_percent,
                timed_out,
            })
        }
        Some(err) => Err(PointError::from_parts(
            err.get("kind").and_then(Value::as_str)?,
            err.get("message").and_then(Value::as_str)?,
        )?),
    };
    Some(PointRecord {
        index: as_usize(&v, "index")?,
        design: v.get("design").and_then(Value::as_str)?.to_string(),
        scheduler: v.get("scheduler").and_then(Value::as_str)?.to_string(),
        policy: v.get("policy").and_then(Value::as_str)?.to_string(),
        strategy: v.get("strategy").and_then(Value::as_str)?.to_string(),
        width: as_usize(&v, "width")? as u32,
        patterns: as_usize(&v, "patterns")?,
        outcome,
        wall: Duration::ZERO,
        restored: Some(text.to_string()),
    })
}

/// Parses the flat [`TestabilityReport`] object back from canonical
/// JSON. Sweep reports never carry grading/ATPG payloads (the sweep
/// records coverage separately), so those stay `None`.
fn report_from_json(v: &Value) -> Option<TestabilityReport> {
    Some(TestabilityReport {
        name: v.get("name").and_then(Value::as_str)?.to_string(),
        period: as_usize(v, "period")? as u32,
        registers: as_usize(v, "registers")?,
        io_registers: as_usize(v, "io_registers")?,
        fus: as_usize(v, "fus")?,
        scan_registers: as_usize(v, "scan_registers")?,
        sgraph_cycles: as_usize(v, "sgraph_cycles")?,
        sgraph_acyclic_after_scan: v
            .get("sgraph_acyclic_after_scan")
            .and_then(Value::as_bool)?,
        mfvs_size: as_usize(v, "mfvs_size")?,
        max_control_depth: as_usize(v, "max_control_depth")? as u32,
        max_observe_depth: as_usize(v, "max_observe_depth")? as u32,
        gates: as_usize(v, "gates")?,
        area: v.get("area").and_then(Value::as_f64)?,
        bist_overhead_percent: v.get("bist_overhead_percent").and_then(Value::as_f64)?,
        grading: None,
        atpg: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hlstb_ckpt_{}_{name}.jsonl", std::process::id()))
    }

    fn sample_record(ok: bool) -> PointRecord {
        let report = TestabilityReport {
            name: "fig".into(),
            period: 4,
            registers: 7,
            io_registers: 3,
            fus: 2,
            scan_registers: 1,
            sgraph_cycles: 2,
            sgraph_acyclic_after_scan: false,
            mfvs_size: 2,
            max_control_depth: 3,
            max_observe_depth: 4,
            gates: 321,
            area: 456.75,
            bist_overhead_percent: 9.25,
            grading: None,
            atpg: None,
        };
        PointRecord {
            index: 2,
            design: "fig".into(),
            scheduler: "asap".into(),
            policy: "left-edge".into(),
            strategy: "full-scan".into(),
            width: 8,
            patterns: 128,
            outcome: if ok {
                Ok(PointMetrics {
                    report,
                    coverage_percent: Some(87.5),
                    timed_out: false,
                })
            } else {
                Err(PointError::Panic {
                    message: "injected".into(),
                })
            },
            wall: Duration::from_millis(1),
            restored: None,
        }
    }

    #[test]
    fn write_load_restore_round_trips_bytes() {
        let path = temp("roundtrip");
        std::fs::remove_file(&path).ok();
        let ok = sample_record(true);
        let err = sample_record(false);
        {
            let ck = Checkpoint::open_append(&path).unwrap();
            ck.record(0xAB, 2, &ok.canonical_point_json()).unwrap();
            ck.record(0xCD, 2, &err.canonical_point_json()).unwrap();
        }
        let set = RestoredSet::load(&path).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.lookup(0xEE, 2).is_none());
        assert!(set.lookup(0xAB, 0).is_none(), "index must match too");

        let restored = record_from_canonical(set.lookup(0xAB, 2).unwrap()).unwrap();
        assert_eq!(
            restored.canonical_point_json(),
            ok.canonical_point_json(),
            "verbatim splice must be byte-exact"
        );
        let m = restored.outcome.as_ref().unwrap();
        assert_eq!(m.coverage_percent, Some(87.5));
        assert_eq!(m.report.gates, 321);
        assert_eq!(m.report.area, 456.75);
        assert!(!m.report.sgraph_acyclic_after_scan);

        let restored_err = record_from_canonical(set.lookup(0xCD, 2).unwrap()).unwrap();
        assert_eq!(
            restored_err.outcome.as_ref().err().map(|e| e.kind()),
            Some("panic")
        );
        assert_eq!(
            restored_err.canonical_point_json(),
            err.canonical_point_json()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let path = temp("torn");
        let ok = sample_record(true);
        {
            let ck = Checkpoint::open_append(&path).unwrap();
            ck.record(1, 2, &ok.canonical_point_json()).unwrap();
        }
        // Simulate a kill mid-write: append half a line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let half = &text.clone()[..text.len() / 2];
        text.push_str(half);
        std::fs::write(&path, text).unwrap();
        let set = RestoredSet::load(&path).unwrap();
        assert_eq!(set.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A crash can land mid-append at *any* byte: truncating the file
    /// at every offset inside the last record must still load, keep
    /// every fully written earlier record, and never conjure a bogus
    /// one from the torn bytes.
    #[test]
    fn truncation_at_every_byte_of_the_last_record_resumes() {
        let path = temp("every_offset");
        let ok = sample_record(true);
        let err = sample_record(false);
        {
            let ck = Checkpoint::open_append(&path).unwrap();
            ck.record(1, 2, &ok.canonical_point_json()).unwrap();
            ck.record(2, 2, &err.canonical_point_json()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in first_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let set = RestoredSet::load(&path).unwrap();
            assert!(
                set.lookup(1, 2).is_some(),
                "cut at {cut}: first record must survive"
            );
            if cut == first_len {
                // Nothing of the second record is present at all.
                assert_eq!(set.len(), 1, "cut at {cut}");
                assert_eq!(set.skipped(), 0, "cut at {cut}");
            } else {
                // A partial tail either parses as the full record
                // (only at the very end, pre-newline) or is skipped
                // and counted — never a third outcome.
                assert!(set.len() <= 2, "cut at {cut}");
                if set.len() == 1 {
                    assert_eq!(set.skipped(), 1, "cut at {cut}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A typed error message holding every character the escaper
    /// treats specially, plus multi-byte UTF-8, survives the worker's
    /// point frame and the checkpoint file byte for byte.
    #[test]
    fn non_ascii_error_payloads_splice_byte_exactly() {
        let message = "quote\" backslash\\ newline\n ctl\u{1} µ 木";
        let mut rec = sample_record(false);
        rec.outcome = Err(PointError::Flow {
            message: message.into(),
        });
        let canonical = rec.canonical_point_json();

        // Point frame → coordinator decode → typed record → re-render.
        let frame = crate::proto::encode_point(0xAB, 2, &canonical);
        let decoded = crate::proto::decode_from_worker(&frame).unwrap();
        let crate::proto::FromWorker::Point {
            key,
            index,
            canonical: spliced,
        } = decoded
        else {
            panic!("not a point frame: {decoded:?}");
        };
        assert_eq!((key, index), (0xAB, 2));
        assert_eq!(spliced, canonical);
        let mut restored = record_from_canonical(&spliced).unwrap();
        assert_eq!(
            restored.outcome.as_ref().err().map(PointError::message),
            Some(message)
        );
        assert_eq!(restored.canonical_point_json(), canonical);
        restored.restored = None;
        assert_eq!(
            restored.canonical_point_json(),
            canonical,
            "the typed fields re-render the same bytes"
        );

        // Checkpoint write → resume load.
        let path = temp("non_ascii");
        std::fs::remove_file(&path).ok();
        Checkpoint::open_append(&path)
            .unwrap()
            .record(0xAB, 2, &canonical)
            .unwrap();
        let set = RestoredSet::load(&path).unwrap();
        assert_eq!(set.skipped(), 0);
        assert_eq!(set.lookup(0xAB, 2), Some(canonical.as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_checkpoint_is_an_io_error() {
        let e = RestoredSet::load(Path::new("/definitely/not/here.jsonl")).unwrap_err();
        assert_eq!(e.kind(), "io");
    }

    #[test]
    fn garbage_canonical_payloads_are_rejected() {
        assert!(record_from_canonical("not json").is_none());
        assert!(record_from_canonical("{\"index\": 1}").is_none());
    }
}
