//! The coordinator ⇄ worker wire protocol for scale-out sweeps.
//!
//! # Framing
//!
//! Line-delimited JSON in both directions — one object per `\n`-framed
//! line, no length prefixes, no binary — over the TCP connection a
//! worker dials to its coordinator ([`crate::worker`]). Nothing here is
//! transport-aware: the frame layer needs only an ordered byte stream.
//!
//! # Frames
//!
//! Coordinator → worker ([`ToWorker`]):
//!
//! ```text
//! {"type": "hello", "v": 3, "worker": 0, "spec": {…}, "opts": {…}}
//! {"type": "lease", "start": 0, "end": 4}
//! {"type": "shutdown"}
//! ```
//!
//! Worker → coordinator ([`FromWorker`]):
//!
//! ```text
//! {"type": "ready", "worker": 0, "points": 297, "token": "<32-hex>"}
//! {"v": 1, "key": "<16-hex>", "index": 3, "canonical": "<escaped JSON>"}
//! {"type": "done", "start": 0, "end": 4, "points": 4, "retries": 0, "cache": {…}}
//! {"type": "error", "message": "…"}
//! ```
//!
//! `ready` echoes the launch token of a `--workers` sweep (omitted by a
//! worker that has none; a listen-mode coordinator ignores it). The
//! `done` frame's trailing counters are cumulative over the
//! worker's session ([`DoneStats`]); the coordinator keeps the latest
//! snapshot per lane and sums them fleet-wide into the report
//! envelope. (The point frame's `"v"` is the checkpoint format
//! version, unrelated to [`PROTO_VERSION`].)
//!
//! The point frame is **exactly** the checkpoint record line of
//! [`crate::checkpoint`] — same encoder, same parser — so a worker's
//! stream is literally a checkpoint of its leased points and the
//! coordinator splices the embedded canonical bytes verbatim. It is
//! distinguished from control frames by its `"v"` field (control
//! frames carry `"type"` instead).
//!
//! The spec travels by *name*: designs are referenced by their
//! benchmark-catalogue names plus a combined content hash the worker
//! verifies after resolving, and the axes use the same name vocabulary
//! as the CLI ([`crate::spec`]). Any decode failure anywhere maps to
//! [`PointError::Io`] — the typed, non-retryable "the transport or
//! peer is broken" verdict the coordinator answers by re-issuing the
//! dead worker's leases elsewhere.

use std::io::Write;
use std::time::Duration;

use hlstb::cdfg::{benchmarks, Cdfg};

use crate::checkpoint;
use crate::engine::SweepOptions;
use crate::error::PointError;
use crate::failpoint::FailPlan;
use crate::key;
use crate::spec::{self, SweepSpec};
use hlstb_trace::json::{self, Arr, Obj, Value};

/// Protocol version; bumped on any frame-layout change (v2: the `done`
/// frame grew cumulative per-worker counters and cache stats; v3:
/// `ready` may echo a launch token).
pub const PROTO_VERSION: u64 = 3;

/// A frame the coordinator sends to a worker.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Session setup: the worker's id, the sweep spec, and the
    /// evaluation options (including any injected fail plan).
    Hello(Box<Hello>),
    /// A leased half-open index range `[start, end)` to evaluate.
    Lease {
        /// First point index of the lease.
        start: usize,
        /// One past the last point index.
        end: usize,
    },
    /// No more leases; exit cleanly.
    Shutdown,
}

/// The decoded `hello` payload.
#[derive(Debug, Clone)]
pub struct Hello {
    /// The worker's lane id (journals + diagnostics).
    pub worker: u32,
    /// The sweep spec, resolved and hash-verified.
    pub spec: SweepSpec,
    /// Evaluation options for this worker.
    pub opts: SweepOptions,
    /// The coordinator's injected fail plan, if any.
    pub fail_plan: Option<FailPlan>,
}

/// A frame a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Handshake reply: the worker resolved the spec to `points`
    /// points (the coordinator cross-checks the count).
    Ready {
        /// Echoed worker id.
        worker: u32,
        /// Points the worker's resolved spec enumerates.
        points: usize,
        /// The launch token the worker was given, if any.
        token: Option<String>,
    },
    /// One completed point in checkpoint-record form.
    Point {
        /// The point's content key.
        key: u64,
        /// The point's index.
        index: usize,
        /// The point's canonical JSON, verbatim.
        canonical: String,
    },
    /// A lease fully evaluated and streamed, with the worker's
    /// cumulative session counters.
    Done {
        /// Echoed lease start.
        start: usize,
        /// Echoed lease end.
        end: usize,
        /// Cumulative counters for the worker's whole session (not
        /// just this lease), so the coordinator keeps only the latest
        /// snapshot per lane.
        stats: DoneStats,
    },
    /// The worker is giving up (spec mismatch, internal failure).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Cumulative per-worker counters carried by every `done` frame, so
/// the coordinator can aggregate evaluation effort fleet-wide without
/// a separate stats round-trip. Counters are monotone over a worker's
/// session; the coordinator keeps the latest snapshot per lane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DoneStats {
    /// Points the worker has streamed back so far (all leases).
    pub points: u64,
    /// Transient-failure retries the worker's bounded-retry policy
    /// performed so far.
    pub retries: u64,
    /// The session's lookup counts, when its cache is enabled.
    pub cache: Option<crate::cache::CacheStats>,
}

fn io_err(what: impl std::fmt::Display) -> PointError {
    PointError::Io {
        message: format!("proto: {what}"),
    }
}

fn field_usize(v: &Value, key: &str) -> Result<usize, PointError> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|n| n as usize)
        .ok_or_else(|| io_err(format!("frame missing numeric `{key}`")))
}

/// Renders a spec as its wire object: design *names* plus a combined
/// content hash, and every axis in CLI name vocabulary. Public so the
/// serve request protocol can embed exactly the same spec object.
pub fn spec_to_json(spec: &SweepSpec) -> String {
    let names = |items: &[String]| {
        let mut a = Arr::new();
        for s in items {
            a.string(s);
        }
        a.finish()
    };
    let numbers = |items: &[u64]| {
        let mut a = Arr::new();
        for n in items {
            a.raw(&n.to_string());
        }
        a.finish()
    };
    let design_names: Vec<String> = spec.designs.iter().map(|d| d.name().to_string()).collect();
    let design_keys: Vec<u64> = spec.designs.iter().map(key::hash_debug).collect();
    let mut o = Obj::new();
    o.raw("designs", &names(&design_names))
        .string(
            "design_hash",
            &format!("{:016x}", key::combine(&design_keys)),
        )
        .raw(
            "schedulers",
            &names(
                &spec
                    .schedulers
                    .iter()
                    .map(|&s| spec::scheduler_name(s))
                    .collect::<Vec<_>>(),
            ),
        )
        .raw(
            "policies",
            &names(
                &spec
                    .policies
                    .iter()
                    .map(|&p| spec::policy_name(p).to_string())
                    .collect::<Vec<_>>(),
            ),
        )
        .raw(
            "strategies",
            &names(
                &spec
                    .strategies
                    .iter()
                    .map(|&s| spec::strategy_name(s))
                    .collect::<Vec<_>>(),
            ),
        )
        .raw(
            "widths",
            &numbers(
                &spec
                    .widths
                    .iter()
                    .map(|&w| u64::from(w))
                    .collect::<Vec<_>>(),
            ),
        )
        .raw(
            "patterns",
            &numbers(&spec.patterns.iter().map(|&p| p as u64).collect::<Vec<_>>()),
        )
        .boolean("reset_controller", spec.reset_controller);
    o.finish()
}

/// Resolves a wire spec object back into a [`SweepSpec`]: designs by
/// catalogue name, axes by CLI vocabulary, then verifies the combined
/// design content hash so a version-skewed worker fails loudly instead
/// of silently computing different bytes. Public for the serve request
/// protocol.
pub fn spec_from_json(v: &Value) -> Result<SweepSpec, PointError> {
    let str_list = |key: &str| -> Result<Vec<String>, PointError> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| io_err(format!("spec missing `{key}`")))?
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| io_err(format!("non-string entry in spec `{key}`")))
            })
            .collect()
    };
    let catalogue: Vec<Cdfg> = benchmarks::all();
    let mut designs = Vec::new();
    for name in str_list("designs")? {
        let d = catalogue
            .iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| io_err(format!("unknown design `{name}` in wire spec")))?;
        designs.push(d.clone());
    }
    let design_keys: Vec<u64> = designs.iter().map(key::hash_debug).collect();
    let got = format!("{:016x}", key::combine(&design_keys));
    let want = v
        .get("design_hash")
        .and_then(Value::as_str)
        .ok_or_else(|| io_err("spec missing `design_hash`"))?;
    if got != want {
        return Err(io_err(format!(
            "design content hash mismatch: coordinator {want}, worker {got} — version skew?"
        )));
    }
    let schedulers = str_list("schedulers")?
        .iter()
        .map(|s| spec::parse_scheduler(s).ok_or_else(|| io_err(format!("bad scheduler `{s}`"))))
        .collect::<Result<Vec<_>, _>>()?;
    let policies = str_list("policies")?
        .iter()
        .map(|s| spec::parse_policy(s).ok_or_else(|| io_err(format!("bad policy `{s}`"))))
        .collect::<Result<Vec<_>, _>>()?;
    let strategies = str_list("strategies")?
        .iter()
        .map(|s| spec::parse_strategy(s).ok_or_else(|| io_err(format!("bad strategy `{s}`"))))
        .collect::<Result<Vec<_>, _>>()?;
    let num_list = |key: &str| -> Result<Vec<u64>, PointError> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| io_err(format!("spec missing `{key}`")))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .map(|n| n as u64)
                    .ok_or_else(|| io_err(format!("non-numeric entry in spec `{key}`")))
            })
            .collect()
    };
    Ok(SweepSpec {
        designs,
        schedulers,
        policies,
        strategies,
        widths: num_list("widths")?.iter().map(|&w| w as u32).collect(),
        patterns: num_list("patterns")?.iter().map(|&p| p as usize).collect(),
        reset_controller: v
            .get("reset_controller")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

/// Renders the evaluation options a peer may set — `cache`,
/// `point_budget_ms`, `retries` — as their wire object. Public so the
/// serve request protocol carries exactly the same object.
pub fn opts_to_json(opts: &SweepOptions) -> String {
    let mut o = Obj::new();
    o.boolean("cache", opts.cache);
    match opts.point_budget {
        Some(b) => o.number_u64("point_budget_ms", b.as_millis() as u64),
        None => o.raw("point_budget_ms", "null"),
    };
    o.number_u64("retries", u64::from(opts.retries));
    o.finish()
}

/// Reads an `opts` wire object back. Absent fields take the
/// [`SweepOptions`] defaults, and so does everything the wire does not
/// carry: `threads` and `progress` are the receiver's decisions.
pub fn opts_from_json(v: &Value) -> SweepOptions {
    let defaults = SweepOptions::default();
    let number = |key| v.get(key).and_then(Value::as_f64);
    SweepOptions {
        cache: v
            .get("cache")
            .and_then(Value::as_bool)
            .unwrap_or(defaults.cache),
        point_budget: number("point_budget_ms").map(|ms| Duration::from_millis(ms as u64)),
        retries: number("retries").map_or(defaults.retries, |r| r as u32),
        ..defaults
    }
}

/// Writes one frame and its newline in a single `write_all`, then
/// flushes — the one frame writer of both newline-JSON protocols.
pub fn write_frame(out: &mut dyn Write, frame: &str) -> Result<(), PointError> {
    out.write_all(format!("{frame}\n").as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| io_err(format!("write frame: {e}")))
}

/// Encodes the session-setup frame.
pub fn encode_hello(
    worker: u32,
    spec: &SweepSpec,
    opts: &SweepOptions,
    fail_plan: Option<&FailPlan>,
) -> String {
    let mut o = Obj::new();
    o.string("type", "hello")
        .number_u64("v", PROTO_VERSION)
        .number_u64("worker", u64::from(worker))
        .raw("spec", &spec_to_json(spec))
        .raw("opts", &opts_to_json(opts));
    if let Some(plan) = fail_plan {
        o.string("fail_plan", &plan.to_spec());
    }
    o.finish()
}

/// Encodes a lease frame for `[start, end)`.
pub fn encode_lease(start: usize, end: usize) -> String {
    let mut o = Obj::new();
    o.string("type", "lease")
        .number_u64("start", start as u64)
        .number_u64("end", end as u64);
    o.finish()
}

/// Encodes the shutdown frame.
pub fn encode_shutdown() -> String {
    let mut o = Obj::new();
    o.string("type", "shutdown");
    o.finish()
}

/// Encodes a worker's handshake reply, echoing its launch token when
/// it has one.
pub fn encode_ready(worker: u32, points: usize, token: Option<&str>) -> String {
    let mut o = Obj::new();
    o.string("type", "ready")
        .number_u64("worker", u64::from(worker))
        .number_u64("points", points as u64);
    if let Some(token) = token {
        o.string("token", token);
    }
    o.finish()
}

/// Encodes one completed point — byte-identical to the checkpoint
/// record line for the same arguments.
pub fn encode_point(key: u64, index: usize, canonical: &str) -> String {
    checkpoint::encode_line(key, index, canonical)
}

/// Encodes a lease-complete frame carrying the worker's cumulative
/// session counters.
pub fn encode_done(start: usize, end: usize, stats: &DoneStats) -> String {
    let mut o = Obj::new();
    o.string("type", "done")
        .number_u64("start", start as u64)
        .number_u64("end", end as u64)
        .number_u64("points", stats.points)
        .number_u64("retries", stats.retries);
    match &stats.cache {
        Some(c) => o.raw("cache", &c.to_json()),
        None => o.raw("cache", "null"),
    };
    o.finish()
}

/// Encodes a worker's terminal error report.
pub fn encode_error(message: &str) -> String {
    let mut o = Obj::new();
    o.string("type", "error").string("message", message);
    o.finish()
}

/// Decodes one coordinator → worker line.
///
/// # Errors
///
/// [`PointError::Io`] on malformed JSON, an unknown frame type, a
/// protocol-version mismatch, or an unresolvable spec.
pub fn decode_to_worker(line: &str) -> Result<ToWorker, PointError> {
    let v = json::parse(line.trim_end()).map_err(|e| io_err(format!("bad frame: {e}")))?;
    match v.get("type").and_then(Value::as_str) {
        Some("hello") => {
            let ver = v.get("v").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            if ver != PROTO_VERSION {
                return Err(io_err(format!(
                    "protocol version mismatch: got {ver}, want {PROTO_VERSION}"
                )));
            }
            let worker = field_usize(&v, "worker")? as u32;
            let spec = spec_from_json(
                v.get("spec")
                    .ok_or_else(|| io_err("hello missing `spec`"))?,
            )?;
            let opts = opts_from_json(
                v.get("opts")
                    .ok_or_else(|| io_err("hello missing `opts`"))?,
            );
            let fail_plan = match v.get("fail_plan").and_then(Value::as_str) {
                Some(s) => {
                    Some(FailPlan::parse(s).map_err(|e| io_err(format!("bad fail plan: {e}")))?)
                }
                None => None,
            };
            Ok(ToWorker::Hello(Box::new(Hello {
                worker,
                spec,
                opts,
                fail_plan,
            })))
        }
        Some("lease") => Ok(ToWorker::Lease {
            start: field_usize(&v, "start")?,
            end: field_usize(&v, "end")?,
        }),
        Some("shutdown") => Ok(ToWorker::Shutdown),
        Some(t) => Err(io_err(format!("unknown coordinator frame `{t}`"))),
        None => Err(io_err("coordinator frame missing `type`")),
    }
}

/// Decodes one worker → coordinator line. Point frames (the checkpoint
/// record format) are recognized by their `"v"` field; everything else
/// must carry a `"type"`.
///
/// # Errors
///
/// [`PointError::Io`] on malformed JSON or an unknown frame — which is
/// exactly what a worker killed mid-record leaves behind, so the
/// coordinator treats any decode error as that worker's death.
pub fn decode_from_worker(line: &str) -> Result<FromWorker, PointError> {
    let trimmed = line.trim_end();
    if let Some((key, index, canonical)) = checkpoint::parse_line(trimmed) {
        return Ok(FromWorker::Point {
            key,
            index,
            canonical,
        });
    }
    let v = json::parse(trimmed).map_err(|e| io_err(format!("bad frame: {e}")))?;
    match v.get("type").and_then(Value::as_str) {
        Some("ready") => Ok(FromWorker::Ready {
            worker: field_usize(&v, "worker")? as u32,
            points: field_usize(&v, "points")?,
            token: v.get("token").and_then(Value::as_str).map(str::to_string),
        }),
        Some("done") => Ok(FromWorker::Done {
            start: field_usize(&v, "start")?,
            end: field_usize(&v, "end")?,
            stats: DoneStats {
                points: field_usize(&v, "points")? as u64,
                retries: field_usize(&v, "retries")? as u64,
                cache: v.get("cache").and_then(crate::cache::CacheStats::from_json),
            },
        }),
        Some("error") => Ok(FromWorker::Error {
            message: v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unspecified worker error")
                .to_string(),
        }),
        Some(t) => Err(io_err(format!("unknown worker frame `{t}`"))),
        None => Err(io_err(
            "worker frame is neither a point record nor a typed control frame",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb::flow::DftStrategy;

    fn sample_spec() -> SweepSpec {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1(), benchmarks::tseng()]);
        spec.strategies = vec![
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::KLevelTestPoints(2),
        ];
        spec.widths = vec![4, 8];
        spec.patterns = vec![0, 64];
        spec
    }

    #[test]
    fn hello_round_trips_spec_opts_and_fail_plan() {
        let spec = sample_spec();
        let opts = SweepOptions {
            cache: true,
            point_budget: Some(Duration::from_millis(250)),
            retries: 2,
            ..SweepOptions::default()
        };
        let plan = FailPlan::parse("panic:1;flaky:3").unwrap();
        let line = encode_hello(5, &spec, &opts, Some(&plan));
        let ToWorker::Hello(h) = decode_to_worker(&line).unwrap() else {
            panic!("not a hello");
        };
        assert_eq!(h.worker, 5);
        assert_eq!(h.spec.points().len(), spec.points().len());
        assert_eq!(h.spec.widths, spec.widths);
        assert_eq!(h.spec.patterns, spec.patterns);
        assert_eq!(h.spec.strategies, spec.strategies);
        assert_eq!(h.opts.cache, opts.cache);
        assert_eq!(h.opts.point_budget, opts.point_budget);
        assert_eq!(h.opts.retries, opts.retries);
        assert_eq!(h.fail_plan, Some(plan));
        // The resolved designs hash identically, so point keys agree.
        let keys: Vec<u64> = spec.designs.iter().map(crate::key::hash_debug).collect();
        let got: Vec<u64> = h.spec.designs.iter().map(crate::key::hash_debug).collect();
        assert_eq!(keys, got);
    }

    #[test]
    fn control_frames_round_trip() {
        assert!(matches!(
            decode_to_worker(&encode_lease(3, 9)).unwrap(),
            ToWorker::Lease { start: 3, end: 9 }
        ));
        assert!(matches!(
            decode_to_worker(&encode_shutdown()).unwrap(),
            ToWorker::Shutdown
        ));
        assert_eq!(
            decode_from_worker(&encode_ready(2, 297, None)).unwrap(),
            FromWorker::Ready {
                worker: 2,
                points: 297,
                token: None
            }
        );
        assert_eq!(
            decode_from_worker(&encode_ready(2, 297, Some("00ff"))).unwrap(),
            FromWorker::Ready {
                worker: 2,
                points: 297,
                token: Some("00ff".into())
            }
        );
        let stats = DoneStats {
            points: 4,
            retries: 1,
            cache: Some(crate::cache::CacheStats::default()),
        };
        assert_eq!(
            decode_from_worker(&encode_done(0, 4, &stats)).unwrap(),
            FromWorker::Done {
                start: 0,
                end: 4,
                stats: stats.clone()
            }
        );
        // A cache-off worker reports a null cache, decoded as None.
        let no_cache = DoneStats {
            cache: None,
            ..stats
        };
        assert_eq!(
            decode_from_worker(&encode_done(0, 4, &no_cache)).unwrap(),
            FromWorker::Done {
                start: 0,
                end: 4,
                stats: no_cache
            }
        );
        assert_eq!(
            decode_from_worker(&encode_error("boom")).unwrap(),
            FromWorker::Error {
                message: "boom".into()
            }
        );
    }

    #[test]
    fn point_frames_are_checkpoint_lines() {
        let line = encode_point(0xAB, 7, "{\"index\": 7}");
        assert_eq!(line, checkpoint::encode_line(0xAB, 7, "{\"index\": 7}"));
        assert_eq!(
            decode_from_worker(&line).unwrap(),
            FromWorker::Point {
                key: 0xAB,
                index: 7,
                canonical: "{\"index\": 7}".into()
            }
        );
    }

    #[test]
    fn malformed_lines_are_typed_io_errors() {
        for bad in [
            "",
            "not json",
            "{\"type\": \"bogus\"}",
            "{\"no\": \"type\"}",
            "{\"type\": \"lease\", \"start\": 1}",
            "{\"v\": 1, \"key\": \"zz\"}",
        ] {
            let e = decode_from_worker(bad).unwrap_err();
            assert_eq!(e.kind(), "io", "{bad}");
            let e = decode_to_worker(bad).unwrap_err();
            assert_eq!(e.kind(), "io", "{bad}");
        }
        // A torn point record (killed mid-write) is an Io error too.
        let whole = encode_point(0x1, 0, "{\"index\": 0}");
        let torn = &whole[..whole.len() / 2];
        assert_eq!(decode_from_worker(torn).unwrap_err().kind(), "io");
    }

    #[test]
    fn version_skew_and_unknown_designs_are_rejected() {
        let spec = sample_spec();
        let line = encode_hello(0, &spec, &SweepOptions::default(), None);
        let skewed = line.replace(&format!("\"v\": {PROTO_VERSION}"), "\"v\": 99");
        assert!(decode_to_worker(&skewed)
            .unwrap_err()
            .message()
            .contains("version mismatch"));
        let renamed = line.replace("figure1", "not_a_design");
        assert!(decode_to_worker(&renamed)
            .unwrap_err()
            .message()
            .contains("unknown design"));
    }
}
