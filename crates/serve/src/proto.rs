//! The serve wire protocol: newline-framed JSON, one request per line
//! from the client, a stream of typed frames back from the daemon.
//!
//! The framing is `hlstb_dse::proto`'s (the worker wire path):
//! hand-rolled JSON over a `BufRead`/`Write` pair, every frame written
//! by [`hlstb_dse::proto::write_frame`], every decode failure a typed
//! error, never a panic. The sweep spec and options objects embedded
//! in a request *are* the worker protocol's
//! ([`hlstb_dse::proto::spec_to_json`], design names plus a combined
//! content hash, so a version-skewed client fails loudly; and
//! [`hlstb_dse::proto::opts_to_json`]).
//!
//! # Requests (client → daemon)
//!
//! ```text
//! {"v": 1, "type": "sweep", "id": "<client id>", "spec": {…}, "opts": {…}, "deadline_ms": 30000}
//! {"v": 1, "type": "metrics"}
//! {"v": 1, "type": "ping"}
//! ```
//!
//! # Frames (daemon → client)
//!
//! ```text
//! {"type": "accepted", "id": …, "queue_depth": …}
//! {"type": "progress", "id": …, "done": …, "total": …}
//! {"type": "result", "id": …, "report": "<canonical report JSON, escaped>"}
//! {"type": "stats", "id": …, "points": …, "wall_ms": …, "cache": {…}}
//! {"type": "error", "id": …, "kind": "overloaded", "message": …, "retry_after_ms": …}
//! ```
//!
//! The `result` frame carries *only* deterministic bytes (the
//! request id and the report's canonical JSON), which is what makes a
//! journal replay of an interrupted request byte-identical to the
//! uninterrupted response. Everything volatile — wall time, cache
//! counters — rides in the separate `stats` frame. Its `cache` object
//! counts this request's own stage lookups against the shared cache;
//! the `metrics` frame's `cache` object sums every request the daemon
//! has executed.

use std::time::Duration;

use hlstb_dse::proto::{opts_from_json, opts_to_json, spec_from_json, spec_to_json};
use hlstb_dse::{PointError, SweepOptions, SweepSpec};
use hlstb_trace::json::{self, Obj, Value};

/// Protocol version of the serve request stream.
pub const SERVE_VERSION: u64 = 1;

/// Typed error kinds the daemon sends. Stable wire vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The bounded request queue is full; retry after the hint.
    Overloaded,
    /// The request line failed to parse or validate.
    BadRequest,
    /// The request's deadline expired before (or while) it ran.
    Deadline,
    /// The daemon is draining and accepts no new work.
    Draining,
}

impl ErrorKind {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Draining => "draining",
        }
    }
}

/// One parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a sweep and stream its result back.
    Sweep(Box<SweepRequest>),
    /// Return the daemon metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
}

/// The payload of a sweep request.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Client-chosen request id, echoed on every frame and used as the
    /// journal replay key — unique per journal by convention.
    pub id: String,
    /// What to sweep.
    pub spec: SweepSpec,
    /// Execution options (per-point budget, retries); `threads` and
    /// `progress` are daemon-side decisions and are not accepted over
    /// the wire. The daemon always evaluates through its shared cache;
    /// the wire still carries `cache`, so journals written by older
    /// clients replay.
    pub opts: SweepOptions,
    /// End-to-end deadline for the request, measured from admission.
    pub deadline: Option<Duration>,
}

fn bad(what: impl std::fmt::Display) -> PointError {
    PointError::Io {
        message: format!("serve: {what}"),
    }
}

/// Renders a sweep request line (no trailing newline). The client side
/// of the protocol — also what the CLI's `serve-client` sends.
pub fn encode_sweep_request(req: &SweepRequest) -> String {
    let mut o = Obj::new();
    o.number_u64("v", SERVE_VERSION)
        .string("type", "sweep")
        .string("id", &req.id)
        .raw("spec", &spec_to_json(&req.spec))
        .raw("opts", &opts_to_json(&req.opts));
    match req.deadline {
        Some(d) => o.number_u64("deadline_ms", d.as_millis() as u64),
        None => o.raw("deadline_ms", "null"),
    };
    o.finish()
}

/// Renders a metrics request line.
pub fn encode_metrics_request() -> String {
    let mut o = Obj::new();
    o.number_u64("v", SERVE_VERSION).string("type", "metrics");
    o.finish()
}

/// Renders a ping request line.
pub fn encode_ping_request() -> String {
    let mut o = Obj::new();
    o.number_u64("v", SERVE_VERSION).string("type", "ping");
    o.finish()
}

/// Parses one request line. Every failure is a typed error carrying a
/// human-readable reason — the daemon answers with a `bad_request`
/// frame, it never disconnects silently and it never panics.
pub fn decode_request(line: &str) -> Result<Request, PointError> {
    let v = json::parse(line.trim_end()).map_err(|e| bad(format!("unparseable request: {e}")))?;
    let version = v
        .get("v")
        .and_then(Value::as_f64)
        .ok_or_else(|| bad("request missing `v`"))?;
    if version != SERVE_VERSION as f64 {
        return Err(bad(format!(
            "unsupported serve protocol version {version} (this daemon speaks {SERVE_VERSION})"
        )));
    }
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("request missing `type`"))?;
    match kind {
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "sweep" => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("sweep request missing `id`"))?
                .to_string();
            if id.is_empty() || id.len() > 256 {
                return Err(bad("sweep request `id` must be 1..=256 characters"));
            }
            let spec = spec_from_json(
                v.get("spec")
                    .ok_or_else(|| bad("sweep request missing `spec`"))?,
            )?;
            if spec.points().is_empty() {
                return Err(bad("sweep request enumerates no points"));
            }
            let opts = v
                .get("opts")
                .map_or_else(SweepOptions::default, opts_from_json);
            let deadline = v
                .get("deadline_ms")
                .and_then(Value::as_f64)
                .map(|ms| Duration::from_millis(ms as u64));
            Ok(Request::Sweep(Box::new(SweepRequest {
                id,
                spec,
                opts,
                deadline,
            })))
        }
        other => Err(bad(format!("unknown request type `{other}`"))),
    }
}

/// The `accepted` frame: the request cleared admission and is queued.
pub fn encode_accepted(id: &str, queue_depth: usize) -> String {
    let mut o = Obj::new();
    o.string("type", "accepted")
        .string("id", id)
        .number_u64("queue_depth", queue_depth as u64);
    o.finish()
}

/// A `progress` frame: `done` of `total` points complete.
pub fn encode_progress(id: &str, done: usize, total: usize) -> String {
    let mut o = Obj::new();
    o.string("type", "progress")
        .string("id", id)
        .number_u64("done", done as u64)
        .number_u64("total", total as u64);
    o.finish()
}

/// The `result` frame: deterministic bytes only — request id plus the
/// report's canonical JSON, verbatim as an escaped string. This exact
/// line is journaled and must replay byte-identically.
pub fn encode_result(id: &str, canonical_report: &str) -> String {
    let mut o = Obj::new();
    o.string("type", "result")
        .string("id", id)
        .string("report", canonical_report);
    o.finish()
}

/// The volatile `stats` companion of a `result` frame: the request's
/// wall time and its own stage-lookup counts.
pub fn encode_stats(id: &str, points: usize, wall: Duration, cache_json: Option<&str>) -> String {
    let mut o = Obj::new();
    o.string("type", "stats")
        .string("id", id)
        .number_u64("points", points as u64)
        .raw(
            "wall_ms",
            &hlstb_trace::json::number_f64(wall.as_secs_f64() * 1e3),
        );
    match cache_json {
        Some(c) => o.raw("cache", c),
        None => o.raw("cache", "null"),
    };
    o.finish()
}

/// A typed `error` frame. `retry_after_ms` is the load-shed hint —
/// only `overloaded` carries a meaningful one.
pub fn encode_error(
    id: Option<&str>,
    kind: ErrorKind,
    message: &str,
    retry_after: Option<Duration>,
) -> String {
    let mut o = Obj::new();
    o.string("type", "error");
    match id {
        Some(id) => o.string("id", id),
        None => o.raw("id", "null"),
    };
    o.string("kind", kind.label()).string("message", message);
    if let Some(d) = retry_after {
        o.number_u64("retry_after_ms", d.as_millis() as u64);
    }
    o.finish()
}

/// The `pong` reply to a ping.
pub fn encode_pong() -> String {
    let mut o = Obj::new();
    o.string("type", "pong");
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb::cdfg::benchmarks;

    fn sample() -> SweepRequest {
        let mut spec = SweepSpec::new(vec![benchmarks::figure1()]);
        spec.patterns = vec![0, 64];
        SweepRequest {
            id: "req-1".into(),
            spec,
            opts: SweepOptions {
                point_budget: Some(Duration::from_millis(250)),
                retries: 2,
                ..SweepOptions::default()
            },
            deadline: Some(Duration::from_secs(30)),
        }
    }

    #[test]
    fn sweep_request_round_trips() {
        let req = sample();
        let line = encode_sweep_request(&req);
        let Request::Sweep(back) = decode_request(&line).unwrap() else {
            panic!("not a sweep request");
        };
        assert_eq!(back.id, "req-1");
        assert_eq!(back.spec.points().len(), req.spec.points().len());
        assert_eq!(back.opts.retries, 2);
        assert_eq!(back.opts.point_budget, Some(Duration::from_millis(250)));
        assert_eq!(back.deadline, Some(Duration::from_secs(30)));
        // Re-encoding the decoded request reproduces the bytes — the
        // journal stores request lines verbatim and replays must agree.
        assert_eq!(encode_sweep_request(&back), line);
    }

    #[test]
    fn control_requests_round_trip() {
        assert!(matches!(
            decode_request(&encode_metrics_request()),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            decode_request(&encode_ping_request()),
            Ok(Request::Ping)
        ));
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        for line in [
            "",
            "not json",
            "{}",
            "{\"v\": 1}",
            "{\"v\": 99, \"type\": \"ping\"}",
            "{\"v\": 1, \"type\": \"warp\"}",
            "{\"v\": 1, \"type\": \"sweep\"}",
            "{\"v\": 1, \"type\": \"sweep\", \"id\": \"\", \"spec\": {}}",
        ] {
            let e = decode_request(line).expect_err(line);
            assert_eq!(e.kind(), "io", "{line}");
        }
    }

    #[test]
    fn error_frames_carry_kind_and_hint() {
        let f = encode_error(
            Some("x"),
            ErrorKind::Overloaded,
            "queue full",
            Some(Duration::from_millis(500)),
        );
        let v = json::parse(&f).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(500.0));
        let f = encode_error(None, ErrorKind::BadRequest, "nope", None);
        let v = json::parse(&f).unwrap();
        assert!(matches!(v.get("id"), Some(Value::Null)));
        assert!(v.get("retry_after_ms").is_none());
    }
}
