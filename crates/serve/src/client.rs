//! A minimal blocking client for the serve protocol, used by the
//! CLI's `serve-client` subcommand and the integration tests.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use hlstb_dse::proto::write_frame;
use hlstb_dse::PointError;
use hlstb_trace::json::{self, Value};

use crate::proto::{self, SweepRequest};

fn io(what: impl std::fmt::Display) -> PointError {
    PointError::Io {
        message: format!("serve-client: {what}"),
    }
}

/// What a sweep request resolved to.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The report's canonical JSON, exactly as the daemon computed it.
    pub report: String,
    /// `progress` frames observed while waiting.
    pub progress_frames: usize,
}

/// Connects, submits `req`, and blocks until the `result` (returned)
/// or an `error` frame (returned as a typed error carrying the frame's
/// kind and message).
pub fn run_sweep(addr: &str, req: &SweepRequest) -> Result<SweepOutcome, PointError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io(format!("connect {addr}: {e}")))?;
    write_frame(&mut stream, &proto::encode_sweep_request(req))
        .map_err(|e| io(format!("send: {}", e.message())))?;
    let reader = BufReader::new(stream);
    let mut progress_frames = 0;
    let mut accepted = false;
    for frame in reader.lines() {
        let frame = frame.map_err(|e| io(format!("read: {e}")))?;
        let v = json::parse(&frame).map_err(|e| io(format!("unparseable frame: {e}")))?;
        match v.get("type").and_then(Value::as_str) {
            Some("accepted") => accepted = true,
            Some("progress") => progress_frames += 1,
            Some("stats") => {}
            Some("result") => {
                let report = v
                    .get("report")
                    .and_then(Value::as_str)
                    .ok_or_else(|| io("result frame without report"))?;
                return Ok(SweepOutcome {
                    report: report.to_string(),
                    progress_frames,
                });
            }
            Some("error") => {
                let kind = v.get("kind").and_then(Value::as_str).unwrap_or("unknown");
                let message = v.get("message").and_then(Value::as_str).unwrap_or("");
                let retry = v
                    .get("retry_after_ms")
                    .and_then(Value::as_f64)
                    .map(|ms| format!(" (retry after {ms} ms)"))
                    .unwrap_or_default();
                return Err(io(format!(
                    "daemon refused `{}`: {kind}: {message}{retry}",
                    req.id
                )));
            }
            other => {
                return Err(io(format!("unexpected frame type {other:?}")));
            }
        }
    }
    Err(io(if accepted {
        "connection closed before the result frame (daemon killed?)"
    } else {
        "connection closed before the request was accepted"
    }))
}

/// Sends a one-shot control request (`metrics` or `ping`) and returns
/// the single reply frame verbatim.
pub fn control(addr: &str, request_line: &str) -> Result<String, PointError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io(format!("connect {addr}: {e}")))?;
    write_frame(&mut stream, request_line).map_err(|e| io(format!("send: {}", e.message())))?;
    let mut reader = BufReader::new(stream);
    let mut frame = String::new();
    reader
        .read_line(&mut frame)
        .map_err(|e| io(format!("read: {e}")))?;
    if frame.is_empty() {
        return Err(io("connection closed without a reply"));
    }
    Ok(frame.trim_end().to_string())
}
