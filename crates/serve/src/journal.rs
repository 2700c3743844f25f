//! The durable request journal: crash-safe JSONL, replayed on restart.
//!
//! # Format
//!
//! One record per line, appended and flushed as the request crosses
//! each durability boundary through [`hlstb_dse::appendlog`] (the sweep
//! checkpoint's log too); this module owns only the record format:
//!
//! ```text
//! {"v": 1, "kind": "accepted", "id": "<request id>", "request": "<the request line, verbatim>"}
//! {"v": 1, "kind": "completed", "id": "<request id>", "response": "<the result frame, verbatim>"}
//! ```
//!
//! An `accepted` record lands *before* the client hears `accepted`;
//! a `completed` record lands *before* the result frame is written to
//! the socket. A `kill -9` therefore leaves the journal in exactly one
//! of two states per request: accepted-without-completed (the daemon
//! died mid-request — restart re-executes it and, because the result
//! frame carries only the request id and the report's canonical JSON,
//! the replayed response is byte-identical) or completed (nothing to
//! do). The torn final line a crash can leave is skipped and counted,
//! never fatal — the same tolerance the sweep checkpoint loader has.
//!
//! # Degradation
//!
//! A failing append (ENOSPC, a yanked volume) does not take the daemon
//! down: the journal latches into a no-op with a single stderr
//! warning, requests keep serving, and the metrics frame reports
//! `journal_degraded` — availability over durability, loudly.

use std::path::{Path, PathBuf};

use hlstb_dse::appendlog::{self, AppendLog};
use hlstb_dse::PointError;
use hlstb_trace::json::{self, Obj, Value};

/// Journal record version.
const JOURNAL_VERSION: u64 = 1;

/// An append-mode journal handle shared by connection and executor
/// threads.
pub struct Journal {
    path: PathBuf,
    log: AppendLog,
}

impl Journal {
    /// Opens (creating if needed) the journal for appending.
    pub fn open_append(path: &Path) -> Result<Journal, PointError> {
        Ok(Journal {
            path: path.to_path_buf(),
            log: AppendLog::open(path, "serve journal")?,
        })
    }

    /// Whether a write failure already downgraded the journal to a
    /// no-op.
    pub fn degraded(&self) -> bool {
        self.log.degraded()
    }

    /// Journals an admitted request, verbatim request line included.
    pub fn record_accepted(&self, id: &str, request_line: &str) {
        self.append("accepted", id, "request", request_line);
    }

    /// Journals a finished request, verbatim response frame included.
    pub fn record_completed(&self, id: &str, response_frame: &str) {
        self.append("completed", id, "response", response_frame);
    }

    /// Appends one record. On failure the journal degrades once and
    /// every later append is a no-op — the daemon keeps serving without
    /// durability.
    fn append(&self, kind: &str, id: &str, field: &str, verbatim: &str) {
        let mut o = Obj::new();
        o.number_u64("v", JOURNAL_VERSION)
            .string("kind", kind)
            .string("id", id)
            .string(field, verbatim);
        if let Err(e) = self.log.append(&o.finish()) {
            self.log.degrade(&format!(
                "serve journal {}: {e}; continuing without durability",
                self.path.display()
            ));
        }
    }
}

/// One journaled request that was accepted but never completed — the
/// replay work-list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pending {
    /// The request id.
    pub id: String,
    /// The verbatim request line as originally received.
    pub request: String,
}

/// What a journal load found.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Accepted-without-completed requests, in acceptance order.
    pub pending: Vec<Pending>,
    /// Count of completed records seen.
    pub completed: usize,
    /// Malformed lines skipped (the torn tail of a crash).
    pub skipped: usize,
}

enum Record {
    Accepted { id: String, request: String },
    Completed { id: String },
}

fn parse_record(line: &str) -> Option<Record> {
    let v = json::parse(line).ok()?;
    if v.get("v").and_then(Value::as_f64) != Some(JOURNAL_VERSION as f64) {
        return None;
    }
    let id = v.get("id").and_then(Value::as_str)?.to_string();
    match v.get("kind").and_then(Value::as_str)? {
        "accepted" => Some(Record::Accepted {
            id,
            request: v.get("request").and_then(Value::as_str)?.to_string(),
        }),
        "completed" => Some(Record::Completed { id }),
        _ => None,
    }
}

/// Loads a journal. A missing file is an empty journal (a daemon's
/// first start); malformed lines are skipped with a single stderr
/// warning, exactly like the sweep checkpoint loader — a crash tears
/// at most the final line and must never block restart.
pub fn load(path: &Path) -> Result<JournalState, PointError> {
    let mut state = JournalState::default();
    let loaded = appendlog::load(
        path,
        "serve journal",
        "fully journaled requests replay normally",
        |line| match parse_record(line) {
            Some(Record::Accepted { id, request }) => {
                // Later wins: a replayed-and-interrupted request may be
                // re-accepted; only the newest acceptance is pending.
                state.pending.retain(|p| p.id != id);
                state.pending.push(Pending { id, request });
                true
            }
            Some(Record::Completed { id }) => {
                state.pending.retain(|p| p.id != id);
                state.completed += 1;
                true
            }
            None => false,
        },
    );
    match loaded {
        Ok(skipped) => state.skipped = skipped,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(PointError::Io {
                message: format!("serve journal {}: {e}", path.display()),
            })
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hlstb_serve_journal_{}_{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn accepted_without_completed_is_pending() {
        let path = temp("pending");
        std::fs::remove_file(&path).ok();
        {
            let j = Journal::open_append(&path).unwrap();
            j.record_accepted("a", "{\"type\": \"sweep\", \"id\": \"a\"}");
            j.record_completed("a", "{\"type\": \"result\", \"id\": \"a\"}");
            j.record_accepted("b", "{\"type\": \"sweep\", \"id\": \"b\"}");
            assert!(!j.degraded());
        }
        let state = load(&path).unwrap();
        assert_eq!(state.completed, 1);
        assert_eq!(state.skipped, 0);
        assert_eq!(
            state.pending,
            vec![Pending {
                id: "b".into(),
                request: "{\"type\": \"sweep\", \"id\": \"b\"}".into(),
            }]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_empty_not_fatal() {
        let state = load(Path::new("/definitely/not/here/journal.jsonl")).unwrap();
        assert!(state.pending.is_empty());
        assert_eq!((state.completed, state.skipped), (0, 0));
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let path = temp("torn");
        std::fs::remove_file(&path).ok();
        {
            let j = Journal::open_append(&path).unwrap();
            j.record_accepted("a", "req-a");
            j.record_accepted("b", "req-b");
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // A crash can tear the final record at any byte: the first
        // record must survive every cut, and the torn bytes must never
        // parse as a bogus record.
        for cut in first_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let state = load(&path).unwrap();
            assert_eq!(state.pending[0].id, "a", "cut at {cut}");
            if cut == first_len {
                assert_eq!((state.pending.len(), state.skipped), (1, 0), "cut at {cut}");
            } else {
                assert!(state.pending.len() <= 2, "cut at {cut}");
                if state.pending.len() == 1 {
                    assert_eq!(state.skipped, 1, "cut at {cut}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_reacceptance_keeps_one_pending_entry() {
        let path = temp("reaccept");
        std::fs::remove_file(&path).ok();
        {
            let j = Journal::open_append(&path).unwrap();
            j.record_accepted("a", "req-a");
            j.record_accepted("a", "req-a");
        }
        let state = load(&path).unwrap();
        assert_eq!(state.pending.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
