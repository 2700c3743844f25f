//! Append-only JSONL logs, shared by sweep checkpoints and the serve
//! request journal; each owner keeps only its record format. A record
//! is one line written whole, newline included, in one `write_all` on
//! an `O_APPEND` descriptor, so concurrent appenders (threads, or other
//! processes on the same file) never interleave partial lines. A failed
//! append latches the log into a no-op instead of failing the work it
//! records, and loading skips and counts the torn tail a crash leaves.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::error::PointError;

/// An append-mode JSONL file shared by every thread that records into
/// it.
pub struct AppendLog {
    file: Mutex<File>,
    degraded: AtomicBool,
}

impl AppendLog {
    /// Opens (creating if needed) `path` for appending; `what` names
    /// the log in the error.
    pub fn open(path: &Path, what: &str) -> Result<AppendLog, PointError> {
        let file = OpenOptions::new().create(true).append(true).open(path);
        Ok(AppendLog {
            file: Mutex::new(file.map_err(|e| PointError::Io {
                message: format!("{what} {}: {e}", path.display()),
            })?),
            degraded: AtomicBool::new(false),
        })
    }

    /// Whether a write failure already latched the log into a no-op.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Latches the log into a no-op, printing `warning: {why}` only on
    /// the first call: writers all hitting one dead disk warn once.
    pub fn degrade(&self, why: &str) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!("warning: {why}");
        }
    }

    /// Appends one record as a line and flushes it; a no-op once
    /// degraded.
    pub fn append(&self, record: &str) -> std::io::Result<()> {
        if self.degraded() {
            return Ok(());
        }
        let line = format!("{record}\n");
        let mut f = self.file.lock().expect("append log lock");
        f.write_all(line.as_bytes())?;
        f.flush()
    }
}

/// Feeds each line of the log at `path` to `parse`, which says whether
/// it was a well-formed record, and returns how many were not. Those
/// get one stderr warning naming the log (`what`) and what becomes of
/// their records (`then`). A missing file is [`std::io::ErrorKind::NotFound`].
pub fn load(
    path: &Path,
    what: &str,
    then: &str,
    mut parse: impl FnMut(&str) -> bool,
) -> std::io::Result<usize> {
    let text = std::fs::read_to_string(path)?;
    let skipped = text.lines().filter(|line| !parse(line)).count();
    if skipped > 0 {
        eprintln!(
            "warning: {what} {}: skipped {skipped} malformed line(s) \
             (torn tail of a crash?); {then}",
            path.display()
        );
    }
    Ok(skipped)
}
