//! Where one run's telemetry goes, and the one place that writes it.
//!
//! A [`Sinks`] value names the files (and the stderr summary) a run
//! asks for. The `hlstb` CLI fills it from its `--trace*`/`--events*`
//! flags; the `exp_*` experiment binaries fill it from the
//! `HLSTB_TRACE*` environment hooks ([`Sinks::from_env`]). Every hook
//! selects by **value**, never by mere presence:
//!
//! * unset, empty, or `"0"` → off;
//! * `HLSTB_TRACE=<file>` → write a Chrome trace (chrome://tracing,
//!   Perfetto) to `<file>`;
//! * `HLSTB_TRACE_METRICS=<file>` → write the flat metrics JSON to
//!   `<file>`;
//! * `HLSTB_TRACE_EVENTS=<file>` → write the full journal as JSONL to
//!   `<file>`;
//! * `HLSTB_TRACE_SUMMARY=<anything else, e.g. 1>` → print the
//!   per-phase text summary to stderr.
//!
//! Any sink turns the one [`crate::events`] journal on
//! ([`Sinks::start`]); [`Sinks::finish`] drains it once and renders
//! every requested view from that journal, so the Chrome trace, the
//! metrics, the summary and the JSONL files always describe the same
//! records.

use crate::{events, Snapshot};

/// The telemetry outputs of one run. The default asks for nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sinks {
    /// Chrome-trace output path (`--trace`, `HLSTB_TRACE`).
    pub chrome: Option<String>,
    /// Flat metrics JSON output path (`--trace-metrics`,
    /// `HLSTB_TRACE_METRICS`).
    pub metrics: Option<String>,
    /// Whether to print the text summary to stderr (`--trace-summary`,
    /// `HLSTB_TRACE_SUMMARY`).
    pub summary: bool,
    /// Full journal JSONL output path (`--events`, `HLSTB_TRACE_EVENTS`).
    pub events: Option<String>,
    /// Canonical journal JSONL output path (`--events-canonical`).
    pub canonical: Option<String>,
}

/// Off when unset, empty, or `"0"`; otherwise the value.
fn value_hook(v: Option<String>) -> Option<String> {
    v.filter(|s| !s.is_empty() && s != "0")
}

impl Sinks {
    /// Resolves the `HLSTB_TRACE*` hooks from a lookup function — the
    /// pure core, unit-tested without touching the process environment.
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Sinks {
        Sinks {
            chrome: value_hook(get("HLSTB_TRACE")),
            metrics: value_hook(get("HLSTB_TRACE_METRICS")),
            summary: value_hook(get("HLSTB_TRACE_SUMMARY")).is_some(),
            events: value_hook(get("HLSTB_TRACE_EVENTS")),
            canonical: None,
        }
    }

    /// Resolves the `HLSTB_TRACE*` hooks from the process environment.
    pub fn from_env() -> Sinks {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Whether every sink is off.
    pub fn is_off(&self) -> bool {
        *self == Sinks::default()
    }

    /// Resets and enables the journal when any sink is on. Call once
    /// before the traced work.
    pub fn start(&self) {
        if !self.is_off() {
            events::reset();
            events::set_enabled(true);
        }
    }

    /// Disables and drains the journal, warns on stderr when records
    /// were dropped past [`events::MAX_RECORDS`], and writes every
    /// requested sink from that one journal. A no-op when every sink
    /// is off.
    ///
    /// # Errors
    ///
    /// The first sink file that cannot be written.
    pub fn finish(&self) -> Result<(), String> {
        if self.is_off() {
            return Ok(());
        }
        events::set_enabled(false);
        let journal = events::drain();
        if journal.dropped > 0 {
            eprintln!(
                "warning: event journal dropped {} records past the {}-record cap",
                journal.dropped,
                events::MAX_RECORDS
            );
        }
        let write = |path: &str, content: String| {
            std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))
        };
        if let Some(p) = &self.events {
            write(p, journal.to_jsonl())?;
        }
        if let Some(p) = &self.canonical {
            write(p, journal.to_canonical_jsonl())?;
        }
        let snap = Snapshot::from_journal(&journal);
        if let Some(p) = &self.chrome {
            write(p, snap.chrome_trace_json())?;
        }
        if let Some(p) = &self.metrics {
            write(p, snap.metrics_json())?;
        }
        if self.summary {
            eprint!("{}", snap.text_summary());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_empty_and_zero_are_all_off() {
        assert!(Sinks::from_lookup(env_of(&[])).is_off());
        assert!(Sinks::from_lookup(env_of(&[
            ("HLSTB_TRACE", ""),
            ("HLSTB_TRACE_METRICS", "0"),
            ("HLSTB_TRACE_EVENTS", ""),
            ("HLSTB_TRACE_SUMMARY", "0"),
        ]))
        .is_off());
    }

    #[test]
    fn paths_come_from_values_and_summary_is_truthy() {
        let sinks = Sinks::from_lookup(env_of(&[
            ("HLSTB_TRACE", "out.trace.json"),
            ("HLSTB_TRACE_EVENTS", "out.events.jsonl"),
            ("HLSTB_TRACE_SUMMARY", "1"),
        ]));
        assert_eq!(sinks.chrome.as_deref(), Some("out.trace.json"));
        assert_eq!(sinks.metrics, None);
        assert_eq!(sinks.events.as_deref(), Some("out.events.jsonl"));
        assert!(sinks.summary);
        assert!(!sinks.is_off());
    }

    #[test]
    fn summary_zero_no_longer_counts_as_presence() {
        // The historical by-presence bug: SUMMARY=0 used to enable it.
        let sinks = Sinks::from_lookup(env_of(&[("HLSTB_TRACE_SUMMARY", "0")]));
        assert!(!sinks.summary);
        assert!(sinks.is_off());
    }

    #[test]
    fn events_alone_is_a_sink() {
        let sinks = Sinks::from_lookup(env_of(&[("HLSTB_TRACE_EVENTS", "j.jsonl")]));
        assert!(sinks.chrome.is_none() && sinks.metrics.is_none() && !sinks.summary);
        assert!(!sinks.is_off());
    }

    #[test]
    fn finish_writes_every_sink_from_one_drain() {
        let _x = crate::exclusive();
        let dir = std::env::temp_dir();
        let path = |name: &str| {
            let p = dir.join(format!("hlstb_sinks_{}_{name}", std::process::id()));
            p.to_str().unwrap().to_string()
        };
        let sinks = Sinks {
            chrome: Some(path("trace.json")),
            metrics: Some(path("metrics.json")),
            summary: false,
            events: Some(path("events.jsonl")),
            canonical: Some(path("canon.jsonl")),
        };
        sinks.start();
        assert!(events::enabled());
        {
            let _s = crate::span("probe");
            crate::counter("probe.count", 2);
            events::emit("point.completed", Some(0), |e| {
                e.bool("timed_out", false);
            });
        }
        sinks.finish().expect("sinks written");
        assert!(!events::enabled());
        assert!(events::drain().is_empty(), "finish drains the journal");
        let read = |p: &Option<String>| std::fs::read_to_string(p.as_ref().unwrap()).unwrap();
        assert!(read(&sinks.chrome).contains("\"probe\""));
        assert!(read(&sinks.metrics).contains("\"probe.count\": 2"));
        // One span record, one counter, one point record.
        assert_eq!(read(&sinks.events).lines().count(), 3);
        assert_eq!(read(&sinks.canonical).lines().count(), 1);
        for p in [
            &sinks.chrome,
            &sinks.metrics,
            &sinks.events,
            &sinks.canonical,
        ] {
            std::fs::remove_file(p.as_ref().unwrap()).ok();
        }
    }
}
