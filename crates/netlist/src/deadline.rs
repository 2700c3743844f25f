//! Cooperative wall-clock deadlines for the grading engines.
//!
//! The fault-simulation, random-pattern, and ATPG loops are the only
//! unbounded work in the workbench: a pathological netlist or a huge
//! fault universe can run for minutes. A [`Deadline`] lets a caller
//! (the DSE sweep's per-point budget) bound that work *cooperatively*:
//! each loop polls [`Deadline::expired`] at a safe granularity (between
//! pattern batches, every few dozen faults, between ATPG targets) and
//! returns a partial result flagged `timed_out` instead of being killed
//! mid-update. Nothing here preempts — a deadline is advisory until a
//! loop checks it, which keeps every data structure consistent at the
//! moment work stops.

use std::time::{Duration, Instant};

/// An optional wall-clock cutoff, cheap to copy into every grading loop.
///
/// The default ([`Deadline::none`]) never expires, so engines behave
/// exactly as before unless a caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: [`expired`](Self::expired) is always `false`.
    pub const fn none() -> Self {
        Deadline(None)
    }

    /// A deadline `budget` from now. A zero budget is already expired —
    /// useful for deterministic timeout tests, since every cooperative
    /// check then fires on its first poll.
    pub fn after(budget: Duration) -> Self {
        Deadline(Instant::now().checked_add(budget))
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline(Some(instant))
    }

    /// Whether a cutoff is set at all.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the cutoff has passed. Never `true` for
    /// [`Deadline::none`].
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before the cutoff (`None` when no deadline is set,
    /// zero when already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_set());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert_eq!(Deadline::default(), d);
    }

    #[test]
    fn zero_budget_is_already_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_set());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_not_expired() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(d.is_set());
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn absolute_instant_round_trips() {
        let t = Instant::now() + Duration::from_secs(60);
        let d = Deadline::at(t);
        assert!(!d.expired());
    }
}
