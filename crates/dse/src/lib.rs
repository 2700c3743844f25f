//! `hlstb-dse` — batched, parallel design-space exploration over the
//! synthesis-for-testability flow.
//!
//! The survey's whole point is comparative: its results are tables of
//! many (benchmark × DFT strategy) synthesis points. Evaluating such a
//! sweep one [`hlstb::flow::SynthesisFlow::run`] at a time re-runs
//! scheduling, binding, data-path construction, and gate-level
//! expansion from scratch for strategies that share an identical front
//! end. This crate removes that redundancy:
//!
//! * [`spec::SweepSpec`] enumerates points over designs × schedulers ×
//!   register policies × DFT strategies × widths × grading depths;
//! * [`engine::run_sweep`] executes the points on a work-stealing pool
//!   (`std::thread::scope` lanes of one [`engine::SweepDriver`] pulling
//!   from a shared atomic injector — no new dependencies);
//! * [`cache::ArtifactCache`] memoizes stage outputs under
//!   content-derived keys so points differing only in DFT strategy
//!   reuse everything up to DFT insertion, points whose marked data
//!   paths coincide (every no-scan strategy) share one gate-level
//!   netlist, and one pseudorandom grading run at the sweep's deepest
//!   budget serves every whole-batch (multiple-of-64) budget of a
//!   netlist, while any other budget grades at its own depth;
//! * [`report::SweepReport`] collects per-point metrics *ordered by
//!   point index* regardless of completion order, so the parallel
//!   sweep's canonical output is byte-identical to the serial one.
//!
//! The cache is *single-flight*: when several workers miss the same
//! key at once, one computes while the rest block on the in-flight
//! slot and are served the shared result (a `coalesced` lookup), so a
//! threaded cached sweep never duplicates a stage computation. The
//! stores count no lookups: the point pipeline counts each one in its
//! run's [`cache::CacheStats`] as it journals the stage's `point.stage`
//! record, and every point runs under a `dse.point` span.
//!
//! # Scale-out
//!
//! A scale-out sweep's lanes are TCP connections from workers that
//! dial the coordinator and speak the newline-framed [`proto`].
//! [`worker::run_sweep_workers`] (`hlstb sweep --workers N`) launches
//! N such workers against a loopback port and splices only results
//! from them (a per-sweep token); [`worker::run_sweep_listen`] (`hlstb
//! sweep --listen ADDR`) serves whoever dials in. Leases are re-issued
//! when a worker dies, and results splice byte-identically from
//! checkpoint-format frames through the same [`engine::SweepDriver`]
//! that runs the local pool and the serve daemon's requests.
//!
//! # Fault tolerance
//!
//! The sweep is robust against individual points failing:
//!
//! * a panicking point is isolated ([`std::panic::catch_unwind`]) and
//!   reported as a typed [`error::PointError`] while the rest of the
//!   sweep completes;
//! * [`engine::SweepOptions::point_budget`] arms a cooperative
//!   per-point deadline, so a runaway point reports partial coverage
//!   (`timed_out`) instead of hanging the pool, with bounded retries
//!   at a shrinking budget for transient failures;
//! * [`engine::Recovery`] streams completed points to a JSONL
//!   [`checkpoint`] (an [`appendlog`] shared with the serve journal)
//!   and resumes a killed sweep byte-identically;
//! * [`failpoint::FailPlan`] injects deterministic failures so all of
//!   the above is testable without timing races.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod appendlog;
pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod failpoint;
pub mod key;
pub mod proto;
pub mod report;
pub mod spec;
pub mod worker;

pub use cache::{ArtifactCache, CacheOutcome, CacheStats, Stage};
pub use checkpoint::{Checkpoint, RestoredSet};
pub use engine::{run_sweep, run_sweep_with, Recovery, SweepOptions, SweepOutcome};
pub use error::PointError;
pub use failpoint::{FailMode, FailPlan};
pub use report::{PointMetrics, PointRecord, SweepReport};
pub use spec::{Point, SweepSpec};
pub use worker::{run_sweep_workers, WorkerFail};
