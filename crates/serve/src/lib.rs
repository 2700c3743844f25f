//! `hlstb-serve` — a crash-tolerant synthesis-as-a-service daemon.
//!
//! `hlstb serve --listen ADDR` turns the sweep engine into a
//! persistent service: clients connect over TCP, send newline-framed
//! JSON sweep requests (the same spec wire object the worker protocol
//! uses), and receive a stream of typed frames — `accepted`,
//! `progress`, `result`, `stats`, or a typed `error`. The design goal
//! is *robustness by construction*: every failure mode has an explicit
//! contract rather than an emergent behavior.
//!
//! * **Admission control** ([`admission`]) — a bounded request queue
//!   with immediate, typed load shedding (`overloaded` plus a
//!   retry-after hint; never an accept stall), a shared
//!   inflight-points cap across concurrent requests, and per-request
//!   deadlines that map onto the engine's per-point budget machinery.
//! * **Cross-request artifact store** — one daemon-lifetime
//!   [`hlstb_dse::cache::ArtifactCache`], bounded by entry and byte
//!   caps with LRU eviction, shared by every request. Identical
//!   concurrent requests coalesce at the stage level (single-flight).
//!   Each request's `stats` frame counts its own lookups; the metrics
//!   frame sums every request's and reports eviction/occupancy.
//! * **Durability** ([`journal`]) — every accepted request is appended
//!   to a crash-safe JSONL journal before the client hears `accepted`;
//!   a `kill -9` mid-request followed by a restart replays the
//!   unfinished requests and journals responses byte-identical to what
//!   the uninterrupted daemon would have produced, because result
//!   frames carry only deterministic bytes.
//! * **Graceful drain** ([`daemon`]) — SIGTERM stops accepting,
//!   finishes and journals in-flight requests, and exits 0. Fresh
//!   connections that never complete a request line are dropped at a
//!   handshake timeout and counted.
//!
//! The wire protocol lives in [`proto`]; [`client`] is the blocking
//! client the `serve-client` subcommand and the tests use.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod client;
pub mod daemon;
pub mod journal;
pub mod proto;

pub use admission::{Admission, AdmissionConfig, Refusal};
pub use daemon::{Daemon, ServeConfig};
pub use journal::Journal;
pub use proto::{Request, SweepRequest};
