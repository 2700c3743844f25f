//! Gate-level substrate of the `hlstb` workbench.
//!
//! The surveyed results are ultimately claims about gate-level
//! testability: fault coverage, sequential ATPG effort, pseudorandom
//! pattern resistance. Reproducing them needs a real (if small) gate
//! level under the RTL — this crate provides it, built from scratch:
//!
//! * [`net`] — the netlist IR (generic gates, D flip-flops with optional
//!   scan) and a [`net::NetlistBuilder`] with structural arithmetic
//!   blocks (ripple adders/subtractors, array multiplier, comparators,
//!   mux trees, registers);
//! * [`sim`] — 64-way parallel-pattern logic simulation, combinational
//!   and sequential;
//! * [`fault`] — single-stuck-at fault universe with structural
//!   equivalence collapsing;
//! * [`fsim`] — parallel-pattern fault simulation (combinational) and
//!   sequence-based sequential fault simulation, full-scan aware;
//! * [`atpg`] — a 5-valued PODEM for combinational/full-scan circuits
//!   with backtrack-effort accounting;
//! * [`seq`] — time-frame expansion and sequential ATPG on top of PODEM,
//!   the measurement instrument for the survey's §3.1 claim that cycles
//!   make sequential test generation exponentially harder;
//! * [`random`] — pseudorandom-pattern coverage curves for the BIST
//!   experiments;
//! * [`ffgraph`] — extraction of the flip-flop S-graph that gate-level
//!   partial scan analyzes.
//!
//! # Example: a full adder is fully testable
//!
//! ```
//! use hlstb_netlist::net::NetlistBuilder;
//! use hlstb_netlist::{atpg, fault};
//!
//! let mut b = NetlistBuilder::new("adder");
//! let a = b.inputs("a", 4);
//! let c = b.inputs("b", 4);
//! let (sum, carry) = b.ripple_add(&a, &c);
//! b.outputs("s", &sum);
//! b.output("cout", carry);
//! let nl = b.finish()?;
//!
//! let faults = fault::collapsed_faults(&nl);
//! let result = atpg::generate_all(&nl, &faults, &atpg::AtpgOptions::default());
//! assert_eq!(result.aborted + result.untestable, 0);
//! # Ok::<(), hlstb_netlist::net::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atpg;
pub mod boundary;
pub mod cop;
pub mod deadline;
pub mod fault;
pub mod ffgraph;
pub mod fsim;
pub mod logic5;
pub mod net;
pub mod random;
pub mod scanchain;
pub mod seq;
pub mod sim;
pub mod soa;
pub mod stats;
pub mod verilog;
pub mod word;

pub use deadline::Deadline;
pub use fault::Fault;
pub use fsim::ParallelOptions;
pub use net::{GateId, GateKind, NetId, Netlist, NetlistBuilder, NetlistError};
pub use stats::GradeStats;
pub use word::WordWidth;
