//! Experiment harness: every table and figure of the survey, and every
//! per-section claim, regenerated as a printable [`Table`].
//!
//! Binaries under `src/bin/` print one experiment each (`exp_table1`,
//! `exp_fig1`, `exp_atpg_complexity`, …); the integration tests assert
//! the *shape* of each result — who wins, in which direction — which is
//! what a reproduction of a survey's qualitative claims can and should
//! check. See `EXPERIMENTS.md` at the workspace root for the index.
//!
//! Tracing is opt-in: `exp_all`, `exp_fsim` and `exp_dse` read the
//! `HLSTB_TRACE*` environment hooks through
//! [`hlstb::trace::Sinks::from_env`] and stay untraced otherwise.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod atpg_complexity;
pub mod bist_exps;
pub mod dse_exp;
pub mod fig1;
pub mod fsim_bench;
pub mod hier_exp;
pub mod rtl_exps;
pub mod scaling;
pub mod scan_exps;
pub mod scoreboard;
pub mod table;

pub use table::Table;
