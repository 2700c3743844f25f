//! Area and overhead estimation.
//!
//! The surveyed papers report DFT cost as area overhead percentages —
//! extra scan registers, CBILBO vs BILBO vs plain registers, added
//! multiplexers and test points. This module provides the common
//! accounting so every experiment reports cost on the same scale
//! (gate equivalents, NAND2 = 1, at a given data-path width).

use crate::datapath::Datapath;
use crate::fu::FuKind;

/// Per-bit register implementation costs in gate equivalents, following
/// the BILBO literature's relative ordering \[21\]: scan < BILBO < CBILBO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterCosts {
    /// Plain D register bit.
    pub plain: f64,
    /// Mux-D scan register bit.
    pub scan: f64,
    /// Test-pattern-generation register (LFSR segment) bit.
    pub tpgr: f64,
    /// Signature register (MISR segment) bit.
    pub sr: f64,
    /// BILBO bit (reconfigurable TPGR/SR).
    pub bilbo: f64,
    /// Concurrent BILBO bit (simultaneous TPGR and SR).
    pub cbilbo: f64,
}

impl Default for RegisterCosts {
    fn default() -> Self {
        RegisterCosts {
            plain: 7.0,
            scan: 9.0,
            tpgr: 11.0,
            sr: 11.5,
            bilbo: 13.0,
            cbilbo: 22.0,
        }
    }
}

/// An area estimate for a data path, decomposed by component class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaEstimate {
    /// Register area.
    pub registers: f64,
    /// Functional-unit area.
    pub fus: f64,
    /// Multiplexer area.
    pub muxes: f64,
}

impl AreaEstimate {
    /// Total gate equivalents.
    pub fn total(&self) -> f64 {
        self.registers + self.fus + self.muxes
    }

    /// Overhead of `self` relative to `base`, in percent.
    pub fn overhead_percent(&self, base: &AreaEstimate) -> f64 {
        if base.total() == 0.0 {
            0.0
        } else {
            100.0 * (self.total() - base.total()) / base.total()
        }
    }
}

/// Estimates the area of a data path at `width` bits, costing scan
/// registers at the scan rate and everything else at the plain rate.
pub fn estimate_area(dp: &Datapath, width: u32, costs: &RegisterCosts) -> AreaEstimate {
    let _span = hlstb_trace::span("hls.estimate");
    let w = width as f64;
    let registers = dp
        .registers()
        .iter()
        .map(|r| if r.scan { costs.scan } else { costs.plain } * w)
        .sum();
    let fus = dp
        .fus()
        .iter()
        .map(|f| f.kind.gate_equivalents_per_bit() * w)
        .sum();
    let (pm, rm) = dp.mux_stats();
    // A k-input word mux costs (k−1) 2:1 word muxes at 2.5 GE per bit.
    let mux_inputs = (pm + rm) as f64;
    let mux_count = mux_inputs
        - dp.port_sources()
            .iter()
            .flatten()
            .filter(|s| s.len() > 1)
            .count() as f64
        - dp.reg_sources().iter().filter(|s| s.len() > 1).count() as f64;
    let muxes = mux_count.max(0.0) * 2.5 * w;
    AreaEstimate {
        registers,
        fus,
        muxes,
    }
}

/// Convenience: area with every register plain (the pre-DFT baseline).
pub fn baseline_area(dp: &Datapath, width: u32) -> AreaEstimate {
    let mut clean = dp.clone();
    let all: Vec<usize> = Vec::new();
    clean.mark_scan(&all);
    // mark_scan only sets flags; baseline just costs scan flags as plain.
    let costs = RegisterCosts::default();
    let w = width as f64;
    let registers = clean.registers().len() as f64 * costs.plain * w;
    let mut est = estimate_area(&clean, width, &costs);
    est.registers = registers;
    est
}

/// FU area lookup re-export for report tables.
pub fn fu_area(kind: FuKind, width: u32) -> f64 {
    kind.gate_equivalents_per_bit() * width as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{self, BindOptions};
    use crate::sched;
    use hlstb_cdfg::benchmarks;

    fn dp() -> Datapath {
        let g = benchmarks::diffeq();
        let s = sched::asap(&g).unwrap();
        let b = bind::bind(&g, &s, &BindOptions::default()).unwrap();
        Datapath::build(&g, &s, &b).unwrap()
    }

    #[test]
    fn scan_costs_more_than_plain() {
        let mut d = dp();
        let base = estimate_area(&d, 8, &RegisterCosts::default());
        d.mark_scan(&[0, 1]);
        let scanned = estimate_area(&d, 8, &RegisterCosts::default());
        assert!(scanned.total() > base.total());
        assert!(scanned.overhead_percent(&base) > 0.0);
    }

    #[test]
    fn wider_paths_cost_more() {
        let d = dp();
        let a8 = estimate_area(&d, 8, &RegisterCosts::default());
        let a16 = estimate_area(&d, 16, &RegisterCosts::default());
        assert!(a16.total() > a8.total());
    }

    #[test]
    fn cost_ordering_matches_bilbo_literature() {
        let c = RegisterCosts::default();
        assert!(c.plain < c.scan);
        assert!(c.scan < c.tpgr);
        assert!(c.bilbo < c.cbilbo);
    }

    #[test]
    fn baseline_ignores_scan_flags() {
        let mut d = dp();
        d.mark_scan(&[0]);
        let base = baseline_area(&d, 8);
        let marked = estimate_area(&d, 8, &RegisterCosts::default());
        assert!(marked.registers > base.registers);
    }
}
