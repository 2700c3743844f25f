//! Fixed-seed golden grading results for every benchmark design: the
//! naive oracle's detected counts are pinned, and the SoA engine must
//! reproduce the oracle's detected set exactly at every word width.
//! This is the whole-design half of the differential suite (the
//! random-netlist half lives in `crates/netlist/tests/soa_equivalence.rs`).

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::fsim::{
    comb_fault_sim_opts, comb_fault_sim_oracle, scan_observed, ParallelOptions, TestFrame,
};
use hlstb::netlist::word::WordWidth;

/// splitmix64 — self-contained so the pinned values depend on nothing
/// but this file.
fn frames(seed: u64, patterns: usize, pis: usize, ffs: usize) -> Vec<TestFrame> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..patterns.div_ceil(64))
        .map(|_| {
            TestFrame::new(
                (0..pis).map(|_| next()).collect(),
                (0..ffs).map(|_| next()).collect(),
            )
        })
        .collect()
}

/// (design, total collapsed faults, detected at 256 fixed-seed
/// patterns). Update deliberately when fault collapsing or the
/// benchmark designs change — never to paper over an engine
/// difference, which the width loop below would surface first.
const GOLDEN: &[(&str, usize, usize)] = &[
    ("figure1", 402, 349),
    ("diffeq", 802, 674),
    ("ewf", 1694, 1534),
    ("fir8", 948, 800),
    ("ar_lattice", 580, 503),
    ("iir_biquad", 586, 474),
    ("tseng", 440, 389),
    ("gcd", 598, 544),
    ("dct_lite", 670, 585),
];

#[test]
fn every_design_matches_golden_at_every_width() {
    let designs = benchmarks::all();
    assert_eq!(designs.len(), GOLDEN.len(), "golden table covers the suite");
    for (g, &(name, total, detected)) in designs.into_iter().zip(GOLDEN) {
        assert_eq!(g.name(), name, "golden table order");
        let d = SynthesisFlow::new(g)
            .strategy(DftStrategy::FullScan)
            .run()
            .unwrap();
        let nl = &d.expanded.netlist;
        let faults = collapsed_faults(nl);
        let frames = frames(
            0xD0A5_EED0 ^ name.len() as u64,
            256,
            nl.inputs().len(),
            nl.dffs().len(),
        );
        let (base, _) = comb_fault_sim_oracle(nl, &faults, &frames, &scan_observed(nl));
        assert_eq!(base.total, total, "{name}: fault universe");
        assert_eq!(base.detected.len(), detected, "{name}: oracle detects");
        for width in WordWidth::ALL {
            let (got, stats) =
                comb_fault_sim_opts(nl, &faults, &frames, &ParallelOptions::with_width(width));
            assert_eq!(got, base, "{name} at width {width}");
            assert!(!stats.timed_out, "{name} at width {width}");
        }
    }
}
