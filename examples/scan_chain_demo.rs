//! Physical scan: stitch a real mux-D scan chain into a synthesized
//! data path, apply an ATPG pattern serially (shift–capture–shift), and
//! export the result as structural Verilog.
//!
//! ```sh
//! cargo run --release --example scan_chain_demo
//! ```

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::atpg::{generate_all, AtpgOptions};
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::scanchain;
use hlstb::netlist::verilog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let d = SynthesisFlow::new(benchmarks::tseng())
        .strategy(DftStrategy::FullScan)
        .run()?;
    let nl = d.expanded.netlist.clone().with_full_scan();

    // 1. ATPG on the abstract full-scan model.
    let faults = collapsed_faults(&nl);
    let run = generate_all(&nl, &faults, &AtpgOptions::default());
    println!(
        "abstract full scan: {:.1} % coverage with {} patterns",
        run.coverage_percent(),
        run.patterns.len()
    );

    // 2. Stitch the physical chain and replay the first pattern serially.
    let sd = scanchain::stitch(&nl);
    println!(
        "scan chain: {} flops, netlist grew {} -> {} gates",
        sd.chain.len(),
        nl.num_gates(),
        sd.netlist.num_gates()
    );
    if let (Some(frame), Some(&fault)) = (run.patterns.first(), faults.first()) {
        let hit = scanchain::detects_serial(&sd, frame, fault);
        println!("first pattern vs {fault}: serial protocol detects = {hit}");
    }

    // 3. Export the chained design as Verilog.
    let v = verilog::to_verilog(&sd.netlist);
    println!(
        "\nVerilog export: {} lines, module `{}`; first lines:",
        v.lines().count(),
        sd.netlist.name()
    );
    for line in v.lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
