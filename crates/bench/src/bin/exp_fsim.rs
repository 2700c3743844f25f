//! E21 — grading-engine benchmark: the SoA engine at 64- and 512-pattern
//! words against the naive oracle on the nine-design random-pattern
//! sweep. Prints the table and writes `BENCH_fsim.json` next to the
//! working directory for perf tracking.

fn main() {
    hlstb_bench::tracehook::init();
    let patterns: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1024);
    let sweep = hlstb_bench::fsim_bench::sweep(patterns);
    print!("{}", sweep.table());
    println!(
        "whole-sweep fault-phase speedup vs naive: soa {:.2}x, soa-512 {:.2}x (the committed headline)",
        sweep.speedup("soa"),
        sweep.speedup("soa-512")
    );
    let path = "BENCH_fsim.json";
    std::fs::write(path, sweep.to_json()).expect("write BENCH_fsim.json");
    println!("wrote {path}");
    hlstb_bench::tracehook::finish();
}
