//! E22 — DSE engine benchmark: the full scoreboard sweep timed
//! serial-uncached vs serial-cached vs threaded-cached vs sharded over
//! worker processes, asserting all four produce byte-identical
//! canonical reports. Prints the table and writes `BENCH_dse.json` in
//! the working directory.
//!
//! `exp_dse [threads] [workers]` (defaults 4 and 4; workers 0 skips
//! the sharded configuration). `exp_dse sweep-worker --connect ADDR`
//! is the worker end of the sharded run, which launches it.

fn main() {
    // The worker mode must not initialize trace sinks: the
    // coordinator's sinks cover the sweep.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep-worker") {
        let code = match &args[1..] {
            [flag, addr] if flag == "--connect" => hlstb_dse::worker::worker_connect_main(addr),
            _ => {
                eprintln!("usage: exp_dse sweep-worker --connect <addr>");
                2
            }
        };
        std::process::exit(code);
    }
    let sinks = hlstb::trace::Sinks::from_env();
    sinks.start();
    let threads: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(4);
    let workers: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    let spec = hlstb_bench::dse_exp::full_spec();
    let bench = if workers > 0 {
        let exe = std::env::current_exe().expect("own binary path");
        let mut launch = hlstb_dse::worker::process_spawner(exe);
        hlstb_bench::dse_exp::bench_with_workers(&spec, threads, workers, &mut launch)
    } else {
        hlstb_bench::dse_exp::bench_spec(&spec, threads)
    };
    print!("{}", bench.table());
    println!(
        "canonical reports identical across configs: {}; speedups vs serial-nocache: cache {:.2}x, {threads}-thread cache {:.2}x",
        bench.identical,
        bench.speedup("serial-cache"),
        bench.speedup("threaded-cache")
    );
    let path = "BENCH_dse.json";
    std::fs::write(path, bench.to_json()).expect("write BENCH_dse.json");
    println!("wrote {path}");
    if let Err(e) = sinks.finish() {
        eprintln!("{e}");
    }
}
