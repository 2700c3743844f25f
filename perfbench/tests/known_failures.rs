//! Known bugs the benchmark found, kept as expected-fail probes.
//!
//! Each probe asserts the correct behaviour and is marked
//! `#[should_panic]` because the code under test does not have it yet.
//! The change that fixes a bug makes its probe stop panicking, so the
//! test fails until that change removes the attribute.

use std::sync::atomic::Ordering;

use hlstb::cdfg::benchmarks;
use hlstb::flow::DftStrategy;
use hlstb_dse::{run_sweep, SweepOptions, SweepSpec};
use hlstb_serve::proto::SweepRequest;
use hlstb_serve::{client, Daemon, ServeConfig};
use hlstb_trace::json::{self, Value};

fn spec(patterns: usize) -> SweepSpec {
    let mut spec = SweepSpec::new(vec![benchmarks::ewf(), benchmarks::diffeq()]);
    spec.strategies = vec![DftStrategy::FullScan, DftStrategy::None];
    spec.patterns = vec![patterns];
    spec
}

/// Coverage of ewf under full scan in a canonical report.
fn ewf_full_scan_coverage(report: &str) -> f64 {
    let v = json::parse(report).expect("canonical report parses");
    v.get("points")
        .and_then(Value::as_array)
        .and_then(|ps| {
            ps.iter().find(|p| {
                p.get("design").and_then(Value::as_str) == Some("ewf")
                    && p.get("strategy").and_then(Value::as_str) == Some("full-scan")
            })
        })
        .and_then(|p| p.get("coverage_percent"))
        .and_then(Value::as_f64)
        .expect("ewf/full-scan point has coverage")
}

/// The daemon's cache keys a grading run on the netlist alone
/// (`cache.grading` in `crates/dse/src/engine.rs`), so the first
/// request to grade a netlist fixes the curve depth every later request
/// reads. A `--grade 1024` request after a `--grade 64` one reads the
/// 64-pattern curve: ewf/full-scan reports 70.31% instead of 90.67%.
/// This is why the `serve-mix` workload uses a single budget list.
#[test]
#[should_panic(expected = "grading depth leaks across requests")]
fn a_deeper_budget_after_a_shallow_one_gets_its_own_coverage() {
    let daemon = Daemon::bind(ServeConfig::default()).expect("daemon binds");
    let addr = daemon.local_addr().expect("bound address").to_string();
    let stop = daemon.stop_handle();
    let handle = std::thread::spawn(move || daemon.run());
    let send = |id: &str, patterns| {
        let req = SweepRequest {
            id: id.to_string(),
            spec: spec(patterns),
            opts: SweepOptions::default(),
            deadline: None,
        };
        client::run_sweep(&addr, &req)
    };
    let shallow = send("shallow", 64);
    let deep = send("deep", 1024);
    stop.store(true, Ordering::SeqCst);
    handle
        .join()
        .expect("daemon thread")
        .expect("daemon drains");
    shallow.expect("shallow request succeeds");
    let deep = deep.expect("deep request succeeds").report;
    let serial = SweepOptions {
        threads: 1,
        cache: false,
        ..SweepOptions::default()
    };
    let want = run_sweep(&spec(1024), &serial).report.canonical_json();
    assert!(
        deep == want,
        "grading depth leaks across requests: ewf/full-scan at 1024 patterns reads {}%, a serial uncached run {}%",
        ewf_full_scan_coverage(&deep),
        ewf_full_scan_coverage(&want)
    );
}
