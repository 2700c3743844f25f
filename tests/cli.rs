//! End-to-end tests of the `hlstb` command-line driver.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hlstb"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_shows_all_benchmarks() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    for name in ["figure1", "diffeq", "ewf", "gcd", "dct_lite"] {
        assert!(stdout.contains(name), "{name} missing from list");
    }
}

#[test]
fn synth_prints_a_report() {
    let (stdout, _, ok) = run(&["synth", "tseng", "--strategy", "behavioral-partial-scan"]);
    assert!(ok);
    assert!(stdout.contains("design tseng"));
    assert!(stdout.contains("registers"));
}

/// Minimal structural check on the hand-written JSON emitter: balanced
/// braces, a quoted string field, and a positive integer field.
fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[test]
fn synth_json_is_parseable() {
    let (stdout, _, ok) = run(&["synth", "figure1", "--json"]);
    assert!(ok, "{stdout}");
    let trimmed = stdout.trim();
    assert!(
        trimmed.starts_with('{') && trimmed.ends_with('}'),
        "{stdout}"
    );
    assert_eq!(
        trimmed.matches('{').count(),
        trimmed.matches('}').count(),
        "unbalanced braces: {stdout}"
    );
    assert!(trimmed.contains("\"name\": \"figure1\""), "{stdout}");
    assert!(json_u64_field(trimmed, "gates").unwrap() > 0, "{stdout}");
}

#[test]
fn synth_grade_reports_coverage() {
    let (stdout, _, ok) = run(&[
        "synth",
        "figure1",
        "--strategy",
        "full-scan",
        "--grade",
        "128",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fault grading"), "{stdout}");
    let (json_out, _, ok) = run(&[
        "synth",
        "figure1",
        "--strategy",
        "full-scan",
        "--grade",
        "128",
        "--json",
    ]);
    assert!(ok, "{json_out}");
    assert!(json_out.contains("\"coverage_percent\""), "{json_out}");
    assert!(json_out.contains("\"fault_evals\""), "{json_out}");
}

#[test]
fn sgraph_emits_dot() {
    let (stdout, _, ok) = run(&["sgraph", "diffeq", "--strategy", "gate-partial-scan"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(
        stdout.contains("doublecircle"),
        "scan registers should be marked"
    );
}

#[test]
fn unknown_design_fails_cleanly() {
    let (_, stderr, ok) = run(&["synth", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("unknown design"));
    // The error names the valid designs so the fix is one retype away.
    for name in ["figure1", "diffeq", "ewf"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn synth_atpg_reports_topup() {
    let (stdout, _, ok) = run(&[
        "synth",
        "figure1",
        "--strategy",
        "full-scan",
        "--grade",
        "64",
        "--atpg",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("atpg top-up"), "{stdout}");
    let (json_out, _, ok) = run(&[
        "synth",
        "figure1",
        "--strategy",
        "full-scan",
        "--grade",
        "64",
        "--atpg",
        "--json",
    ]);
    assert!(ok, "{json_out}");
    assert!(json_out.contains("\"targeted\""), "{json_out}");
    assert!(
        json_out.contains("\"combined_coverage_percent\""),
        "{json_out}"
    );
}

/// The required span names of the ISSUE's acceptance criteria, all from
/// one traced run: scheduling, binding, expansion, scan selection, BIST
/// planning, netlist build, ATPG, fault grading.
const REQUIRED_SPANS: &[&str] = &[
    "sched",
    "bind",
    "expand",
    "scan.select",
    "bist.plan",
    "netlist.build",
    "atpg",
    "fsim.grade",
];

fn traced_synth(path: &std::path::Path) -> (String, String, bool) {
    run(&[
        "synth",
        "diffeq",
        "--strategy",
        "behavioral-partial-scan",
        "--grade",
        "64",
        "--atpg",
        "--trace",
        path.to_str().unwrap(),
        "--trace-summary",
    ])
}

#[test]
fn synth_trace_writes_a_loadable_chrome_trace() {
    let path = std::env::temp_dir().join(format!("hlstb_cli_trace_{}.json", std::process::id()));
    let (stdout, stderr, ok) = traced_synth(&path);
    assert!(ok, "{stdout}{stderr}");
    // --trace-summary goes to stderr so --json stdout stays clean.
    assert!(stderr.contains("counters:"), "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let v = hlstb::trace::json::parse(&text).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for required in REQUIRED_SPANS {
        assert!(
            names.contains(required),
            "span {required} missing: {names:?}"
        );
    }
}

#[test]
fn trace_check_validates_and_rejects() {
    let path = std::env::temp_dir().join(format!("hlstb_cli_check_{}.json", std::process::id()));
    let (stdout, stderr, ok) = traced_synth(&path);
    assert!(ok, "{stdout}{stderr}");
    let path_s = path.to_str().unwrap();
    let mut check = vec!["trace-check", path_s];
    check.extend_from_slice(REQUIRED_SPANS);
    let (stdout, _, ok) = run(&check);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");
    // A span that never ran must fail the check.
    let (_, stderr, ok) = run(&["trace-check", path_s, "definitely.not.a.span"]);
    assert!(!ok);
    assert!(stderr.contains("missing spans"), "{stderr}");
    std::fs::remove_file(&path).ok();
    // Garbage input must fail cleanly, not panic.
    let garbage =
        std::env::temp_dir().join(format!("hlstb_cli_garbage_{}.json", std::process::id()));
    std::fs::write(&garbage, "not json at all").unwrap();
    let (_, stderr, ok) = run(&["trace-check", garbage.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    std::fs::remove_file(&garbage).ok();
}

#[test]
fn table1_prints() {
    let (stdout, _, ok) = run(&["table1"]);
    assert!(ok);
    assert!(stdout.contains("LogicVision"));
}

const SWEEP_SMOKE: &[&str] = &[
    "sweep",
    "--designs",
    "figure1,tseng",
    "--strategies",
    "none,full-scan,bist-shared",
    "--grade",
    "64",
];

#[test]
fn sweep_renders_a_table_and_summary() {
    let (stdout, stderr, ok) = run(SWEEP_SMOKE);
    assert!(ok, "{stdout}{stderr}");
    // 2 designs x 3 strategies, one row each, plus the header.
    assert_eq!(stdout.lines().count(), 7, "{stdout}");
    assert!(stdout.contains("figure1"), "{stdout}");
    assert!(stdout.contains("tseng"), "{stdout}");
    assert!(stdout.contains("bist-shared"), "{stdout}");
    assert!(stderr.contains("sweep: 6 points (0 errors)"), "{stderr}");
    assert!(stderr.contains("cache hits:"), "{stderr}");
}

#[test]
fn sweep_json_is_identical_across_threads_and_cache() {
    let mut serial = SWEEP_SMOKE.to_vec();
    serial.extend_from_slice(&["--json", "--threads", "1", "--no-cache"]);
    let mut parallel = SWEEP_SMOKE.to_vec();
    parallel.extend_from_slice(&["--json", "--threads", "4", "--cache"]);
    let (a, _, ok_a) = run(&serial);
    let (b, stderr_b, ok_b) = run(&parallel);
    assert!(ok_a && ok_b, "{a}{b}");
    assert_eq!(a, b, "canonical sweep output must be run-invariant");
    assert!(hlstb::trace::json::parse(&a).is_ok(), "{a}");
    // The cached run actually hit the cache.
    assert!(!stderr_b.contains("cache hits: 0,"), "{stderr_b}");
}

/// A budget that is not a multiple of 64 masks lanes in its last batch,
/// so a deeper cached grading run cannot serve it: the cached sweep
/// must grade it at its own budget and match the uncached bytes.
#[test]
fn a_partial_batch_budget_reads_the_same_cached_and_uncached() {
    let axes = [
        "sweep",
        "--designs",
        "figure1,tseng",
        "--strategies",
        "full-scan,none",
        "--grade",
        "40,256",
        "--json",
    ];
    let mut cached = axes.to_vec();
    cached.extend_from_slice(&["--threads", "4", "--cache"]);
    let mut uncached = axes.to_vec();
    uncached.extend_from_slice(&["--threads", "1", "--no-cache"]);
    let (a, stderr_a, ok_a) = run(&cached);
    let (b, stderr_b, ok_b) = run(&uncached);
    assert!(ok_a && ok_b, "{stderr_a}{stderr_b}");
    assert_eq!(a, b, "cached 40-pattern points must read a 40-pattern run");
}

#[test]
fn sweep_full_json_carries_the_run_envelope() {
    let mut args = SWEEP_SMOKE.to_vec();
    args.extend_from_slice(&["--full-json", "--threads", "2"]);
    let (stdout, _, ok) = run(&args);
    assert!(ok, "{stdout}");
    let v = hlstb::trace::json::parse(&stdout).expect("full json parses");
    assert_eq!(v.get("threads").and_then(|t| t.as_f64()), Some(2.0));
    assert!(v.get("cache").and_then(|c| c.get("hits")).is_some());
    let pts = v.get("points").and_then(|p| p.as_array()).unwrap();
    assert_eq!(pts.len(), 6);
    assert!(pts[0].get("wall_ms").is_some());
}

#[test]
fn sweep_rejects_bad_axis_values() {
    let (_, stderr, ok) = run(&["sweep", "--designs", "figure1,bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown design"), "{stderr}");
    let (_, stderr, ok) = run(&["sweep", "--strategies", "none,bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bad strategy"), "{stderr}");
}
