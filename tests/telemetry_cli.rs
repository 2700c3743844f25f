//! End-to-end tests of the telemetry CLI surface: `sweep --events` /
//! `--events-canonical` / `--progress`, the `trace-view` journal
//! rollup, and the `perf-diff` regression gate.

use std::path::PathBuf;
use std::process::Command;

const SWEEP: &[&str] = &[
    "sweep",
    "--designs",
    "figure1,tseng",
    "--strategies",
    "none,full-scan,bist-shared",
    "--grade",
    "64",
];

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hlstb"))
        .args(args)
        .env_remove("HLSTB_FAIL_POINT")
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hlstb_tel_{}_{name}", std::process::id()))
}

#[test]
fn sweep_events_journal_rolls_up_through_trace_view() {
    let full = temp("events.jsonl");
    let canon_a = temp("canon_a.jsonl");
    let canon_b = temp("canon_b.jsonl");
    let full_s = full.to_str().unwrap();

    let mut serial = SWEEP.to_vec();
    serial.extend([
        "--threads",
        "1",
        "--no-cache",
        "--events-canonical",
        canon_a.to_str().unwrap(),
    ]);
    let mut threaded = SWEEP.to_vec();
    threaded.extend([
        "--threads",
        "4",
        "--cache",
        "--progress",
        "--events",
        full_s,
        "--events-canonical",
        canon_b.to_str().unwrap(),
    ]);
    let (_, stderr_a, ok_a) = run(&serial);
    let (_, stderr_b, ok_b) = run(&threaded);
    assert!(ok_a, "{stderr_a}");
    assert!(ok_b, "{stderr_b}");
    // The progress meter rendered (purely cosmetic, stderr only).
    assert!(stderr_b.contains("pts/s"), "{stderr_b}");

    // The canonical projection is byte-identical across thread counts
    // and cache settings.
    let a = std::fs::read_to_string(&canon_a).unwrap();
    let b = std::fs::read_to_string(&canon_b).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "canonical journals must match");

    // The full journal rolls up: lifecycle totals, the stage table,
    // and the slowest-points list.
    let (view, stderr, ok) = run(&["trace-view", full_s, "--top", "3"]);
    assert!(ok, "{stderr}");
    assert!(view.contains("6 points"), "{view}");
    assert!(view.contains("point.completed"), "{view}");
    assert!(view.contains("stages:"), "{view}");
    assert!(view.contains("grading"), "{view}");
    assert!(view.contains("slowest points (top 3):"), "{view}");

    for p in [&full, &canon_a, &canon_b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn trace_view_rejects_garbage_and_pointless_journals() {
    let bad = temp("bad.jsonl");
    std::fs::write(&bad, "{\"kind\": \"point.completed\"\nnot json\n").unwrap();
    let (_, stderr, ok) = run(&["trace-view", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unparseable"), "{stderr}");

    // Parseable but with no point-attributed records.
    std::fs::write(&bad, "{\"kind\": \"sweep.begin\", \"points\": 0}\n").unwrap();
    let (_, stderr, ok) = run(&["trace-view", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no point records"), "{stderr}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn perf_diff_flags_regressions_beyond_tolerance() {
    let old = temp("old.json");
    let new = temp("new.json");
    std::fs::write(&old, "{\"speedup_x\": 5.0, \"wall_ms\": 100.0}\n").unwrap();

    // Within tolerance: ok.
    std::fs::write(&new, "{\"speedup_x\": 4.8, \"wall_ms\": 104.0}\n").unwrap();
    let (out, stderr, ok) = run(&["perf-diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(out.contains("speedup_x"), "{out}");

    // A speedup drop and a wall-time growth beyond tolerance both gate.
    std::fs::write(&new, "{\"speedup_x\": 2.0, \"wall_ms\": 250.0}\n").unwrap();
    let (out, stderr, ok) = run(&["perf-diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("REGRESSED"), "{out}");
    assert!(stderr.contains("speedup_x fell"), "{stderr}");
    assert!(stderr.contains("wall_ms grew"), "{stderr}");

    // A wide tolerance waves the same delta through.
    let (_, stderr, ok) = run(&[
        "perf-diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--tolerance",
        "200",
    ]);
    assert!(ok, "{stderr}");

    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn perf_diff_floor_gates_on_the_committed_floors_object() {
    let bench = temp("bench.json");
    let path = bench.to_str().unwrap();

    std::fs::write(
        &bench,
        "{\"speedup_x\": 5.0, \"floors\": {\"speedup_x\": 4.0}}\n",
    )
    .unwrap();
    let (out, stderr, ok) = run(&["perf-diff", "--floor", path]);
    assert!(ok, "{stderr}");
    assert!(out.contains("ok"), "{out}");

    std::fs::write(
        &bench,
        "{\"speedup_x\": 3.0, \"floors\": {\"speedup_x\": 4.0}}\n",
    )
    .unwrap();
    let (_, stderr, ok) = run(&["perf-diff", "--floor", path]);
    assert!(!ok);
    assert!(stderr.contains("below the floor"), "{stderr}");

    // A file without floors is an error, not a silent pass.
    std::fs::write(&bench, "{\"speedup_x\": 3.0}\n").unwrap();
    let (_, stderr, ok) = run(&["perf-diff", "--floor", path]);
    assert!(!ok);
    assert!(stderr.contains("no floors object"), "{stderr}");
    std::fs::remove_file(&bench).ok();
}

/// The committed BENCH artifacts themselves must satisfy their own
/// floors — the exact invocation ci.sh runs.
#[test]
fn committed_bench_artifacts_pass_their_floors() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fsim = root.join("BENCH_fsim.json");
    let dse = root.join("BENCH_dse.json");
    let (out, stderr, ok) = run(&[
        "perf-diff",
        "--floor",
        fsim.to_str().unwrap(),
        dse.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(out.contains("speedup_soa512_vs_naive"), "{out}");
    assert!(out.contains("speedup_cache_vs_nocache"), "{out}");
}
