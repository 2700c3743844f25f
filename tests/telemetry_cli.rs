//! End-to-end tests of the telemetry CLI surface: `sweep --events` /
//! `--events-canonical` / `--progress`, the trace views written from
//! the same journal, the `trace-view` journal rollup, and the
//! `perf-diff` regression gate.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use hlstb::trace::json::{self, Value};

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

/// Parses every line of a full journal.
fn journal(path: &PathBuf) -> Vec<Value> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).expect("journal line parses"))
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn u64_of(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

fn of_kind<'a>(records: &'a [Value], kind: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
    records.iter().filter(move |r| str_of(r, "kind") == kind)
}

/// `--events` alone must journal the grading engine's `fsim.*`
/// counters, and they must account for exactly the work the
/// `point.grading` records report.
#[test]
fn sweep_events_alone_journals_fsim_counters() {
    let full = temp("fsim_events.jsonl");
    let (_, stderr, ok) = run(&[
        "sweep",
        "--designs",
        "figure1,tseng",
        "--strategies",
        "none,full-scan,bist-shared",
        "--grade",
        "128",
        "--threads",
        "1",
        "--no-cache",
        "--events",
        full.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let records = journal(&full);
    std::fs::remove_file(&full).ok();
    let counted: u64 = of_kind(&records, "counter")
        .filter(|r| str_of(r, "name") == "fsim.fault_evals")
        .map(|r| u64_of(r, "delta"))
        .sum();
    let graded: u64 = of_kind(&records, "point.grading")
        .map(|r| u64_of(r, "fault_evals"))
        .sum();
    assert!(counted > 0, "no fsim.fault_evals counter records");
    assert_eq!(counted, graded);
}

/// A grading run journals its work once: the serial uncached sweep
/// journals one `fsim.frames` counter record per `point.grading`
/// record, not one per 64-pattern frame.
#[test]
fn sweep_journals_one_fsim_set_per_grading_run() {
    let full = temp("once_events.jsonl");
    let (_, stderr, ok) = run(&[
        "sweep",
        "--designs",
        "figure1,tseng",
        "--strategies",
        "none,full-scan,bist-shared",
        "--grade",
        "128",
        "--threads",
        "1",
        "--no-cache",
        "--events",
        full.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let records = journal(&full);
    std::fs::remove_file(&full).ok();
    let frames = of_kind(&records, "counter")
        .filter(|r| str_of(r, "name") == "fsim.frames")
        .count();
    let graded = of_kind(&records, "point.grading").count();
    assert!(graded > 0, "no point.grading records");
    assert_eq!(frames, graded);
}

/// ATPG journals its fault-dropping simulations once, as one total:
/// one frame per generated pattern.
#[test]
fn synth_atpg_journals_one_frame_per_pattern() {
    let metrics = temp("atpg_metrics.json");
    let (_, stderr, ok) = run(&[
        "synth",
        "diffeq",
        "--strategy",
        "behavioral-partial-scan",
        "--atpg",
        "--json",
        "--trace-metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let doc = json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    std::fs::remove_file(&metrics).ok();
    let counter = |name: &str| {
        let counters = doc.get("counters").expect("counters");
        counters.get(name).and_then(Value::as_f64).unwrap_or(0.0) as u64
    };
    assert!(counter("atpg.patterns") > 0);
    assert_eq!(counter("fsim.frames"), counter("atpg.patterns"));
}

/// A sweep's envelope counts exactly the lookups its `point.stage`
/// records journal, stage by stage and outcome by outcome, and the
/// journal carries no second copy of them as counters.
#[test]
fn envelope_cache_counts_are_the_journaled_stage_lookups() {
    let full = temp("ledger_events.jsonl");
    let mut args = SWEEP.to_vec();
    args.extend(["--threads", "4", "--cache", "--full-json"]);
    args.extend(["--events", full.to_str().unwrap()]);
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    let records = journal(&full);
    std::fs::remove_file(&full).ok();
    let mut journaled: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for r in of_kind(&records, "point.stage") {
        *journaled
            .entry((str_of(r, "stage"), str_of(r, "cache")))
            .or_default() += 1;
    }
    let doc = json::parse(&stdout).expect("full JSON parses");
    let cache = doc.get("cache").expect("cache object");
    let mut enveloped: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for stage in ["front", "facts", "dft", "netlist", "grading"] {
        for (key, label) in [
            ("hits", "hit"),
            ("misses", "miss"),
            ("coalesced", "coalesced"),
        ] {
            let n = u64_of(cache.get(stage).expect("stage object"), key);
            if n > 0 {
                enveloped.insert((stage, label), n);
            }
        }
    }
    assert!(!journaled.is_empty());
    assert_eq!(enveloped, journaled);
    let copies = records
        .iter()
        .filter(|r| str_of(r, "name").starts_with("dse.cache."))
        .count();
    assert_eq!(copies, 0, "lookups journaled as counters too");
}

/// One traced sweep writes the Chrome trace, the metrics and the
/// journal; the first two must be views of the third.
#[test]
fn every_trace_view_comes_from_one_journal() {
    let trace = temp("one_trace.json");
    let metrics = temp("one_metrics.json");
    let full = temp("one_events.jsonl");
    let mut args = SWEEP.to_vec();
    args.extend([
        "--threads",
        "4",
        "--cache",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-metrics",
        metrics.to_str().unwrap(),
        "--events",
        full.to_str().unwrap(),
    ]);
    let (_, stderr, ok) = run(&args);
    assert!(ok, "{stderr}");
    let read = |p: &PathBuf| json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
    let (chrome, metrics_doc, records) = (read(&trace), read(&metrics), journal(&full));
    for p in [&trace, &metrics, &full] {
        std::fs::remove_file(p).ok();
    }

    // A span is one `span.close` record carrying its own interval, and
    // the Chrome `X` events are exactly those records: the same
    // (name, tid, start, duration) multiset.
    let mut spans: Vec<(&str, u64, u64, u64)> = chrome
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| str_of(e, "ph") == "X")
        .map(|e| {
            let (tid, ts, dur) = (u64_of(e, "tid"), u64_of(e, "ts"), u64_of(e, "dur"));
            (str_of(e, "name"), tid, ts, dur)
        })
        .collect();
    let mut closes: Vec<(&str, u64, u64, u64)> = of_kind(&records, "span.close")
        .map(|r| {
            let (tid, start, dur) = (u64_of(r, "tid"), u64_of(r, "start_us"), u64_of(r, "dur_us"));
            (str_of(r, "name"), tid, start, dur)
        })
        .collect();
    spans.sort_unstable();
    closes.sort_unstable();
    assert!(!closes.is_empty());
    assert_eq!(spans, closes);
    assert_eq!(of_kind(&records, "span.open").count(), 0);

    // Metrics counters are the summed deltas; gauges the largest value.
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for r in of_kind(&records, "counter") {
        *counters.entry(str_of(r, "name")).or_default() += u64_of(r, "delta");
    }
    let mut gauges: BTreeMap<&str, u64> = BTreeMap::new();
    for r in of_kind(&records, "gauge") {
        let slot = gauges.entry(str_of(r, "name")).or_default();
        *slot = (*slot).max(u64_of(r, "value"));
    }
    let section = |key: &str| -> BTreeMap<&str, u64> {
        metrics_doc
            .get(key)
            .and_then(Value::as_object)
            .expect("metrics section")
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_f64().unwrap() as u64))
            .collect()
    };
    assert!(counters.contains_key("fsim.fault_evals"), "{counters:?}");
    assert!(gauges.contains_key("fsim.faults"), "{gauges:?}");
    assert_eq!(section("counters"), counters);
    assert_eq!(section("gauges"), gauges);
}

/// trace-view's stage table as `(stage, total ms, wait ms)` rows.
fn stage_rows(view: &str) -> Vec<(String, f64, f64)> {
    let mut lines = view.lines().skip_while(|l| *l != "stages:").skip(1);
    let header = lines.next().expect("a stage table");
    assert!(header.contains("total ms   wait ms"), "{view}");
    lines
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let ms = |i: usize| cols[i].parse::<f64>().expect("a ms column");
            (cols[0].to_string(), ms(6), ms(7))
        })
        .collect()
}

/// The stage table's `wait ms` is the time a stage's lookups spent
/// coalesced on another lane's computation: part of `total ms`, and
/// nothing at all on one lane.
#[test]
fn trace_view_splits_coalesced_waits_out_of_stage_time() {
    let full = temp("wait_events.jsonl");
    let full_s = full.to_str().unwrap();
    for threads in ["4", "1"] {
        let mut args = SWEEP.to_vec();
        args.extend(["--threads", threads, "--cache", "--events", full_s]);
        let (_, stderr, ok) = run(&args);
        assert!(ok, "{stderr}");
        let (view, stderr, ok) = run(&["trace-view", full_s]);
        assert!(ok, "{stderr}");
        let rows = stage_rows(&view);
        assert_eq!(rows.len(), 5, "{view}");
        for (stage, total, wait) in rows {
            assert!(
                wait <= total,
                "{stage}: wait {wait} > total {total}\n{view}"
            );
            if threads == "1" {
                assert_eq!(wait, 0.0, "{stage} waited on one lane\n{view}");
            }
        }
    }
    std::fs::remove_file(&full).ok();
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
