//! Property tests for the event journal under concurrency: N worker
//! threads hammer spans, counters, and point events simultaneously;
//! the drained journal must parse line by line, every thread's
//! sequence numbers must be gap-free, and both the stable record set
//! and the counter totals must match a single-threaded ground-truth
//! emission of the same logical work.

use hlstb_trace::Snapshot;
use proptest::prelude::*;
use std::sync::Mutex;

/// The journal is process-global; tests (and proptest cases)
/// serialize on this lock.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The per-thread workload: for each of `per_thread` logical points,
/// emit a stable scheduled/completed pair wrapped in a span, plus a
/// counter add. `worker` only namespaces the point ids so threads
/// never collide on a point.
fn hammer(worker: u64, per_thread: u64) {
    for i in 0..per_thread {
        let point = worker * 10_000 + i;
        let span = hlstb_trace::span("jc.point");
        hlstb_trace::events::emit("point.scheduled", Some(point), |e| {
            e.u64("worker", worker);
        });
        hlstb_trace::counter("jc.work", 3);
        hlstb_trace::events::emit("point.completed", Some(point), |e| {
            e.f64("coverage_percent", 50.0).bool("timed_out", false);
        });
        span.end();
    }
}

fn setup() {
    hlstb_trace::events::set_enabled(true);
    hlstb_trace::events::reset();
}

fn teardown() {
    hlstb_trace::events::set_enabled(false);
    hlstb_trace::events::reset();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_journal_is_parseable_gap_free_and_complete(
        threads in 1u64..5,
        per_thread in 1u64..50,
    ) {
        let _x = exclusive();

        // Single-threaded ground truth of the same logical work.
        setup();
        for w in 0..threads {
            hammer(w, per_thread);
        }
        let truth = hlstb_trace::events::drain();
        let truth_canonical = truth.to_canonical_jsonl();
        let truth_counters = Snapshot::from_journal(&truth).counter("jc.work");

        // The same work spread over real threads.
        setup();
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || hammer(w, per_thread));
            }
        });
        let journal = hlstb_trace::events::drain();
        let snap = Snapshot::from_journal(&journal);
        teardown();

        // Every line of the full export parses.
        let full = journal.to_jsonl();
        for line in full.lines() {
            hlstb_trace::json::parse(line)
                .unwrap_or_else(|e| panic!("unparseable journal line: {e}\n{line}"));
        }
        prop_assert_eq!(journal.dropped, 0);

        // Per-thread sequences are gap-free: each tid's seq set is a
        // contiguous run (spans, counters, and events share one
        // stream, so any lost record would leave a hole).
        let mut by_tid: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for r in &journal.records {
            by_tid.entry(r.tid).or_default().push(r.seq);
        }
        for (tid, mut seqs) in by_tid {
            seqs.sort_unstable();
            for pair in seqs.windows(2) {
                prop_assert_eq!(
                    pair[1], pair[0] + 1,
                    "seq gap on tid {}: {} -> {}", tid, pair[0], pair[1]
                );
            }
        }

        // The stable record set matches single-threaded ground truth
        // byte for byte once canonically re-sorted.
        prop_assert_eq!(
            journal.to_canonical_jsonl(),
            truth_canonical,
            "canonical projection must not depend on threading"
        );
        let stable = journal.records.iter().filter(|r| r.stable).count() as u64;
        prop_assert_eq!(stable, threads * per_thread * 2);

        // Counter totals match ground truth too.
        prop_assert_eq!(snap.counter("jc.work"), truth_counters);
        prop_assert_eq!(snap.counter("jc.work"), Some(threads * per_thread * 3));
    }
}

#[test]
fn drain_after_scope_sees_every_worker_buffer() {
    let _x = exclusive();
    setup();
    // Workers exit before the drain, and their TLS destructors may
    // still be pending at join time — this test pins that the
    // registry sweep sees their buffers anyway.
    std::thread::scope(|scope| {
        for w in 0..3u64 {
            scope.spawn(move || {
                hlstb_trace::events::emit("point.scheduled", Some(w), |_| {});
            });
        }
    });
    let journal = hlstb_trace::events::drain();
    teardown();
    assert_eq!(journal.records.len(), 3, "{:?}", journal.records);
}
