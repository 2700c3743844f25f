//! The overhead guarantee, enforced: with the journal disabled, the
//! primitives the hot fault-simulation loop calls (span open/close,
//! counter adds, gauge reports) and the journal's own `emit` entry
//! points perform **zero** heap allocations. This
//! is what lets `hlstb-netlist`'s grading engine stay instrumented
//! unconditionally without regressing the E21 sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `ALLOCATIONS` counts every thread's allocations, so this target
/// runs without libtest (`harness = false` in Cargo.toml): the harness's
/// own threads allocate at will and made the count flaky. `main` runs
/// both checks in turn on the one thread the process has.
fn main() {
    disabled_tracing_allocates_nothing_on_the_hot_path();
    enabled_tracing_actually_records();
    println!("zero_alloc: 2 checks passed");
}

fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    hlstb_trace::events::set_enabled(false);
    // Warm up thread-locals and lazy statics outside the window.
    for _ in 0..8 {
        let _span = hlstb_trace::span("fsim.fault");
        hlstb_trace::counter("fsim.fault_evals", 1);
        hlstb_trace::gauge("fsim.threads", 1);
        hlstb_trace::events::emit("point.probe", Some(0), |e| {
            e.u64("n", 1);
        });
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        // The exact primitive mix of one faulty-machine evaluation in
        // the grading engine's inner loop, plus the journal entry
        // points the sweep path calls unconditionally.
        let span = hlstb_trace::span("fsim.fault");
        hlstb_trace::counter("fsim.fault_evals", 1);
        hlstb_trace::counter("fsim.screened", 1);
        hlstb_trace::gauge("fsim.threads", 4);
        hlstb_trace::events::emit("point.probe", Some(0), |e| {
            e.u64("n", 1).str("stage", "grading");
        });
        hlstb_trace::events::emit_volatile("point.timing", Some(0), |e| {
            e.volatile_u64("wall_us", 3);
        });
        assert!(!hlstb_trace::events::enabled());
        span.end();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate on the fsim hot loop"
    );
}

fn enabled_tracing_actually_records() {
    // Companion sanity check: the same primitives do record once the
    // journal is on (so the zero-alloc check is not vacuous). It reads
    // its probe span and counter back through the snapshot views.
    hlstb_trace::events::reset();
    hlstb_trace::events::set_enabled(true);
    {
        let _span = hlstb_trace::span("zero_alloc.enabled_probe");
        hlstb_trace::counter("zero_alloc.probe_count", 2);
    }
    hlstb_trace::events::set_enabled(false);
    let snap = hlstb_trace::Snapshot::from_journal(&hlstb_trace::events::drain());
    assert!(snap.phase_total("zero_alloc.enabled_probe").is_some());
    assert_eq!(snap.counter("zero_alloc.probe_count"), Some(2));
}
