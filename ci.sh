#!/usr/bin/env sh
# Tier-1 gate plus lint hygiene, exactly as CI runs it. The workspace
# builds fully offline (in-tree rand/proptest/criterion subsets), so no
# network access is needed for any step.
#
#   ./ci.sh              run every step, in order
#   ./ci.sh <step>...    run only the named steps (see STEPS below;
#                        step `foo-bar` is the function `step_foo_bar`)
#
# The justfile's recipes call these steps; this file is their only
# copy. `set -e` never fires on a pipeline negated with `!`, so every
# negative check ends in `|| exit 1`.
set -eux

STEPS="build test fmt clippy doc trace-smoke sweep-smoke sweep-fault-smoke \
sweep-workers-smoke sweep-tcp-smoke serve-smoke coalesce-smoke soa-equiv \
exp-smoke digest-smoke events-smoke perf-floor loc"

# --workspace so every member's binaries build too (the root package's
# plain `cargo build` would only link its own lib and deps).
step_build() {
    cargo build --release --workspace
}

step_test() {
    cargo test -q --workspace
}

step_fmt() {
    cargo fmt --check
}

step_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

# Rustdoc warnings are errors, so a doc link to a renamed or deleted
# item fails here instead of rotting. `--lib` because the `hlstb`
# library and the `hlstb` binary would write the same doc page.
step_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib
}

# Trace smoke: one traced synthesis must produce a loadable Chrome trace
# with every pipeline stage span present (trace-check exits nonzero on a
# missing, empty, or invalid trace). The events-smoke sweep traced with
# --trace and --events together must do the same for the sweep spans,
# and its journal (the one both files come from) must roll up through
# trace-view.
step_trace_smoke() {
    ./target/release/hlstb synth diffeq --strategy behavioral-partial-scan \
        --grade 128 --atpg --trace trace_smoke.json --trace-summary
    ./target/release/hlstb trace-check trace_smoke.json \
        sched bind expand netlist.build scan.select bist.plan atpg fsim.grade
    rm -f trace_smoke.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 4 --cache \
        --trace trace_sweep.json --events trace_sweep.jsonl >/dev/null
    ./target/release/hlstb trace-check trace_sweep.json \
        dse.sweep dse.point fsim.grade
    ./target/release/hlstb trace-view trace_sweep.jsonl >/dev/null
    rm -f trace_sweep.json trace_sweep.jsonl
}

# Sweep smoke: a tiny two-design sweep must be byte-identical between
# the serial uncached and parallel cached paths, and the cached run
# must actually hit the cache (nonzero hits in the stderr summary).
# The same holds at a budget that is not a multiple of 64 beside a
# deeper one: the cached 40-pattern points must grade at 40 patterns,
# not read the 128-pattern run.
step_sweep_smoke() {
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 1 --no-cache --json >sweep_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 4 --cache --json >sweep_parallel.json 2>sweep_summary.txt
    cmp sweep_serial.json sweep_parallel.json
    grep "cache hits:" sweep_summary.txt
    ! grep -q "cache hits: 0," sweep_summary.txt || exit 1
    rm -f sweep_serial.json sweep_parallel.json sweep_summary.txt
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 40,128 \
        --threads 1 --no-cache --json >sweep_partial_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 40,128 \
        --threads 4 --cache --json >sweep_partial_parallel.json
    cmp sweep_partial_serial.json sweep_partial_parallel.json
    rm -f sweep_partial_serial.json sweep_partial_parallel.json
    # Resume across split budget groups: lanes claim every budget of a
    # point group at once, and a checkpoint cut to 4 of its lines
    # (budgets come in threes) restores part of a group, so the resumed
    # lanes must evaluate the rest of it and still reproduce the bytes.
    ./target/release/hlstb sweep --designs figure1,tseng \
        --grade 128,512,1024 --threads 1 --no-cache --json >sweep_groups_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --grade 128,512,1024 --threads 4 --cache \
        --checkpoint sweep_groups_ckpt.jsonl --json >/dev/null
    head -4 sweep_groups_ckpt.jsonl >sweep_groups_cut.jsonl
    mv sweep_groups_cut.jsonl sweep_groups_ckpt.jsonl
    ./target/release/hlstb sweep --designs figure1,tseng \
        --grade 128,512,1024 --threads 4 --cache \
        --checkpoint sweep_groups_ckpt.jsonl --resume --json \
        >sweep_groups_resumed.json 2>sweep_groups_summary.txt
    cmp sweep_groups_serial.json sweep_groups_resumed.json
    grep "4 restored" sweep_groups_summary.txt
    rm -f sweep_groups_serial.json sweep_groups_ckpt.jsonl \
        sweep_groups_resumed.json sweep_groups_summary.txt
    # Per-stage work of the 297-point scoreboard spec: 18 front ends and
    # S-graph facts, 99 DFT outputs, and one netlist and grading run per
    # distinct marked data path and width (36). A netlist key that split
    # equal data paths (keyed on the front end, not its data path's
    # content) reads 38 netlists.
    ./target/release/hlstb sweep --grade 128,512,1024 --threads 1 --cache \
        --full-json >sweep_stages.json
    for misses in '"front": {"hits": [0-9]*, "misses": 18,' \
        '"facts": {"hits": [0-9]*, "misses": 18,' \
        '"dft": {"hits": [0-9]*, "misses": 99,' \
        '"netlist": {"hits": [0-9]*, "misses": 36,' \
        '"grading": {"hits": [0-9]*, "misses": 36,'; do
        grep -q "$misses" sweep_stages.json
    done
    rm -f sweep_stages.json
}

step_sweep_fault_smoke() {
    # Fault smoke: inject failures into 2 of 6 points. The other 4 must
    # complete, the failures must surface as typed records
    # (panic/timeout), and the report must stay byte-identical between
    # the serial uncached and parallel cached paths even with the
    # injected failures.
    HLSTB_FAIL_POINT="panic:1;stall:3" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --threads 1 --no-cache --json \
        >fault_serial.json 2>fault_summary.txt
    HLSTB_FAIL_POINT="panic:1;stall:3" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --threads 4 --cache --json >fault_parallel.json
    cmp fault_serial.json fault_parallel.json
    grep "sweep: 6 points (2 errors \[panic: 1, timeout: 1\])" fault_summary.txt
    grep -q '"kind": "panic"' fault_serial.json
    grep -q '"kind": "timeout"' fault_serial.json
    rm -f fault_serial.json fault_parallel.json fault_summary.txt

    # Checkpoint/resume smoke: checkpoint a sweep, truncate the
    # checkpoint to its first 3 lines (simulating a kill after 3 of 6
    # points), resume, and require the resumed report byte-identical to
    # an uninterrupted run with a nonzero restored count in the summary.
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --json >resume_baseline.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --checkpoint resume_ckpt.jsonl --json >/dev/null
    head -3 resume_ckpt.jsonl >resume_ckpt_cut.jsonl
    mv resume_ckpt_cut.jsonl resume_ckpt.jsonl
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --checkpoint resume_ckpt.jsonl --resume --json \
        >resume_resumed.json 2>resume_summary.txt
    cmp resume_baseline.json resume_resumed.json
    grep "3 restored" resume_summary.txt
    rm -f resume_baseline.json resume_ckpt.jsonl resume_resumed.json resume_summary.txt
}

# Scale-out smoke: the same sweep sharded over 4 launched worker
# processes must splice byte-identically to the serial uncached run,
# and killing the only worker after one point (HLSTB_WORKER_FAIL) must
# re-issue its lease and still reproduce the bytes via the inline
# fallback. Both sweeps also write a checkpoint: each lane's point
# frame is a checkpoint line by construction, so the two files must
# hold the same lines (in completion order, hence the `sort`), which
# pins the coordinator's frame decode and re-encode end to end, and a
# threaded sweep resumed from the lanes' checkpoint must restore every
# point and reproduce the bytes. Every coordinator and worker runs
# under `timeout 120`, so a wind-down that never returns fails the
# step instead of hanging it.
step_sweep_workers_smoke() {
    rm -f workers_serial_ckpt.jsonl workers_lanes_ckpt.jsonl
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --threads 1 --no-cache --checkpoint workers_serial_ckpt.jsonl \
        --json >workers_serial.json
    timeout 120 ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --workers 4 --checkpoint workers_lanes_ckpt.jsonl \
        --json >workers_sharded.json 2>workers_summary.txt
    cmp workers_serial.json workers_sharded.json
    grep "4 workers" workers_summary.txt
    sort workers_serial_ckpt.jsonl >workers_serial_ckpt.sorted
    sort workers_lanes_ckpt.jsonl >workers_lanes_ckpt.sorted
    cmp workers_serial_ckpt.sorted workers_lanes_ckpt.sorted
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --threads 1 --cache --checkpoint workers_lanes_ckpt.jsonl --resume \
        --json >workers_resumed.json 2>workers_resumed_summary.txt
    grep "6 restored" workers_resumed_summary.txt
    cmp workers_serial.json workers_resumed.json
    HLSTB_WORKER_FAIL="0:1" timeout 120 ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --workers 1 --json \
        >workers_killed.json 2>workers_killed_summary.txt
    cmp workers_serial.json workers_killed.json
    grep "re-issuing" workers_killed_summary.txt
    grep "1 reissued" workers_killed_summary.txt
    rm -f workers_serial.json workers_sharded.json workers_summary.txt \
        workers_serial_ckpt.jsonl workers_lanes_ckpt.jsonl \
        workers_serial_ckpt.sorted workers_lanes_ckpt.sorted \
        workers_resumed.json workers_resumed_summary.txt \
        workers_killed.json workers_killed_summary.txt
}

# TCP transport smoke: the same sweep served over `--listen` to four
# dialed-in `sweep-worker --connect` processes must splice
# byte-identically to the serial uncached run, and a worker killed
# mid-lease (HLSTB_WORKER_FAIL) must have its lease re-issued to a
# later-dialing replacement with the bytes still identical. As above,
# `timeout 120` bounds every coordinator and worker.
step_sweep_tcp_smoke() {
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --threads 1 --no-cache --json >workers_serial.json
    timeout 120 ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --listen 127.0.0.1:0 --json >tcp_sharded.json 2>tcp_summary.txt &
    tcp_coord=$!
    tcp_addr=""
    for _ in $(seq 50); do
        tcp_addr=$(sed -n 's/^sweep: listening on //p' tcp_summary.txt | head -1)
        if [ -n "$tcp_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$tcp_addr"
    for _ in 1 2 3 4; do
        timeout 120 ./target/release/hlstb sweep-worker --connect "$tcp_addr" &
    done
    wait $tcp_coord
    cmp workers_serial.json tcp_sharded.json
    grep "4 workers" tcp_summary.txt
    wait || true

    timeout 120 ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --listen 127.0.0.1:0 --json >tcp_killed.json 2>tcp_killed_summary.txt &
    tcp_coord=$!
    tcp_addr=""
    for _ in $(seq 50); do
        tcp_addr=$(sed -n 's/^sweep: listening on //p' tcp_killed_summary.txt | head -1)
        if [ -n "$tcp_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$tcp_addr"
    # The dying worker dials first (lane 0) and is dead before the
    # replacement dials, so the kill and the re-issue are deterministic.
    HLSTB_WORKER_FAIL="0:1" timeout 120 ./target/release/hlstb sweep-worker \
        --connect "$tcp_addr" || true
    timeout 120 ./target/release/hlstb sweep-worker --connect "$tcp_addr"
    wait $tcp_coord
    cmp workers_serial.json tcp_killed.json
    grep "re-issuing" tcp_killed_summary.txt
    ! grep -q " 0 reissued," tcp_killed_summary.txt || exit 1

    rm -f workers_serial.json tcp_sharded.json tcp_summary.txt \
        tcp_killed.json tcp_killed_summary.txt
}

# Serve smoke: the persistent daemon must (1) answer four concurrent
# identical sweep requests byte-identically with the shared cache
# actually re-serving artifacts across requests (nonzero cache_hits in
# the metrics frame), then answer a deeper fifth request with its own
# depth, not a read of the shallow runs it holds, (2) drain cleanly on
# SIGTERM with exit 0, and (3) replay a kill-9'd (SIGABRT via
# HLSTB_SERVE_FAIL) mid-request journal byte-identically on restart.
step_serve_smoke() {
    rm -f serve_journal.jsonl serve_crash_journal.jsonl
    ./target/release/hlstb serve --listen 127.0.0.1:0 \
        --journal serve_journal.jsonl 2>serve_log.txt &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 50); do
        serve_addr=$(sed -n 's/^serve: listening on //p' serve_log.txt | head -1)
        if [ -n "$serve_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$serve_addr"
    client_pids=""
    for i in 1 2 3 4; do
        ./target/release/hlstb serve-client --connect "$serve_addr" \
            --id "smoke-$i" --designs figure1,tseng \
            --strategies none,full-scan,bist-shared --grade 64 \
            >"serve_out_$i.json" 2>/dev/null &
        client_pids="$client_pids $!"
    done
    for p in $client_pids; do wait "$p"; done
    cmp serve_out_1.json serve_out_2.json
    cmp serve_out_1.json serve_out_3.json
    cmp serve_out_1.json serve_out_4.json
    # The daemon's answer must match a plain local sweep, bytes included.
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --json >serve_local.json
    cmp serve_out_1.json serve_local.json
    # Cross-request sharing: four identical requests against one cache.
    ./target/release/hlstb serve-client --connect "$serve_addr" --metrics \
        >serve_metrics.json
    grep -q '"cache_hits"' serve_metrics.json
    ! grep -q '"cache_hits": 0,' serve_metrics.json || exit 1
    grep -q '"completed": 4,' serve_metrics.json
    # A deeper request after the shallow ones reads its own depth.
    ./target/release/hlstb serve-client --connect "$serve_addr" \
        --id smoke-deep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 1024 \
        >serve_out_deep.json 2>/dev/null
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 1024 \
        --json >serve_local_deep.json
    cmp serve_out_deep.json serve_local_deep.json
    # Graceful drain: SIGTERM must exit 0.
    kill -TERM $serve_pid
    wait $serve_pid
    grep "drained cleanly" serve_log.txt
    # Durability: abort (kill -9 equivalent) the daemon the instant the
    # request is dequeued — accepted is journaled, nothing more — then
    # restart with --replay-only and require the journaled response
    # byte-identical to the uninterrupted daemon's for the same request.
    HLSTB_SERVE_FAIL="abort-after-accept:smoke-1" ./target/release/hlstb serve \
        --listen 127.0.0.1:0 --journal serve_crash_journal.jsonl \
        2>serve_crash_log.txt &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 50); do
        serve_addr=$(sed -n 's/^serve: listening on //p' serve_crash_log.txt | head -1)
        if [ -n "$serve_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$serve_addr"
    ! ./target/release/hlstb serve-client --connect "$serve_addr" \
        --id smoke-1 --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 >/dev/null 2>&1 || exit 1
    wait $serve_pid || true
    grep -q '"kind": "accepted"' serve_crash_journal.jsonl
    ! grep -q '"kind": "completed"' serve_crash_journal.jsonl || exit 1
    ./target/release/hlstb serve --journal serve_crash_journal.jsonl --replay-only
    grep '"kind": "completed"' serve_crash_journal.jsonl >serve_replayed.line
    grep '"id": "smoke-1"' serve_journal.jsonl \
        | grep '"kind": "completed"' >serve_baseline.line
    cmp serve_replayed.line serve_baseline.line
    rm -f serve_journal.jsonl serve_crash_journal.jsonl serve_log.txt \
        serve_crash_log.txt serve_out_1.json serve_out_2.json \
        serve_out_3.json serve_out_4.json serve_local.json \
        serve_metrics.json serve_replayed.line serve_baseline.line \
        serve_out_deep.json serve_local_deep.json
}

# Single-flight smoke: identical requests racing through one daemon's
# shared cache must coalesce duplicate in-flight misses rather than
# recompute them. Each request is one lane walking the same points in
# the same order, so the later one catches up with the earlier one's
# computations and waits on them (a threaded sweep's lanes claim
# different point groups and rarely meet). The requests are the
# 297-point scoreboard spec, long enough that the second starts before
# the first has computed everything; coalescing still needs the two
# lanes to meet on a key, so allow a few attempts.
step_coalesce_smoke() {
    coalesced_ok=0
    for attempt in 1 2 3; do
        ./target/release/hlstb serve --listen 127.0.0.1:0 2>coalesce_log.txt &
        serve_pid=$!
        serve_addr=""
        for _ in $(seq 50); do
            serve_addr=$(sed -n 's/^serve: listening on //p' coalesce_log.txt | head -1)
            if [ -n "$serve_addr" ]; then break; fi
            sleep 0.1
        done
        test -n "$serve_addr"
        client_pids=""
        for i in 1 2; do
            ./target/release/hlstb serve-client --connect "$serve_addr" \
                --id "coalesce-$attempt-$i" --grade 128,512,1024 \
                >/dev/null 2>&1 &
            client_pids="$client_pids $!"
        done
        for p in $client_pids; do wait "$p"; done
        ./target/release/hlstb serve-client --connect "$serve_addr" --metrics \
            >coalesce_metrics.json
        kill -TERM $serve_pid
        wait $serve_pid
        grep -o '"cache_coalesced": [0-9]*' coalesce_metrics.json
        if ! grep -q '"cache_coalesced": 0,' coalesce_metrics.json; then
            coalesced_ok=1
            break
        fi
    done
    test "$coalesced_ok" -eq 1
    rm -f coalesce_log.txt coalesce_metrics.json
}

# SoA differential smoke: the naive oracle and the SoA engine must
# produce identical detected fault sets and batched coverage curves at
# every word width (64/256/512) on all nine benchmark designs;
# `soa-check` exits nonzero on any difference.
step_soa_equiv() {
    ./target/release/hlstb soa-check
}

# Experiment smoke: every exp_all table must match the committed golden
# (crates/bench/golden/exp_all.txt) byte for byte, apart from E21's
# three timing columns (`naive ms`, `soa ms`, `soa-512 ms`), which are
# blanked on both sides together with that table's rule line, whose
# width follows them. E1, E14 and E20 run PODEM and time-frame
# expansion, E16 runs COP, and every table reads netlists the flow
# builds, so a refactor that moves any of them fails here. A change
# that moves a table on purpose regenerates the golden (the same
# pipeline with stdout redirected into the golden file) and says why.
step_exp_smoke() {
    ./target/release/exp_all | awk -F' [|] ' 'BEGIN { OFS = " | " }
        /^E21 / { e21 = 1 }
        e21 && /^$/ { e21 = 0 }
        e21 && NF == 7 { $4 = $5 = $6 = "-" }
        e21 && /^-+$/ { $0 = "-" }
        { print }' >exp_smoke.txt
    cmp crates/bench/golden/exp_all.txt exp_smoke.txt
    rm -f exp_smoke.txt
}

# Digest smoke: a short perfbench run of the 297-point scoreboard sweep,
# in-process and over TCP worker lanes, and of the 4752-point
# synth-wide sweep must reproduce the committed per-design report
# digests (perfbench/digests.txt) bit for bit, and every daemon
# response of a short serve-mix run must be byte-identical to its
# serial uncached reference; the last stdout line reports
# `"correct": true` only when every point and response matched.
# synth-wide's digests are the only ones over every scheduler, register
# policy and width, so they cover every MFVS caller on every front end.
step_digest_smoke() {
    for w in scoreboard synth-wide scoreboard-lanes serve-mix; do
        cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 2 --trace 0 >digest_smoke.json
        tail -n 1 digest_smoke.json | grep -q '"correct": true'
    done
    rm -f digest_smoke.json
}

# Events smoke: the same tiny sweep journaled at 1 thread uncached and
# 4 threads cached must produce byte-identical canonical journals equal
# to crates/bench/golden/events_canonical.jsonl, and the full journal
# must roll up through trace-view (which exits nonzero on unparseable
# lines or a journal without point records). The canonical journal
# holds stable records only; a change that moves them on purpose
# regenerates the golden from the t1 run's canonical output and says
# why.
step_events_smoke() {
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 1 --no-cache \
        --events events_t1.jsonl --events-canonical events_t1_canon.jsonl \
        >/dev/null
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 4 --cache \
        --events events_t4.jsonl --events-canonical events_t4_canon.jsonl \
        >/dev/null
    cmp events_t1_canon.jsonl events_t4_canon.jsonl
    cmp crates/bench/golden/events_canonical.jsonl events_t1_canon.jsonl
    ./target/release/hlstb trace-view events_t4.jsonl >events_view.txt
    grep "6 points" events_view.txt
    grep "point.completed" events_view.txt
    rm -f events_t1.jsonl events_t1_canon.jsonl events_t4.jsonl \
        events_t4_canon.jsonl events_view.txt
}

# Perf guard: every committed BENCH artifact carries a `floors` object
# naming the headline metrics it gates; perf-diff re-reads the
# checked-in JSON instead of re-timing, so the gate cannot flake on
# loaded CI machines. Refresh the artifacts with `just bench-fsim` /
# `just bench-dse` when an engine deliberately changes speed class.
step_perf_floor() {
    ./target/release/hlstb perf-diff --floor BENCH_fsim.json BENCH_dse.json
}

# Line count: the non-test Rust lines of the tracked sources under
# crates/*/src and src/, each file cut at its first line containing
# `#[cfg(test)]` — the net line count a change reports. Prints one
# number; gates nothing.
step_loc() {
    git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' |
        xargs awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n }'
}

if [ "$#" -eq 0 ]; then
    # shellcheck disable=SC2086 # word-split the step list on purpose
    set -- $STEPS
fi
for step in "$@"; do
    case " $STEPS " in
    *" $step "*) "step_$(echo "$step" | tr - _)" ;;
    *)
        echo "ci.sh: unknown step '$step'; steps: $STEPS" >&2
        exit 2
        ;;
    esac
done
