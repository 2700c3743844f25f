# `just ci` = the full tier-1 gate; individual recipes for local loops.
# Every CI step lives in ci.sh (its only copy); these recipes call it.

# Everything CI checks, in order.
ci:
    ./ci.sh

# Release build (the tier-1 compile gate), all members and binaries.
build:
    ./ci.sh build

# The whole test suite, quietly.
test:
    ./ci.sh test

# Formatting is enforced, not suggested.
fmt:
    ./ci.sh fmt

# Lints are errors.
clippy:
    ./ci.sh clippy

# Library docs build without warnings (broken doc links included).
doc:
    ./ci.sh doc

# One traced synthesis; fails if the Chrome trace is missing a stage span.
trace-smoke: build
    ./ci.sh trace-smoke

# Tiny two-design sweep: serial/parallel outputs must be byte-identical
# and the cached run must post nonzero cache hits; a threaded resume
# from a checkpoint cut mid budget group must reproduce the bytes too.
sweep-smoke: build
    ./ci.sh sweep-smoke

# Injected point failures stay typed, isolated and byte-identical, and a
# checkpoint cut after 3 points resumes to the uninterrupted report.
sweep-fault-smoke: build
    ./ci.sh sweep-fault-smoke

# `--workers 4` splices byte-identically to serial uncached, and a
# killed worker's lease re-issues and still reproduces the bytes.
sweep-workers-smoke: build
    ./ci.sh sweep-workers-smoke

# `--listen` with four dialed-in workers, then a worker killed mid-lease
# and a later-dialing replacement: byte-identical both times.
sweep-tcp-smoke: build
    ./ci.sh sweep-tcp-smoke

# The daemon: byte-identical concurrent answers with shared cache hits,
# a clean SIGTERM drain, and a byte-identical kill-9 journal replay.
serve-smoke: build
    ./ci.sh serve-smoke

# Two identical requests racing through one daemon must post nonzero
# coalesced (single-flight) waits, within three attempts.
coalesce-smoke: build
    ./ci.sh coalesce-smoke

# SoA engine differential smoke: identical detected sets vs the
# naive oracle at every word width on all nine designs.
soa-equiv: build
    ./ci.sh soa-equiv

# Every exp_all table must match crates/bench/golden/exp_all.txt, E21's
# timing columns aside.
exp-smoke: build
    ./ci.sh exp-smoke

# Short perfbench runs must reproduce perfbench/digests.txt and answer
# every serve-mix request byte-identically.
digest-smoke:
    ./ci.sh digest-smoke

# Canonical event journals are byte-identical across thread counts and
# to crates/bench/golden/events_canonical.jsonl, and the full journal
# rolls up through trace-view.
events-smoke: build
    ./ci.sh events-smoke

# The committed BENCH artifacts' headline metrics must stay at or above
# their own `floors` objects. Reads the checked-in JSON, not a fresh
# timing run; refresh with `just bench` after deliberate engine work.
perf-floor: build
    ./ci.sh perf-floor

# Non-test Rust line count of the tracked sources.
loc:
    ./ci.sh loc

# Regenerate every experiment table (EXPERIMENTS.md source of truth).
exp-all:
    cargo run --release -p hlstb-bench --bin exp_all

# Time the grading engine and refresh BENCH_fsim.json.
bench-fsim patterns="1024":
    cargo run --release -p hlstb-bench --bin exp_fsim -- {{patterns}}

# Time the DSE engine on the full scoreboard sweep (in-process configs
# plus one sharded over launched TCP worker processes); refresh
# BENCH_dse.json.
bench-dse threads="4" workers="4":
    cargo run --release -p hlstb-bench --bin exp_dse -- {{threads}} {{workers}}

# Refresh every tracked benchmark artifact.
bench: bench-fsim bench-dse
