//! `hlstb` — command-line driver for the workbench.
//!
//! ```text
//! hlstb list
//! hlstb table1
//! hlstb synth <design> [--strategy S] [--policy P] [--scheduler X] [--width N]
//! hlstb sweep [--designs a,b] [--strategies s,...] [--threads N] [--no-cache]
//! hlstb sweep-worker --connect <addr>       # remote lane of a sweep
//! hlstb serve [--listen <addr>] [--journal <file>]   # sweep daemon
//! hlstb serve-client --connect <addr> [axis flags]   # one daemon request
//! hlstb sgraph <design> [--strategy S]      # DOT on stdout
//! hlstb cdfg <design>                       # DOT on stdout
//! hlstb trace-check <file> [span...]        # validate a Chrome trace
//! hlstb trace-view <journal> [--top N]      # roll up an event journal
//! hlstb perf-diff <old> <new> | --floor <file>...   # BENCH regression gate
//! hlstb soa-check [design...] [--grade N]   # SoA engine vs naive oracle
//! ```
//!
//! The `--trace*` and `--events*` flags fill one [`Sinks`]; every
//! trace file of a run is written from its one drained event journal.

use std::process::ExitCode;

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::fault::collapsed_faults;
use hlstb::netlist::fsim::{
    comb_fault_sim_opts, comb_fault_sim_oracle, scan_observed, ParallelOptions, TestFrame,
};
use hlstb::netlist::random::{random_pattern_oracle, random_pattern_run_opts};
use hlstb::netlist::word::WordWidth;
use hlstb::trace::Sinks;
use hlstb_dse::cache::{CacheOutcome, StageCounts};
use hlstb_dse::spec::{parse_policy, parse_scheduler, parse_strategy};
use hlstb_dse::{run_sweep_with, run_sweep_workers, FailPlan, Recovery, SweepOptions, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn designs() -> Vec<Cdfg> {
    benchmarks::all()
}

fn find_design(name: &str) -> Option<Cdfg> {
    designs().into_iter().find(|g| g.name() == name)
}

fn unknown_design(name: &str) -> String {
    let names: Vec<String> = designs().iter().map(|g| g.name().to_string()).collect();
    format!(
        "unknown design `{name}`; valid designs: {}",
        names.join(", ")
    )
}

/// Parses a comma-separated axis list with a per-item vocabulary.
fn parse_list<T>(
    value: &str,
    parse: impl Fn(&str) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|s| parse(s.trim()).ok_or_else(|| format!("bad {what} {s}")))
        .collect()
}

/// Parses `args[i]` when it is one of the axis flags `sweep` and
/// `serve-client` share, and returns how many arguments it consumed
/// (0 when `args[i]` is some other flag).
fn axis_flag(
    args: &[String],
    i: usize,
    spec: &mut SweepSpec,
    opts: &mut SweepOptions,
) -> Result<usize, String> {
    let key = args[i].as_str();
    let value = || {
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    match key {
        "--reset-controller" => {
            spec.reset_controller = true;
            return Ok(1);
        }
        "--designs" => {
            spec.designs = value()?
                .split(',')
                .map(|n| find_design(n.trim()).ok_or_else(|| unknown_design(n.trim())))
                .collect::<Result<_, _>>()?;
        }
        "--schedulers" => spec.schedulers = parse_list(value()?, parse_scheduler, "scheduler")?,
        "--policies" => spec.policies = parse_list(value()?, parse_policy, "policy")?,
        "--strategies" => spec.strategies = parse_list(value()?, parse_strategy, "strategy")?,
        "--widths" => spec.widths = parse_list(value()?, |w| w.parse().ok(), "width")?,
        "--grade" => spec.patterns = parse_list(value()?, |p| p.parse().ok(), "pattern count")?,
        "--point-budget-ms" => {
            let v = value()?;
            let ms = v.parse().map_err(|_| format!("bad point budget {v}"))?;
            opts.point_budget = Some(std::time::Duration::from_millis(ms));
        }
        "--retries" => {
            let v = value()?;
            opts.retries = v.parse().map_err(|_| format!("bad retry count {v}"))?;
        }
        _ => return Ok(0),
    }
    Ok(2)
}

const USAGE: &str =
    "usage: hlstb <list|table1|synth|sweep|sweep-worker|serve|serve-client|sgraph|cdfg|
              trace-check|trace-view|perf-diff|soa-check> [args]
  list                          available benchmark designs
  table1                        the survey's Table 1
  synth <design> [options]      run the synthesis flow, print the report
  sweep [options]               explore a design space (see sweep options)
  serve [options]               persistent sweep daemon over TCP (see
                                serve options)
  serve-client [options]        submit one sweep to a running daemon and
                                print the canonical report
  sgraph <design> [options]     register S-graph as Graphviz DOT
  cdfg <design> [--text]        behavior as Graphviz DOT (or pseudo-code)
  trace-check <file> [span...]  validate a Chrome trace file, requiring
                                each named span to be present
  trace-view <journal> [--top N]
                                roll an event journal (sweep --events) up
                                into lifecycle totals, a per-stage cache/
                                latency table, per-worker lanes (when the
                                journal carries worker ids), and the N
                                slowest points (default 10); fails on
                                unparseable lines or a journal without
                                point records
  perf-diff <old> <new> [--tolerance P]
                                compare two BENCH JSON files metric by
                                metric; exit nonzero when a speedup drops
                                (or a wall time grows) by more than P%
                                (default 10)
  perf-diff --floor <file>...   check each BENCH file's headline metrics
                                against its own committed `floors` object;
                                the CI perf gate
  soa-check [design...]         grade each design (default: all) with the
                                naive oracle and the SoA engine at every
                                word width, one-shot and as a batched
                                random-pattern run; fail on any detected-set
                                or curve difference (--grade N patterns,
                                default 256)
options:
  --strategy  none|full-scan|gate-partial-scan|behavioral-partial-scan|
              loop-avoidance|bist-naive|bist-shared|k-level=<k>
  --policy    left-edge|dsatur|io-max|boundary|loop-avoiding|avra
  --scheduler list|io-aware|asap|force-directed=<extra>
  --width     data-path width in bits (default 4)
  --grade     (synth) grade the netlist with N pseudorandom patterns
  --atpg      (synth) deterministic ATPG top-up on the residual faults
  --json      (synth) print the report as JSON instead of text
  --trace <file>          write a Chrome trace (chrome://tracing, Perfetto)
  --trace-metrics <file>  write flat span/counter metrics as JSON
  --trace-summary         print a per-phase timing summary to stderr
sweep options (axes are comma-separated lists; defaults in parentheses):
  --designs    designs to sweep (all benchmarks)
  --schedulers scheduler axis (list)
  --policies   register-policy axis (left-edge)
  --strategies DFT-strategy axis (the full catalogue)
  --widths     width axis in bits (4)
  --grade      grading-budget axis in patterns, 0 = ungraded (0)
  --threads    worker threads (1)
  --workers    shard the sweep over N `sweep-worker --connect` child
               processes dialing a loopback port (0 = in-process);
               results splice byte-identically, only from workers this
               sweep launched, and a killed worker's leased points are
               re-issued
  --listen <addr>  bind a TCP listener (e.g. 0.0.0.0:7777) and shard
               the sweep over workers that dial in with
               `hlstb sweep-worker --connect <addr>`; dropped
               connections re-issue exactly like killed workers
  --cache | --no-cache    memoize stage artifacts across points (on)
  --reset-controller      expand controllers with a synchronous reset
  --point-budget-ms <N>   wall-clock budget per point; overruns report
                          partial coverage flagged timed_out
  --retries <N>           retries for transient (panic/timeout) point
                          failures, each with a halved budget (1)
  --checkpoint <file>     stream completed points to a JSONL checkpoint
  --resume     skip points already in the checkpoint (needs --checkpoint);
               the resumed report is byte-identical to an uninterrupted run
  --json       print the canonical (run-invariant) report as JSON
  --full-json  print the full report (adds timing, threads, cache stats)
  --events <file>           write the per-point event journal as JSONL
                            (point lifecycle, stage timings, cache
                            outcomes; roll up with `hlstb trace-view`)
  --events-canonical <file> write the journal's canonical projection:
                            stable records/fields only, byte-identical
                            across thread counts and cache settings
  --progress   live progress meter on stderr (points/s, ETA, cache rate)
  plus --trace / --trace-metrics / --trace-summary as above
serve options:
  --listen <addr>         bind address (default 127.0.0.1:0; the bound
                          address is printed as `serve: listening on …`)
  --journal <file>        crash-safe JSONL request journal; on restart,
                          accepted-but-unfinished requests replay with
                          byte-identical result frames
  --replay-only           replay the journal's unfinished requests,
                          then exit without listening
  --max-queue <N>         queued-request bound before `overloaded`
                          shedding (default 32)
  --max-inflight-points <N>  summed point budget across concurrently
                          executing requests (default 4096)
  --retry-after-ms <N>    retry hint on `overloaded` frames (500)
  --executors <N>         concurrent request executors (2)
  --cache-entries <N>     per-stage cache entry cap (1024)
  --cache-bytes <N>       per-stage cache byte cap (64 MiB)
  --hello-timeout-ms <N>  drop connections silent past this before
                          their first request (10000)
serve-client options:
  --connect <addr>        daemon address (required)
  --id <id>               request id echoed on every frame (cli)
  --deadline-ms <N>       end-to-end deadline measured from admission
  --metrics | --ping      print one control reply instead of sweeping
  plus the sweep axis flags: --designs/--schedulers/--policies/
  --strategies/--widths/--grade/--reset-controller, and
  --point-budget-ms/--retries as above
environment:
  HLSTB_FAIL_POINT   inject deterministic point failures, e.g.
                     \"panic:1,4;stall:2;flaky:3\" (testing/CI);
                     \"io:N\" fails point N's checkpoint append instead,
                     degrading the run to checkpoint-less
  HLSTB_SERVE_FAIL   \"abort-after-accept:<id>\": the serve daemon
                     aborts (as if kill -9) the instant request <id>
                     is dequeued — its accepted record is journaled,
                     nothing more (testing/CI)
  HLSTB_WORKER_FAIL  kill sweep worker W after it emits K points, e.g.
                     \"1:2\"; the coordinator re-issues its leases
sweep-worker --connect <addr>
                     dial a `sweep --listen` coordinator over TCP
                     (redials with bounded backoff if the stream
                     drops); `sweep --workers` launches these itself,
                     with its per-sweep token in HLSTB_WORKER_TOKEN
  HLSTB_TRACE / HLSTB_TRACE_METRICS / HLSTB_TRACE_EVENTS /
  HLSTB_TRACE_SUMMARY   equivalent sinks for the bench binaries";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).ok_or(USAGE)?;
    match cmd {
        "list" => {
            for g in designs() {
                println!(
                    "{:<12} {:>3} ops  {:>2} inputs  {:>2} outputs  {:>2} loops",
                    g.name(),
                    g.num_ops(),
                    g.inputs().count(),
                    g.outputs().count(),
                    g.loops(64).len()
                );
            }
            Ok(())
        }
        "table1" => {
            print!("{}", hlstb::tools::render_table1());
            Ok(())
        }
        "synth" | "sgraph" => {
            let name = args.get(1).ok_or(USAGE)?;
            let cdfg = find_design(name).ok_or_else(|| unknown_design(name))?;
            let mut flow = SynthesisFlow::new(cdfg);
            let mut json = false;
            let mut sinks = Sinks::default();
            let mut i = 2;
            while i < args.len() {
                let key = args[i].as_str();
                if key == "--json" {
                    json = true;
                    i += 1;
                    continue;
                }
                if key == "--atpg" {
                    flow = flow.grade_atpg(true);
                    i += 1;
                    continue;
                }
                if key == "--trace-summary" {
                    sinks.summary = true;
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{key} needs a value"))?;
                flow = match key {
                    "--strategy" => flow.strategy(
                        parse_strategy(value).ok_or_else(|| format!("bad strategy {value}"))?,
                    ),
                    "--policy" => flow.register_policy(
                        parse_policy(value).ok_or_else(|| format!("bad policy {value}"))?,
                    ),
                    "--scheduler" => flow.scheduler(
                        parse_scheduler(value).ok_or_else(|| format!("bad scheduler {value}"))?,
                    ),
                    "--width" => {
                        flow.width(value.parse().map_err(|_| format!("bad width {value}"))?)
                    }
                    "--grade" => flow.grade_random(
                        value
                            .parse()
                            .map_err(|_| format!("bad pattern count {value}"))?,
                    ),
                    "--trace" => {
                        sinks.chrome = Some(value.clone());
                        flow
                    }
                    "--trace-metrics" => {
                        sinks.metrics = Some(value.clone());
                        flow
                    }
                    other => return Err(format!("unknown option {other}\n{USAGE}")),
                };
                i += 2;
            }
            sinks.start();
            let design = flow.run().map_err(|e| e.to_string())?;
            sinks.finish()?;
            if cmd == "synth" {
                if json {
                    println!("{}", design.report.to_json());
                    return Ok(());
                }
                println!("{}", design.report);
                if let Some(plan) = &design.bist_plan {
                    let (t, s, b, c) = plan.counts();
                    println!("  BIST plan         : {t} TPGR, {s} SR, {b} BILBO, {c} CBILBO");
                }
                if let Some(plan) = &design.kcontrol_plan {
                    println!(
                        "  k-level points    : {} control, {} observe (k = {})",
                        plan.control_points.len(),
                        plan.observe_points.len(),
                        plan.k
                    );
                }
            } else {
                let sg = design.datapath.register_sgraph();
                println!("digraph sgraph {{");
                for n in sg.nodes() {
                    let scan = design.datapath.registers()[n.index()].scan;
                    let shape = if scan { "doublecircle" } else { "circle" };
                    println!("  n{} [label=\"{}\", shape={shape}];", n.0, sg.label(n));
                }
                for (u, v) in sg.edges() {
                    println!("  n{} -> n{};", u.0, v.0);
                }
                println!("}}");
            }
            Ok(())
        }
        "sweep" => {
            let mut spec = SweepSpec::all_benchmarks();
            let mut opts = SweepOptions::default();
            let mut recovery = Recovery {
                fail_plan: FailPlan::from_env()?,
                ..Recovery::default()
            };
            let mut json = false;
            let mut full_json = false;
            let mut workers = 0usize;
            let mut listen: Option<String> = None;
            let mut sinks = Sinks::default();
            let mut i = 1;
            while i < args.len() {
                let consumed = axis_flag(args, i, &mut spec, &mut opts)?;
                if consumed > 0 {
                    i += consumed;
                    continue;
                }
                let key = args[i].as_str();
                match key {
                    "--json" => {
                        json = true;
                        i += 1;
                        continue;
                    }
                    "--full-json" => {
                        full_json = true;
                        i += 1;
                        continue;
                    }
                    "--cache" => {
                        opts.cache = true;
                        i += 1;
                        continue;
                    }
                    "--no-cache" => {
                        opts.cache = false;
                        i += 1;
                        continue;
                    }
                    "--resume" => {
                        recovery.resume = true;
                        i += 1;
                        continue;
                    }
                    "--trace-summary" => {
                        sinks.summary = true;
                        i += 1;
                        continue;
                    }
                    "--progress" => {
                        opts.progress = true;
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{key} needs a value"))?;
                match key {
                    "--threads" => {
                        opts.threads = value
                            .parse()
                            .map_err(|_| format!("bad thread count {value}"))?;
                    }
                    "--workers" => {
                        workers = value
                            .parse()
                            .map_err(|_| format!("bad worker count {value}"))?;
                    }
                    "--listen" => listen = Some(value.clone()),
                    "--checkpoint" => {
                        recovery.checkpoint = Some(std::path::PathBuf::from(value));
                    }
                    "--trace" => sinks.chrome = Some(value.clone()),
                    "--trace-metrics" => sinks.metrics = Some(value.clone()),
                    "--events" => sinks.events = Some(value.clone()),
                    "--events-canonical" => sinks.canonical = Some(value.clone()),
                    other => return Err(format!("unknown option {other}\n{USAGE}")),
                }
                i += 2;
            }
            if recovery.resume && recovery.checkpoint.is_none() {
                return Err("--resume needs --checkpoint <file>".to_string());
            }
            if listen.is_some() && workers > 0 {
                return Err("--listen and --workers are mutually exclusive".to_string());
            }
            sinks.start();
            let outcome = if let Some(addr) = &listen {
                let listener = std::net::TcpListener::bind(addr)
                    .map_err(|e| format!("sweep --listen {addr}: {e}"))?;
                match listener.local_addr() {
                    Ok(bound) => eprintln!("sweep: listening on {bound}"),
                    Err(_) => eprintln!("sweep: listening on {addr}"),
                }
                hlstb_dse::worker::run_sweep_listen(&spec, &opts, &recovery, listener)
                    .map_err(|e| e.to_string())?
            } else if workers > 0 {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("sweep --workers: resolving own binary: {e}"))?;
                let mut launch = hlstb_dse::worker::process_spawner(exe);
                run_sweep_workers(&spec, &opts, &recovery, workers, &mut launch)
                    .map_err(|e| e.to_string())?
            } else {
                run_sweep_with(&spec, &opts, &recovery).map_err(|e| e.to_string())?
            };
            sinks.finish()?;
            if outcome.checkpoint_write_errors > 0 {
                eprintln!(
                    "warning: {} checkpoint writes failed; the checkpoint is incomplete",
                    outcome.checkpoint_write_errors
                );
            }
            if json {
                println!("{}", outcome.report.canonical_json());
            } else if full_json {
                println!("{}", outcome.report.to_json());
            } else {
                print!("{}", outcome.report.table());
            }
            eprintln!("{}", outcome.report.summary());
            Ok(())
        }
        // The remote end of a sweep coordinator: dials a `sweep
        // --listen` coordinator, or the loopback port of the `sweep
        // --workers N` run that launched it, and speaks the hlstb-dse
        // wire protocol over TCP.
        "sweep-worker" => match &args[1..] {
            [flag, addr] if flag == "--connect" => {
                std::process::exit(hlstb_dse::worker::worker_connect_main(addr));
            }
            _ => Err(format!(
                "usage: hlstb sweep-worker --connect <addr>\n{USAGE}"
            )),
        },
        // The persistent synthesis-as-a-service daemon: accepts
        // newline-framed JSON sweep requests over TCP, shares one
        // bounded artifact cache across requests, journals accepted
        // requests for kill-9 replay, and drains cleanly on SIGTERM.
        "serve" => {
            let mut cfg = hlstb_serve::ServeConfig::default();
            let mut i = 1;
            while i < args.len() {
                let key = args[i].as_str();
                if key == "--replay-only" {
                    cfg.replay_only = true;
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{key} needs a value"))?;
                let num = |what: &str| -> Result<u64, String> {
                    value.parse().map_err(|_| format!("bad {what} {value}"))
                };
                match key {
                    "--listen" => cfg.listen = value.clone(),
                    "--journal" => cfg.journal = Some(std::path::PathBuf::from(value)),
                    "--max-queue" => cfg.admission.max_queue = num("queue bound")? as usize,
                    "--max-inflight-points" => {
                        cfg.admission.max_inflight_points = num("point cap")? as usize;
                    }
                    "--retry-after-ms" => {
                        cfg.admission.retry_after =
                            std::time::Duration::from_millis(num("retry hint")?);
                    }
                    "--executors" => cfg.executors = num("executor count")? as usize,
                    "--cache-entries" => {
                        cfg.cache_bounds.max_entries = Some(num("entry cap")? as usize);
                    }
                    "--cache-bytes" => cfg.cache_bounds.max_bytes = Some(num("byte cap")?),
                    "--hello-timeout-ms" => {
                        cfg.hello_timeout = std::time::Duration::from_millis(num("timeout")?);
                    }
                    other => return Err(format!("unknown option {other}\n{USAGE}")),
                }
                i += 2;
            }
            let replay_only = cfg.replay_only;
            let daemon = hlstb_serve::Daemon::bind(cfg).map_err(|e| e.to_string())?;
            if !replay_only {
                let bound = daemon.local_addr().map_err(|e| e.to_string())?;
                eprintln!("serve: listening on {bound}");
            }
            daemon.run().map_err(|e| e.to_string())
        }
        // The matching client: builds a sweep request from the same
        // axis flags as `sweep`, submits it to a running daemon, and
        // prints the canonical report (or a metrics/ping reply).
        "serve-client" => {
            let mut spec = SweepSpec::all_benchmarks();
            let mut opts = SweepOptions::default();
            let mut connect: Option<String> = None;
            let mut id = String::from("cli");
            let mut deadline: Option<std::time::Duration> = None;
            let mut metrics = false;
            let mut ping = false;
            let mut i = 1;
            while i < args.len() {
                let consumed = axis_flag(args, i, &mut spec, &mut opts)?;
                if consumed > 0 {
                    i += consumed;
                    continue;
                }
                let key = args[i].as_str();
                match key {
                    "--metrics" => {
                        metrics = true;
                        i += 1;
                        continue;
                    }
                    "--ping" => {
                        ping = true;
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{key} needs a value"))?;
                match key {
                    "--connect" => connect = Some(value.clone()),
                    "--id" => id = value.clone(),
                    "--deadline-ms" => {
                        let ms: u64 = value.parse().map_err(|_| format!("bad deadline {value}"))?;
                        deadline = Some(std::time::Duration::from_millis(ms));
                    }
                    other => return Err(format!("unknown option {other}\n{USAGE}")),
                }
                i += 2;
            }
            let addr = connect.ok_or_else(|| "serve-client needs --connect <addr>".to_string())?;
            if metrics {
                let frame = hlstb_serve::client::control(
                    &addr,
                    &hlstb_serve::proto::encode_metrics_request(),
                )
                .map_err(|e| e.to_string())?;
                println!("{frame}");
                return Ok(());
            }
            if ping {
                let frame =
                    hlstb_serve::client::control(&addr, &hlstb_serve::proto::encode_ping_request())
                        .map_err(|e| e.to_string())?;
                println!("{frame}");
                return Ok(());
            }
            let req = hlstb_serve::SweepRequest {
                id,
                spec,
                opts,
                deadline,
            };
            let out = hlstb_serve::client::run_sweep(&addr, &req).map_err(|e| e.to_string())?;
            println!("{}", out.report);
            eprintln!(
                "serve-client: `{}` done ({} progress frame(s))",
                req.id, out.progress_frames
            );
            Ok(())
        }
        "cdfg" => {
            let name = args.get(1).ok_or(USAGE)?;
            let cdfg = find_design(name).ok_or_else(|| unknown_design(name))?;
            if args.iter().any(|a| a == "--text") {
                print!("{}", hlstb::cdfg::pretty::to_pseudocode(&cdfg));
            } else {
                print!("{}", hlstb::cdfg::dot::to_dot(&cdfg));
            }
            Ok(())
        }
        "trace-check" => {
            let path = args.get(1).ok_or(USAGE)?;
            let required: Vec<&str> = args[2..].iter().map(String::as_str).collect();
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("trace-check: {path}: {e}"))?;
            let v = hlstb::trace::json::parse(&text)
                .map_err(|e| format!("trace-check: {path}: invalid JSON: {e}"))?;
            let events = v
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .ok_or_else(|| format!("trace-check: {path}: no traceEvents array"))?;
            let spans: std::collections::BTreeSet<&str> = events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
                .collect();
            if spans.is_empty() {
                return Err(format!("trace-check: {path}: no span events"));
            }
            let missing: Vec<&str> = required
                .iter()
                .copied()
                .filter(|r| !spans.contains(r))
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "trace-check: {path}: missing spans: {}",
                    missing.join(", ")
                ));
            }
            println!(
                "trace-check: {path}: {} events, {} distinct spans, ok",
                events.len(),
                spans.len()
            );
            Ok(())
        }
        "trace-view" => {
            let path = args.get(1).filter(|p| !p.starts_with("--")).ok_or(USAGE)?;
            let mut top = 10usize;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--top" => {
                        let value = args.get(i + 1).ok_or("--top needs a value")?;
                        top = value
                            .parse()
                            .map_err(|_| format!("bad top count {value}"))?;
                        i += 2;
                    }
                    other => return Err(format!("unknown option {other}\n{USAGE}")),
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("trace-view: {path}: {e}"))?;
            print!("{}", trace_view(path, &text, top)?);
            Ok(())
        }
        "perf-diff" => {
            let mut tolerance = 10.0f64;
            let mut floor_mode = false;
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--floor" => {
                        floor_mode = true;
                        i += 1;
                    }
                    "--tolerance" => {
                        let value = args.get(i + 1).ok_or("--tolerance needs a value")?;
                        tolerance = value
                            .parse()
                            .map_err(|_| format!("bad tolerance {value}"))?;
                        i += 2;
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown option {other}\n{USAGE}"))
                    }
                    file => {
                        files.push(file);
                        i += 1;
                    }
                }
            }
            if floor_mode {
                if files.is_empty() {
                    return Err("perf-diff --floor needs at least one file".to_string());
                }
                perf_floor(&files)
            } else if files.len() == 2 {
                perf_diff(files[0], files[1], tolerance)
            } else {
                Err("perf-diff needs exactly <old> <new> (or --floor <file>...)".to_string())
            }
        }
        "soa-check" => {
            let mut patterns = 256usize;
            let mut picked: Vec<Cdfg> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                if args[i] == "--grade" {
                    let value = args.get(i + 1).ok_or("--grade needs a value")?;
                    patterns = value
                        .parse()
                        .map_err(|_| format!("bad pattern count {value}"))?;
                    i += 2;
                } else {
                    let name = args[i].as_str();
                    picked.push(find_design(name).ok_or_else(|| unknown_design(name))?);
                    i += 1;
                }
            }
            if picked.is_empty() {
                picked = designs();
            }
            for g in picked {
                soa_check(g, patterns)?;
            }
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}

/// Rolls one event journal (the JSONL `sweep --events` writes) up into
/// lifecycle totals, a per-stage cache/latency table, and the `top`
/// slowest points. Errors on any unparseable line and on a journal
/// with no point-attributed records, so CI can use it as a journal
/// validity gate.
fn trace_view(path: &str, text: &str, top: usize) -> Result<String, String> {
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Default)]
    struct StageRollup {
        calls: u64,
        lookups: StageCounts,
        wall_us: u64,
        /// The part of `wall_us` spent in `coalesced` lookups, waiting
        /// on another lane's computation.
        wait_us: u64,
    }
    /// Per-worker lane (threads of an in-process pool, loopback
    /// workers, or TCP workers), keyed by the journal's `worker`
    /// field. Filled from worker-tagged `point.*` records and from
    /// the coordinator's cumulative `worker.done` snapshots; the two
    /// sources can describe the same work, so counters merge by max.
    #[derive(Default)]
    struct LaneRollup {
        points: u64,
        wall_us: u64,
        lookups: StageCounts,
    }
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut stages: BTreeMap<String, StageRollup> = BTreeMap::new();
    let mut lanes: BTreeMap<u64, LaneRollup> = BTreeMap::new();
    // point -> (design, strategy), joined from point.scheduled.
    let mut names: BTreeMap<u64, (String, String)> = BTreeMap::new();
    // (wall_us, point, outcome label) of finished points.
    let mut finished: Vec<(u64, u64, String)> = Vec::new();
    let mut points: BTreeSet<u64> = BTreeSet::new();
    let mut records = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = hlstb::trace::json::parse(line)
            .map_err(|e| format!("trace-view: {path}:{}: unparseable record: {e}", lineno + 1))?;
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| format!("trace-view: {path}:{}: record has no kind", lineno + 1))?;
        records += 1;
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
        let point = v.get("point").and_then(|p| p.as_f64()).map(|p| p as u64);
        if let Some(p) = point {
            points.insert(p);
        }
        let wall_us = || v.get("wall_us").and_then(|w| w.as_f64()).unwrap_or(0.0) as u64;
        let worker = v.get("worker").and_then(|w| w.as_f64()).map(|w| w as u64);
        match kind {
            "point.scheduled" => {
                if let (Some(p), Some(d), Some(s)) = (
                    point,
                    v.get("design").and_then(|x| x.as_str()),
                    v.get("strategy").and_then(|x| x.as_str()),
                ) {
                    names.insert(p, (d.to_string(), s.to_string()));
                }
            }
            "point.stage" => {
                let stage = v.get("stage").and_then(|s| s.as_str()).unwrap_or("?");
                let roll = stages.entry(stage.to_string()).or_default();
                roll.calls += 1;
                roll.wall_us += wall_us();
                let outcome = match v.get("cache").and_then(|c| c.as_str()) {
                    Some("hit") => CacheOutcome::Hit,
                    Some("miss") => CacheOutcome::Miss,
                    Some("coalesced") => {
                        roll.wait_us += wall_us();
                        CacheOutcome::Coalesced
                    }
                    _ => continue,
                };
                roll.lookups.record(outcome);
                if let Some(w) = worker {
                    lanes.entry(w).or_default().lookups.record(outcome);
                }
            }
            "point.completed" => {
                if let Some(p) = point {
                    let label = match v.get("coverage_percent").and_then(|c| c.as_f64()) {
                        Some(c) => format!("completed, {c:.1}% cov"),
                        None => "completed".to_string(),
                    };
                    if let Some(w) = worker {
                        let lane = lanes.entry(w).or_default();
                        lane.points += 1;
                        lane.wall_us += wall_us();
                    }
                    finished.push((wall_us(), p, label));
                }
            }
            "worker.done" => {
                if let Some(w) = worker {
                    let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
                    let lane = lanes.entry(w).or_default();
                    lane.points = lane.points.max(field("points"));
                    let c = &mut lane.lookups;
                    c.hits = c.hits.max(field("hits"));
                    c.misses = c.misses.max(field("misses"));
                    c.coalesced = c.coalesced.max(field("coalesced"));
                }
            }
            "point.failed" => {
                if let Some(p) = point {
                    let err = v.get("error").and_then(|e| e.as_str()).unwrap_or("?");
                    if let Some(w) = worker {
                        let lane = lanes.entry(w).or_default();
                        lane.points += 1;
                        lane.wall_us += wall_us();
                    }
                    finished.push((wall_us(), p, format!("failed ({err})")));
                }
            }
            _ => {}
        }
    }
    // A worker-sweep coordinator journal has no point-attributed
    // records (the points ran in other processes) but still rolls up a
    // lane table from its `worker.done` snapshots; only a journal with
    // neither is useless.
    if points.is_empty() && lanes.is_empty() {
        return Err(format!(
            "trace-view: {path}: no point records and no worker records (was the journal captured with `sweep --events`?)"
        ));
    }
    let mut out = format!(
        "trace-view: {path}: {records} records, {} points\n\nlifecycle:\n",
        points.len()
    );
    for (kind, n) in &kinds {
        out.push_str(&format!("  {kind:<18} {n:>8}\n"));
    }
    // Hit % of the lookups, "-" when there were none (cache off).
    let rate = |c: &StageCounts| {
        if c.hits + c.misses + c.coalesced == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", c.hit_rate_percent())
        }
    };
    if !stages.is_empty() {
        out.push_str(&format!(
            "\nstages:\n  {:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>11} {:>9} {:>9}\n",
            "stage", "calls", "hits", "misses", "coal", "hit %", "total ms", "wait ms", "avg us"
        ));
        for (stage, roll) in &stages {
            let c = &roll.lookups;
            out.push_str(&format!(
                "  {stage:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>11.3} {:>9.3} {:>9}\n",
                roll.calls,
                c.hits,
                c.misses,
                c.coalesced,
                rate(c),
                roll.wall_us as f64 / 1e3,
                roll.wait_us as f64 / 1e3,
                roll.wall_us / roll.calls.max(1),
            ));
        }
    }
    if !lanes.is_empty() {
        out.push_str(&format!(
            "\nworkers:\n  {:<8} {:>7} {:>11} {:>7} {:>10}\n",
            "worker", "points", "wall ms", "hit %", "coalesced"
        ));
        for (w, lane) in &lanes {
            out.push_str(&format!(
                "  {w:<8} {:>7} {:>11.3} {:>7} {:>10}\n",
                lane.points,
                lane.wall_us as f64 / 1e3,
                rate(&lane.lookups),
                lane.lookups.coalesced,
            ));
        }
    }
    if !finished.is_empty() {
        finished.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        out.push_str(&format!(
            "\nslowest points (top {}):\n",
            top.min(finished.len())
        ));
        for (wall, p, label) in finished.iter().take(top) {
            let (design, strategy) = names
                .get(p)
                .cloned()
                .unwrap_or_else(|| ("?".to_string(), "?".to_string()));
            out.push_str(&format!(
                "  #{p:<5} {design:<12} {strategy:<24} {:>9.3} ms  {label}\n",
                *wall as f64 / 1e3
            ));
        }
    }
    Ok(out)
}

fn load_json(path: &str) -> Result<hlstb::trace::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("perf-diff: {path}: {e}"))?;
    hlstb::trace::json::parse(&text).map_err(|e| format!("perf-diff: {path}: invalid JSON: {e}"))
}

/// How a metric name should be compared across runs.
enum MetricDir {
    /// Bigger is better (speedups, coverage): regress on decrease.
    HigherBetter,
    /// Smaller is better (wall times): regress on increase.
    LowerBetter,
    /// Shape/config fields (point counts, pattern budgets): report only.
    Neutral,
}

fn metric_dir(key: &str) -> MetricDir {
    if key.starts_with("speedup") || key.contains("coverage") {
        MetricDir::HigherBetter
    } else if key.ends_with("_ms") || key.ends_with("_us") || key.starts_with("wall") {
        MetricDir::LowerBetter
    } else {
        MetricDir::Neutral
    }
}

/// Compares the shared top-level numeric metrics of two BENCH
/// documents and errors when a directional metric regresses by more
/// than `tolerance` percent.
fn perf_diff(old_path: &str, new_path: &str, tolerance: f64) -> Result<(), String> {
    let old = load_json(old_path)?;
    let new = load_json(new_path)?;
    let fields = old
        .as_object()
        .ok_or_else(|| format!("perf-diff: {old_path}: not a JSON object"))?;
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for (key, ov) in fields {
        let (Some(o), Some(n)) = (ov.as_f64(), new.get(key).and_then(|v| v.as_f64())) else {
            continue;
        };
        let delta = if o != 0.0 { (n - o) / o * 100.0 } else { 0.0 };
        let status = match metric_dir(key) {
            MetricDir::HigherBetter if n < o * (1.0 - tolerance / 100.0) => {
                regressions.push(format!("{key} fell {o:.3} -> {n:.3} ({delta:+.1}%)"));
                "REGRESSED"
            }
            MetricDir::LowerBetter if n > o * (1.0 + tolerance / 100.0) => {
                regressions.push(format!("{key} grew {o:.3} -> {n:.3} ({delta:+.1}%)"));
                "REGRESSED"
            }
            MetricDir::Neutral => "info",
            _ => "ok",
        };
        rows.push(format!(
            "  {key:<36} {o:>12.3} {n:>12.3} {delta:>+8.1}%  {status}"
        ));
    }
    if rows.is_empty() {
        return Err(format!(
            "perf-diff: no shared numeric metrics between {old_path} and {new_path}"
        ));
    }
    println!("perf-diff: {old_path} -> {new_path} (tolerance {tolerance}%)");
    println!(
        "  {:<36} {:>12} {:>12} {:>9}",
        "metric", "old", "new", "delta"
    );
    for row in rows {
        println!("{row}");
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "perf-diff: {} regression(s) beyond {tolerance}%:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        ))
    }
}

/// Checks each committed BENCH file's headline metrics against the
/// file's own `floors` object (`{"metric": minimum}`). Reading the
/// checked-in artifact instead of re-timing keeps the gate flake-free
/// on loaded CI machines; refresh the artifact (and its floors) with
/// the bench binaries when an engine genuinely changes speed class.
fn perf_floor(files: &[&str]) -> Result<(), String> {
    let mut failures = Vec::new();
    for path in files {
        let v = load_json(path)?;
        let floors = v.get("floors").and_then(|f| f.as_object()).ok_or_else(|| {
            format!(
                "perf-diff: {path}: no floors object; add \
                     \"floors\": {{\"metric\": minimum}} to gate it"
            )
        })?;
        if floors.is_empty() {
            return Err(format!("perf-diff: {path}: empty floors object"));
        }
        for (metric, min) in floors {
            let min = min
                .as_f64()
                .ok_or_else(|| format!("perf-diff: {path}: floor {metric} is not a number"))?;
            match v.get(metric).and_then(|m| m.as_f64()) {
                Some(actual) if actual >= min => {
                    println!("perf-diff: {path}: {metric} = {actual} >= floor {min}, ok");
                }
                Some(actual) => {
                    failures.push(format!(
                        "{path}: {metric} = {actual} is below the floor {min}"
                    ));
                }
                None => {
                    failures.push(format!("{path}: floor metric {metric} missing"));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "perf-diff: floor violations:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// Grades one full-scan design with the naive oracle, then with the SoA
/// engine at every word width, and requires identical detected fault
/// sets — the differential smoke behind `just soa-equiv`. It then runs
/// `random_pattern_run_opts` at every width and requires the curve and
/// detected set the oracle rebuilds batch by batch over the same rng
/// frames: one grading session serves every batch of those runs.
fn soa_check(g: Cdfg, patterns: usize) -> Result<(), String> {
    let name = g.name().to_string();
    let d = SynthesisFlow::new(g)
        .strategy(DftStrategy::FullScan)
        .run()
        .map_err(|e| e.to_string())?;
    let nl = &d.expanded.netlist;
    let faults = collapsed_faults(nl);
    // Deterministic pseudorandom frames (splitmix64), independent of
    // any library RNG so the smoke pins its own inputs.
    let mut state = 0x5345_4544_0000_0000u64 ^ name.len() as u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let frames: Vec<TestFrame> = (0..patterns.div_ceil(64).max(1))
        .map(|_| {
            TestFrame::new(
                (0..nl.inputs().len()).map(|_| next()).collect(),
                (0..nl.dffs().len()).map(|_| next()).collect(),
            )
        })
        .collect();
    let (base, _) = comb_fault_sim_oracle(nl, &faults, &frames, &scan_observed(nl));
    for width in WordWidth::ALL {
        let opts = ParallelOptions::with_width(width);
        let (got, _) = comb_fault_sim_opts(nl, &faults, &frames, &opts);
        if got != base {
            return Err(format!(
                "soa-check: {name}: width {width} detected {} faults, oracle {}",
                got.detected.len(),
                base.detected.len()
            ));
        }
    }
    let seed = 0x5345_4544_0000_0001u64 ^ name.len() as u64;
    let oracle = random_pattern_oracle(nl, &faults, patterns, &mut StdRng::seed_from_u64(seed));
    for width in WordWidth::ALL {
        let (run, _) = random_pattern_run_opts(
            nl,
            &faults,
            patterns,
            &mut StdRng::seed_from_u64(seed),
            &ParallelOptions::with_width(width),
        );
        if run.curve != oracle.curve || run.summary != oracle.summary {
            return Err(format!(
                "soa-check: {name}: batched run at width {width} detected {} faults in {} \
                 batches, oracle {} in {}",
                run.summary.detected.len(),
                run.curve.len(),
                oracle.summary.detected.len(),
                oracle.curve.len()
            ));
        }
    }
    println!(
        "soa-check: {name}: {} faults, {} detected ({:.1}%), widths 64/256/512 match; \
         batched: {} detected in {} batches, match",
        base.total,
        base.detected.len(),
        base.coverage_percent(),
        oracle.summary.detected.len(),
        oracle.curve.len()
    );
    Ok(())
}
