//! `perfbench`: the hlstb repository benchmark (see `README.md`).
//!
//! ```text
//! perfbench --workload <scoreboard|synth-wide|serve-mix|scoreboard-lanes>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --capture-digests
//! ```
//!
//! A human-readable table goes to stderr; the last line of stdout is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).

mod check;
mod layers;
mod probe;
mod serve_mix;
mod stats;
mod sweeps;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sweeps::Kind;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Where runs keep their scratch files, relative to the working
/// directory (the checkout root).
const TMP_ROOT: &str = ".perfbench_tmp";

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty sample) reads 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted: points for sweeps, requests for serve-mix.
    pub attempted: u64,
    /// Operations that failed or did not match their reference.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Jobs (sweeps or requests) the metrics summarise.
    pub samples: usize,
}

/// A scratch directory under `root` for this process, removed by
/// [`TempDir`]'s drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `root/<pid>`.
    pub fn new(root: &Path) -> Result<TempDir, String> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using the root.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--capture-digests") {
        return Ok(None);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

/// A run that has not finished by then is stuck (a daemon that never
/// drains, a lane that never dials): it exits with an error instead of
/// hanging its caller.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        let _ = writeln!(
            std::io::stderr(),
            "perfbench: no result after {} s; giving up",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", sweeps::capture_digests());
            return 0;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let tmp = match TempDir::new(Path::new(TMP_ROOT)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let run = |kind| sweeps::run(kind, args.seed, args.seconds, args.trace, &tmp.0);
    let outcome = match args.workload.as_str() {
        "scoreboard" => run(Kind::Scoreboard),
        "synth-wide" => run(Kind::SynthWide),
        "scoreboard-lanes" => run(Kind::Lanes),
        "serve-mix" => serve_mix::run(args.seed, args.seconds, args.trace, &tmp.0),
        other => Err(format!("unknown workload `{other}`")),
    };
    drop(tmp);
    let mut result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    if args.trace {
        result.metrics.push(Metric::new(
            "failed_share",
            stats::ratio(result.failed as f64, result.attempted as f64),
            "share",
        ));
    }
    eprintln!(
        "perfbench: {} seed {} {}: {} jobs, {} operations, {} failed",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        result.samples,
        result.attempted,
        result.failed
    );
    for m in &result.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    0
}
