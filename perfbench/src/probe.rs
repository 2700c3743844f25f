//! The host-speed probe.
//!
//! The reference box is a shared 2-vCPU VM whose speed drifts by ±25%
//! over tens of seconds and halves for minutes at a time; CPU time
//! drifts with it and the VM exposes no hardware counters. The sweep
//! workloads therefore time a fixed kernel, compiled into this
//! benchmark and independent of the repository's code, before every
//! sweep, and scale their times by [`PROBE_REF_S`] over the run's
//! median probe: the time the sweep would take on the reference box at
//! its quiet speed. A run's median probe moves with the host's slow and
//! quiet periods; a single probe is too noisy to scale one sweep.
//!
//! The kernel allocates: small-object allocation and pointer chasing
//! track the host's slow periods on the synthesis stages far better
//! than arithmetic on a flat array does. It runs on a thread of its
//! own that lives for the whole run: glibc gives that thread its own
//! malloc arena, and the workload's short-lived pool threads take
//! arenas that earlier pool threads released, so the probe does not
//! see the heap state the workload leaves behind. (A probe in a fresh
//! child process was tried and tracked the host worse than none.)

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The probe's time on the reference box in a quiet period, seconds.
pub const PROBE_REF_S: f64 = 0.025;

/// A fixed mix of small allocations, ordered-map inserts and lookups,
/// and string formatting.
fn kernel() -> u64 {
    let mut rng = crate::stats::SplitMix(0x99);
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for _ in 0..60_000 {
        let k = rng.next_u64() % 50_000;
        map.entry(k).or_default().push(k as u32);
    }
    let keyed: u64 = map.iter().map(|(k, v)| k ^ v.len() as u64).sum();
    let names: Vec<String> = (0..40_000)
        .map(|i| format!("n{i}_{}", rng.next_u64() % 97))
        .collect();
    keyed.wrapping_add(names.iter().map(|s| s.len() as u64).sum::<u64>())
}

/// Probe times taken over a run on a dedicated thread, turned into
/// one speed factor.
pub struct Probes {
    ask: Option<mpsc::Sender<()>>,
    answer: mpsc::Receiver<f64>,
    thread: Option<JoinHandle<()>>,
    times: Vec<f64>,
}

impl Probes {
    /// Starts the probe thread.
    pub fn new() -> Probes {
        let (ask, asked) = mpsc::channel::<()>();
        let (tell, answer) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for () in asked {
                let t0 = Instant::now();
                std::hint::black_box(kernel());
                if tell.send(t0.elapsed().as_secs_f64()).is_err() {
                    break;
                }
            }
        });
        Probes {
            ask: Some(ask),
            answer,
            thread: Some(thread),
            times: Vec::new(),
        }
    }

    /// Times one run of the kernel on the probe thread.
    pub fn take(&mut self) {
        let ask = self.ask.as_ref().expect("probe thread runs until drop");
        ask.send(()).expect("probe thread alive");
        self.times
            .push(self.answer.recv().expect("probe thread answers"));
    }

    /// The factor that scales walls measured between these probes to
    /// the reference box's quiet speed: [`PROBE_REF_S`] over the median
    /// probe.
    pub fn speed_factor(&self) -> f64 {
        PROBE_REF_S / crate::stats::median(&self.times)
    }
}

impl Drop for Probes {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop.
        self.ask = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
