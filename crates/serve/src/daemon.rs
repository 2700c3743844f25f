//! The daemon: accept loop, connection handling, executors, replay,
//! and graceful drain.
//!
//! # Thread structure
//!
//! ```text
//! main thread          accept loop (nonblocking listener; `poll(2)`
//!                      wakes it when a connection is pending, or
//!                      after 25 ms to re-check the stop flag)
//! connection threads   read request lines, answer control requests,
//!                      submit sweeps through admission
//! executor threads     dequeue admitted jobs, run them against the
//!                      shared artifact cache, stream frames back
//! ```
//!
//! All threads live inside one `std::thread::scope`, so shutdown is a
//! join, not a detach-and-hope: once the stop flag (SIGTERM or an
//! injected test flag) is observed, the accept loop stops accepting,
//! admission begins draining, connection threads — handshaken or still
//! silent — wind down at their next read slice, executors finish the
//! queue, and `run` returns `Ok(())` — exit code 0 with every accepted
//! request resolved and journaled.
//!
//! # Frame ordering
//!
//! The connection thread holds the connection's write lock across
//! `submit` + the `accepted` frame, so an executor that dequeues the
//! job immediately can never push its `result` frame onto the socket
//! ahead of `accepted`. Journal ordering is stricter still: the
//! `accepted` record is appended *before* the job enters the queue, so
//! an executor's `completed` record can never precede it in the file.

use std::ffi::c_ulong;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hlstb_dse::cache::{ArtifactCache, CacheBounds, CacheStats};
use hlstb_dse::engine::{PointRunner, SweepDriver};
use hlstb_dse::proto::write_frame;
use hlstb_dse::{PointError, Recovery, SweepReport};

use crate::admission::{Admission, AdmissionConfig, Refusal};
use crate::journal::{self, Journal, Pending};
use crate::proto::{self, ErrorKind, Request, SweepRequest};

/// The longest the accept loop waits for a connection before it
/// re-checks the stop flag, and how long it backs off after a real
/// `poll` or `accept` error.
const POLL: Duration = Duration::from_millis(25);

/// Read timeout on connections, before and after the handshake: every
/// blocked read re-checks the stop flag this often — long enough to be
/// cheap, short enough that drain is prompt.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// SIGTERM, the graceful-drain signal.
const SIGTERM: i32 = 15;

static TERM: AtomicBool = AtomicBool::new(false);

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
}

extern "C" fn on_sigterm(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM → drain-flag handler. The handler body is a
/// single atomic store, which is async-signal-safe.
fn install_sigterm() {
    // SAFETY: `on_sigterm` is a valid `extern "C" fn(i32)` for the
    // whole program lifetime and only performs an atomic store.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

/// Blocks until `listener` has a connection pending or `timeout`
/// passes. A signal (SIGTERM) interrupting the wait counts as a
/// wake-up, so the caller re-checks its stop flag. A listener in an
/// error state also wakes the wait at once; the caller's next `accept`
/// then fails with the real error, which it backs off from.
fn wait_for_connection(listener: &TcpListener, timeout: Duration) -> std::io::Result<()> {
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed `pollfd` for the
    // duration of the call, `nfds` is 1, and the borrowed listener
    // keeps the descriptor open.
    if unsafe { poll(&mut fd, 1, timeout_ms) } >= 0 {
        return Ok(());
    }
    let e = std::io::Error::last_os_error();
    match e.kind() {
        std::io::ErrorKind::Interrupted => Ok(()),
        _ => Err(e),
    }
}

/// Daemon configuration. Defaults are serviceable for tests and local
/// use; the CLI exposes every knob.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub listen: String,
    /// Journal path; `None` disables durability (no replay on
    /// restart).
    pub journal: Option<PathBuf>,
    /// Admission bounds: queue depth, inflight-points cap, retry hint.
    pub admission: AdmissionConfig,
    /// Concurrent request executors.
    pub executors: usize,
    /// Bounds for the daemon-lifetime artifact cache.
    pub cache_bounds: CacheBounds,
    /// How long a fresh connection may sit silent before its first
    /// complete request line.
    pub hello_timeout: Duration,
    /// Replay the journal's unfinished requests, then exit without
    /// listening.
    pub replay_only: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            journal: None,
            admission: AdmissionConfig::default(),
            executors: 2,
            cache_bounds: CacheBounds {
                max_entries: Some(1024),
                max_bytes: Some(64 << 20),
            },
            hello_timeout: Duration::from_secs(10),
            replay_only: false,
        }
    }
}

/// An admitted unit of work. `reply` is `None` for journal replays —
/// the original client is gone; the point of the replay is the
/// journal's `completed` record.
struct Job {
    req: Box<SweepRequest>,
    accepted_at: Instant,
    reply: Option<Arc<Mutex<TcpStream>>>,
}

/// A bound, journal-loaded daemon, ready to [`run`](Daemon::run).
pub struct Daemon {
    cfg: ServeConfig,
    listener: TcpListener,
    cache: Arc<ArtifactCache>,
    /// The lookups of every request executed (completed, cut short by
    /// its deadline, or replayed), summed for the metrics frame.
    lookups: Mutex<CacheStats>,
    admission: Admission<Job>,
    journal: Option<Journal>,
    pending: Vec<Pending>,
    hello_timeouts: AtomicU64,
    stop: Arc<AtomicBool>,
    /// `HLSTB_SERVE_FAIL=abort-after-accept:<id>`: simulate a
    /// `kill -9` the instant the named request is dequeued — its
    /// `accepted` record is journaled, nothing more (testing/CI).
    abort_after_accept: Option<String>,
}

impl Daemon {
    /// Binds the listener, opens and loads the journal, and builds the
    /// shared bounded cache. No thread starts until [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`PointError::Io`] when `HLSTB_SERVE_FAIL` holds anything but
    /// `abort-after-accept:<id>` (empty is unset), or the journal or
    /// listener fails.
    pub fn bind(cfg: ServeConfig) -> Result<Daemon, PointError> {
        let abort_after_accept = match std::env::var("HLSTB_SERVE_FAIL") {
            Ok(v) if !v.trim().is_empty() => Some(
                v.strip_prefix("abort-after-accept:")
                    .map(str::to_string)
                    .ok_or_else(|| PointError::Io {
                        message: format!(
                            "serve: bad HLSTB_SERVE_FAIL `{v}`: expected abort-after-accept:<id>"
                        ),
                    })?,
            ),
            _ => None,
        };
        let (journal, pending) = match &cfg.journal {
            Some(path) => {
                let state = journal::load(path)?;
                (Some(Journal::open_append(path)?), state.pending)
            }
            None => (None, Vec::new()),
        };
        let listener = TcpListener::bind(&cfg.listen).map_err(|e| PointError::Io {
            message: format!("serve --listen {}: {e}", cfg.listen),
        })?;
        listener.set_nonblocking(true).map_err(|e| PointError::Io {
            message: format!("serve: nonblocking listener: {e}"),
        })?;
        Ok(Daemon {
            admission: Admission::new(cfg.admission),
            cache: Arc::new(ArtifactCache::bounded(cfg.cache_bounds)),
            lookups: Mutex::default(),
            cfg,
            listener,
            journal,
            pending,
            hello_timeouts: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
            abort_after_accept,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> Result<SocketAddr, PointError> {
        self.listener.local_addr().map_err(|e| PointError::Io {
            message: format!("serve: local_addr: {e}"),
        })
    }

    /// A handle tests use to request drain without sending SIGTERM.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst)
    }

    /// Replays every accepted-without-completed request from the
    /// journal. The original deadline is cleared: the client is gone
    /// and the purpose of the replay is the durable `completed` record
    /// (whose `result` frame is byte-identical because it carries only
    /// the request id and the report's canonical JSON).
    fn replay(&self) -> usize {
        let mut replayed = 0;
        for p in &self.pending {
            match proto::decode_request(&p.request) {
                Ok(Request::Sweep(mut req)) => {
                    eprintln!("serve: replaying interrupted request `{}`", p.id);
                    req.deadline = None;
                    let points = req.spec.points().len();
                    self.handle_job(
                        Job {
                            req,
                            accepted_at: Instant::now(),
                            reply: None,
                        },
                        points,
                    );
                    replayed += 1;
                }
                Ok(_) | Err(_) => eprintln!(
                    "warning: serve journal: pending request `{}` is not a replayable sweep; dropping",
                    p.id
                ),
            }
        }
        replayed
    }

    /// Serves until SIGTERM or the [`stop_handle`](Self::stop_handle)
    /// flips, then drains: in-flight and queued requests finish and
    /// are journaled, new submissions refuse with `draining`, and the
    /// call returns `Ok(())`.
    pub fn run(self) -> Result<(), PointError> {
        install_sigterm();
        let replayed = self.replay();
        if replayed > 0 {
            eprintln!("serve: replayed {replayed} interrupted request(s) from the journal");
        }
        if self.cfg.replay_only {
            return Ok(());
        }
        let d = &self;
        std::thread::scope(|s| {
            for _ in 0..self.cfg.executors.max(1) {
                s.spawn(move || {
                    while let Some((job, points)) = d.admission.next() {
                        d.handle_job(job, points);
                        d.admission.finish(points);
                    }
                });
            }
            loop {
                if d.stopping() {
                    let c = d.admission.counters();
                    eprintln!(
                        "serve: drain requested; refusing new work, finishing {} in-flight and {} queued request(s)",
                        c.running, c.queue_depth
                    );
                    d.admission.drain();
                    break;
                }
                match d.listener.accept() {
                    Ok((stream, _peer)) => {
                        s.spawn(move || d.connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if let Err(e) = wait_for_connection(&d.listener, POLL) {
                            eprintln!("serve: poll: {e}");
                            std::thread::sleep(POLL);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("serve: accept: {e}");
                        std::thread::sleep(POLL);
                    }
                }
            }
        });
        let c = self.admission.counters();
        eprintln!(
            "serve: drained cleanly ({} request(s) completed, {} shed)",
            c.completed, c.shed
        );
        Ok(())
    }

    /// One connection: a line loop whose reads time out every
    /// [`IDLE_POLL`] to re-check the stop flag. Before the first
    /// request line the slices are cut short at the handshake deadline
    /// (`hello_timeout` after accept). Every malformed line earns a
    /// typed `bad_request` frame; the connection survives until EOF, an
    /// I/O error, a silent handshake, or drain.
    fn connection(&self, stream: TcpStream) {
        let connected = Instant::now();
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(clone);
        let writer = Arc::new(Mutex::new(stream));
        let mut buf = String::new();
        let mut handshook = false;
        loop {
            if !handshook {
                let left = self.cfg.hello_timeout.saturating_sub(connected.elapsed());
                if left.is_zero() {
                    self.hello_timeouts.fetch_add(1, Ordering::Relaxed);
                    hlstb_trace::counter("serve.hello_timeout", 1);
                    eprintln!(
                        "serve: dropping connection that sent no request within {:?}",
                        self.cfg.hello_timeout
                    );
                    break;
                }
                if reader
                    .get_ref()
                    .set_read_timeout(Some(left.min(IDLE_POLL)))
                    .is_err()
                {
                    break;
                }
            }
            match reader.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    let line = std::mem::take(&mut buf);
                    let line = line.trim_end_matches(['\r', '\n']);
                    if line.is_empty() {
                        continue;
                    }
                    if !handshook {
                        handshook = true;
                        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
                    }
                    self.handle_line(line, &writer);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Partial bytes (if any) stay buffered in `buf`;
                    // the next pass keeps accumulating the same line.
                    // A silent connection dropped by drain is not a
                    // handshake timeout.
                    if self.stopping() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn handle_line(&self, line: &str, writer: &Arc<Mutex<TcpStream>>) {
        match proto::decode_request(line) {
            Err(e) => send_shared(
                writer,
                &proto::encode_error(None, ErrorKind::BadRequest, e.message(), None),
            ),
            Ok(Request::Ping) => send_shared(writer, &proto::encode_pong()),
            Ok(Request::Metrics) => send_shared(writer, &self.metrics_frame()),
            Ok(Request::Sweep(req)) => self.handle_sweep(req, line, writer),
        }
    }

    fn handle_sweep(&self, req: Box<SweepRequest>, line: &str, writer: &Arc<Mutex<TcpStream>>) {
        let id = req.id.clone();
        if self.stopping() {
            send_shared(
                writer,
                &proto::encode_error(Some(&id), ErrorKind::Draining, "daemon is draining", None),
            );
            return;
        }
        let points = req.spec.points().len();
        let job = Job {
            req,
            accepted_at: Instant::now(),
            reply: Some(Arc::clone(writer)),
        };
        // The `accepted` journal record lands before the job can be
        // dequeued, so a crash can never leave a `completed` record
        // without its `accepted`. A refusal resolves the record
        // immediately with a journaled error frame.
        if let Some(j) = &self.journal {
            j.record_accepted(&id, line);
        }
        // Holding the write lock across submit + the `accepted` frame
        // keeps a fast executor's `result` from overtaking it.
        let mut w = writer.lock().expect("connection writer lock");
        match self.admission.submit(job, points) {
            Ok(depth) => {
                hlstb_trace::counter("serve.accepted", 1);
                let _ = write_frame(&mut *w, &proto::encode_accepted(&id, depth));
            }
            Err(refusal) => {
                hlstb_trace::counter("serve.shed", 1);
                let frame = match refusal {
                    Refusal::Overloaded => proto::encode_error(
                        Some(&id),
                        ErrorKind::Overloaded,
                        "request queue is full",
                        Some(self.admission.retry_after()),
                    ),
                    Refusal::Draining => proto::encode_error(
                        Some(&id),
                        ErrorKind::Draining,
                        "daemon is draining",
                        None,
                    ),
                };
                if let Some(j) = &self.journal {
                    j.record_completed(&id, &frame);
                }
                let _ = write_frame(&mut *w, &frame);
            }
        }
    }

    /// Runs one admitted job to resolution: a journaled `completed`
    /// record plus `result` + `stats` frames on success, a journaled
    /// typed error frame otherwise.
    fn handle_job(&self, job: Job, points: usize) {
        if let Some(target) = &self.abort_after_accept {
            if job.reply.is_some() && *target == job.req.id {
                eprintln!("serve: HLSTB_SERVE_FAIL abort-after-accept:{target}: aborting");
                std::process::abort();
            }
        }
        let span = hlstb_trace::span("serve.request");
        hlstb_trace::counter("serve.requests", 1);
        let t0 = Instant::now();
        let id = job.req.id.clone();
        match self.execute(&job) {
            Ok(report) => {
                let frame = proto::encode_result(&id, &report.canonical_json());
                if let Some(j) = &self.journal {
                    j.record_completed(&id, &frame);
                }
                send(&job.reply, &frame);
                let cache = report.cache.map(|c| c.to_json());
                send(
                    &job.reply,
                    &proto::encode_stats(&id, points, t0.elapsed(), cache.as_deref()),
                );
            }
            Err((kind, message)) => {
                hlstb_trace::counter("serve.request_failed", 1);
                let frame = proto::encode_error(Some(&id), kind, &message, None);
                if let Some(j) = &self.journal {
                    j.record_completed(&id, &frame);
                }
                send(&job.reply, &frame);
            }
        }
        span.end();
    }

    /// Evaluates the request's points against the shared cache on one
    /// lane of a [`SweepDriver`], streaming a `progress` frame per
    /// point. The request deadline is checked when the job leaves the
    /// queue and again before each point, and the remaining time maps
    /// onto the engine's per-point budget so a single runaway point
    /// cannot blow through it.
    fn execute(&self, job: &Job) -> Result<SweepReport, (ErrorKind, String)> {
        let req = &job.req;
        let mut opts = req.opts;
        opts.threads = 1;
        opts.progress = false;
        opts.cache = true;
        let total = req.spec.points().len();
        if let Some(d) = req.deadline {
            let elapsed = job.accepted_at.elapsed();
            if elapsed >= d {
                return Err((
                    ErrorKind::Deadline,
                    format!("deadline of {} ms expired while queued", d.as_millis()),
                ));
            }
            let per_point = (d - elapsed) / total as u32;
            opts.point_budget = Some(match opts.point_budget {
                Some(b) => b.min(per_point),
                None => per_point,
            });
        }
        let runner = PointRunner::with_cache(&req.spec, &opts, None, Arc::clone(&self.cache));
        let driver = SweepDriver::open(runner, &Recovery::default())
            .expect("a sweep without checkpoint I/O cannot fail to start")
            .on_point(|done| send(&job.reply, &proto::encode_progress(&req.id, done, total)));
        let expired = || req.deadline.is_some_and(|d| job.accepted_at.elapsed() >= d);
        let all: Vec<usize> = (0..total).collect();
        driver.run(&all, 1, &expired);
        if let Some(stats) = driver.runner().cache_stats() {
            self.lookups.lock().expect("lookups lock").merge(&stats);
        }
        if let Some(d) = req.deadline.filter(|_| driver.settled() < total) {
            return Err((
                ErrorKind::Deadline,
                format!(
                    "deadline of {} ms expired after {} of {total} points",
                    d.as_millis(),
                    driver.settled()
                ),
            ));
        }
        Ok(driver.finish().report)
    }

    /// The metrics snapshot frame: admission counters, handshake
    /// drops, journal health, every executed request's lookups, and the
    /// shared cache's occupancy (entries, bytes, evictions).
    fn metrics_frame(&self) -> String {
        let c = self.admission.counters();
        let stats = *self.lookups.lock().expect("lookups lock");
        let total = stats.total();
        let mut o = hlstb_trace::json::Obj::new();
        o.string("type", "metrics")
            .boolean("draining", c.draining || self.stopping())
            .number_u64("accepted", c.accepted)
            .number_u64("completed", c.completed)
            .number_u64("shed", c.shed)
            .number_u64("queue_depth", c.queue_depth)
            .number_u64("inflight_points", c.inflight_points)
            .number_u64("running", c.running)
            .number_u64(
                "hello_timeouts",
                self.hello_timeouts.load(Ordering::Relaxed),
            )
            .boolean(
                "journal_degraded",
                self.journal.as_ref().is_some_and(Journal::degraded),
            )
            .number_u64("cache_hits", total.hits)
            .number_u64("cache_coalesced", total.coalesced)
            .raw("cache", &stats.to_json())
            .raw("cache_occupancy", &self.cache.occupancy().to_json());
        o.finish()
    }
}

/// Writes one frame, ignoring I/O errors — a gone client must not take
/// the executor down; the journal already has the durable copy.
fn send_shared(writer: &Arc<Mutex<TcpStream>>, frame: &str) {
    let _ = write_frame(&mut *writer.lock().expect("connection writer lock"), frame);
}

fn send(reply: &Option<Arc<Mutex<TcpStream>>>, frame: &str) {
    if let Some(w) = reply {
        send_shared(w, frame);
    }
}
