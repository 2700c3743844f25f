//! Scale-out sweep execution: a coordinator sharding the point list
//! over TCP worker lanes speaking the [`crate::proto`] wire protocol.
//!
//! # Topology
//!
//! Every lane is an accepted TCP connection from a worker that dialed
//! the coordinator ([`worker_connect`]; `hlstb sweep-worker --connect
//! ADDR`). The lanes come from one of two places:
//!
//! * [`run_sweep_workers`] (`hlstb sweep --workers N`) binds
//!   `127.0.0.1:0` and *launches* N workers that dial it: child
//!   processes ([`process_spawner`]) or in-process threads
//!   ([`thread_spawner`], used by the tests and benchmarks);
//! * [`run_sweep_listen`] (`hlstb sweep --listen ADDR`) binds where it
//!   is told and serves whoever dials in, for as long as work remains.
//!
//! Each new lane gets a `hello` (spec by name + hash, options, fail
//! plan), answers `ready`, and then pulls **leases** — contiguous
//! point-index ranges carved from the spec's enumeration order.
//! Work-stealing happens at the lease queue: a fast worker that
//! finishes its range simply pulls the next one, so a slow point never
//! idles the fleet (the same injector discipline as the in-process
//! pool, at range granularity to amortize framing).
//!
//! # Trust
//!
//! A `--workers` sweep splices results only from the workers it
//! launched. It draws a random token per sweep from the OS RNG and
//! hands it to them through the environment ([`Invite::ENV`]), never
//! on the command line; they echo it in `ready`, and a lane without it
//! is abandoned like a garbage lane, so nothing else that dials the
//! loopback port can inject points. `--listen` has no token: LAN
//! semantics, with the `hello` design content hash as the integrity
//! check. In both modes a point frame splices only from a live, ready
//! lane and only for an index that lane holds a lease on.
//!
//! # Byte-identical splice
//!
//! Workers evaluate points through the same [`PointRunner`] the
//! in-process pool uses and stream each completed point back in
//! checkpoint-record form (canonical JSON verbatim, keyed by content
//! key). The coordinator keeps only lanes, leases and frame
//! validation: it checks each frame's key against the sweep's own
//! content keys and hands the embedded bytes, unchanged, to the same
//! [`SweepDriver`] that runs the in-process pool — which restores,
//! checkpoints (`io:` fail-point included), meters and assembles the
//! report. So `--workers N` output is byte-identical to a serial
//! uncached run for the same reason checkpoint resume is.
//!
//! # Failure handling
//!
//! A lane that dies (EOF, kill, torn frame, key mismatch, version
//! skew) surfaces as a typed [`PointError::Io`]-family verdict on its
//! stream; the coordinator shuts its socket, re-enqueues every
//! leased-but-unreceived index, and the surviving lanes absorb the
//! re-issued ranges. A listen-mode sweep waits for the next dialer;
//! a `--workers` sweep with no live lane and every launched worker
//! exited evaluates the remainder on the driver's local loop, so it
//! completes (byte-identically) as long as the coordinator lives.
//!
//! No launched worker outlives the call: once the work is done every
//! lane gets `shutdown`, and the coordinator keeps accepting until each
//! launched worker has exited — one that attaches late (between
//! redials) gets `hello` and then `shutdown`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::checkpoint;
use crate::engine::{Fleet, PointRunner, Recovery, SweepDriver, SweepOptions, SweepOutcome};
use crate::error::PointError;
use crate::proto::{self, write_frame, FromWorker, ToWorker};
use crate::spec::SweepSpec;

fn io_err(what: impl std::fmt::Display) -> PointError {
    PointError::Io {
        message: format!("worker: {what}"),
    }
}

/// Deterministic worker-death injection (the process analogue of
/// [`crate::FailPlan`]): the matching worker emits `after` points,
/// then writes a torn partial frame and dies — exercising the
/// coordinator's corrupt-frame detection and lease re-issue for real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFail {
    /// The worker lane id that dies.
    pub worker: u32,
    /// Points the worker emits successfully before dying.
    pub after: usize,
}

impl WorkerFail {
    /// The environment variable the CLI reads:
    /// `HLSTB_WORKER_FAIL="<worker>:<after>"`.
    pub const ENV: &'static str = "HLSTB_WORKER_FAIL";

    /// Parses `"<worker>:<after>"`.
    pub fn parse(s: &str) -> Option<WorkerFail> {
        let (w, a) = s.split_once(':')?;
        Some(WorkerFail {
            worker: w.trim().parse().ok()?,
            after: a.trim().parse().ok()?,
        })
    }

    /// Reads [`ENV`](Self::ENV); `None` when unset or malformed.
    pub fn from_env() -> Option<WorkerFail> {
        std::env::var(Self::ENV).ok().and_then(|s| Self::parse(&s))
    }
}

// ---------------------------------------------------------------------------
// Launching workers.

/// What a launched worker needs to join a [`run_sweep_workers`] sweep:
/// the coordinator's loopback address and the sweep's token.
#[derive(Debug, Clone)]
pub struct Invite {
    /// The coordinator's listening address.
    pub addr: String,
    /// The per-sweep token the worker echoes in `ready`.
    pub token: String,
}

impl Invite {
    /// The environment variable that carries the token to a launched
    /// `sweep-worker --connect` process (argv is readable by every
    /// local user; a process's environment is not).
    pub const ENV: &'static str = "HLSTB_WORKER_TOKEN";

    /// Serves this sweep as a launched worker: [`worker_connect`] with
    /// the token echoed in `ready`.
    ///
    /// # Errors
    ///
    /// As [`worker_connect`].
    pub fn connect(&self, fail: Option<WorkerFail>) -> Result<(), PointError> {
        dial(&self.addr, Some(&self.token), fail)
    }
}

/// A launched worker, which [`run_sweep_workers`] waits on before it
/// returns.
pub enum Launched {
    /// An in-process worker thread.
    Thread(JoinHandle<()>),
    /// A worker child process.
    Process(Child),
}

impl Launched {
    /// Blocks until the worker has exited.
    fn wait(self) {
        match self {
            Launched::Thread(handle) => {
                let _ = handle.join();
            }
            Launched::Process(mut child) => {
                let _ = child.wait();
            }
        }
    }
}

/// A worker launcher: called once per requested worker with the
/// sweep's [`Invite`].
pub type LaunchFn<'a> = dyn FnMut(&Invite) -> Result<Launched, PointError> + 'a;

/// A launcher running each worker as an in-process thread on
/// [`Invite::connect`]: real TCP lanes without processes, for the
/// tests and benchmarks. `fail` injects a worker death exactly as
/// [`WorkerFail::from_env`] would in a worker process.
pub fn thread_spawner(
    fail: Option<WorkerFail>,
) -> impl FnMut(&Invite) -> Result<Launched, PointError> {
    move |invite: &Invite| {
        let invite = invite.clone();
        Ok(Launched::Thread(std::thread::spawn(move || {
            // A worker death (injected or real) shows on its lane; the
            // thread itself just ends.
            let _ = invite.connect(fail);
        })))
    }
}

/// A launcher running each worker as an `exe sweep-worker --connect
/// ADDR` child process, with the token in [`Invite::ENV`] and stderr
/// and the rest of the environment inherited.
pub fn process_spawner(
    exe: std::path::PathBuf,
) -> impl FnMut(&Invite) -> Result<Launched, PointError> {
    move |invite: &Invite| {
        Command::new(&exe)
            .args(["sweep-worker", "--connect", &invite.addr])
            .env(Invite::ENV, &invite.token)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map(Launched::Process)
            .map_err(|e| io_err(format!("launch {}: {e}", exe.display())))
    }
}

/// Draws a sweep token: 128 bits from the OS RNG, as hex.
fn sweep_token() -> Result<String, PointError> {
    let mut bytes = [0u8; 16];
    std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(&mut bytes))
        .map_err(|e| io_err(format!("draw a sweep token: {e}")))?;
    Ok(bytes.iter().map(|b| format!("{b:02x}")).collect())
}

// ---------------------------------------------------------------------------
// The worker side.

/// How a worker session ended without an error.
enum SessionEnd {
    /// The coordinator sent `shutdown`: the sweep is over.
    Shutdown,
    /// The stream ended without a shutdown frame — the coordinator
    /// vanished or dropped the connection, so the worker redials.
    Eof,
}

/// The worker half of the protocol over one connection: handshake
/// (echoing `token` in `ready`), then evaluate leases point by point
/// through a [`PointRunner`] — the same evaluator the in-process pool
/// uses — streaming each result back as a checkpoint-format frame,
/// until `shutdown` or input EOF. `handshaken` is set once the hello
/// was accepted and `ready` went out, so the caller can tell a broken
/// session (redial) from a rejected handshake (fatal — a
/// version-skewed or garbage coordinator will not improve on the next
/// dial).
///
/// # Errors
///
/// [`PointError::Io`] on a malformed coordinator frame or a dead
/// output stream; [`PointError::Panic`] on an injected [`WorkerFail`]
/// death.
fn worker_session(
    mut input: impl BufRead,
    mut output: impl Write,
    fail: Option<WorkerFail>,
    token: Option<&str>,
    handshaken: &mut bool,
) -> Result<SessionEnd, PointError> {
    let mut line = String::new();
    let read_line = |input: &mut dyn BufRead, line: &mut String| -> Result<bool, PointError> {
        line.clear();
        let n = input
            .read_line(line)
            .map_err(|e| io_err(format!("read frame: {e}")))?;
        Ok(n > 0)
    };
    if !read_line(&mut input, &mut line)? {
        return Ok(SessionEnd::Eof); // coordinator vanished before hello
    }
    let hello = match proto::decode_to_worker(&line) {
        Ok(ToWorker::Hello(h)) => *h,
        Ok(_) => {
            let e = io_err("expected hello as the first frame");
            let _ = write_frame(&mut output, &proto::encode_error(e.message()));
            return Err(e);
        }
        Err(e) => {
            // Best-effort rejection report (version skew, unresolvable
            // spec) so the coordinator logs *why* before the lane dies.
            let _ = write_frame(&mut output, &proto::encode_error(e.message()));
            return Err(e);
        }
    };
    hlstb_trace::events::set_worker(hello.worker);
    let death = fail.filter(|f| f.worker == hello.worker).map(|f| f.after);
    let runner = PointRunner::new(&hello.spec, &hello.opts, hello.fail_plan.clone());
    write_frame(
        &mut output,
        &proto::encode_ready(hello.worker, runner.len(), token),
    )?;
    *handshaken = true;
    let mut emitted = 0usize;
    loop {
        if !read_line(&mut input, &mut line)? {
            return Ok(SessionEnd::Eof); // coordinator closed the stream
        }
        match proto::decode_to_worker(&line)? {
            ToWorker::Hello(_) => return Err(io_err("unexpected second hello")),
            ToWorker::Shutdown => return Ok(SessionEnd::Shutdown),
            ToWorker::Lease { start, end } => {
                if start > end || end > runner.len() {
                    write_frame(
                        &mut output,
                        &proto::encode_error(&format!(
                            "lease [{start}, {end}) out of range (points: {})",
                            runner.len()
                        )),
                    )?;
                    return Err(io_err("lease out of range"));
                }
                for i in start..end {
                    runner.scheduled(i);
                    let (record, _) = runner.eval(i);
                    let frame =
                        proto::encode_point(runner.key(i), i, &record.canonical_point_json());
                    if death == Some(emitted) {
                        // Die mid-record: write a torn prefix (no
                        // newline), flush, and stop — what a kill -9
                        // between write and newline looks like.
                        let torn = &frame[..frame.len() * 2 / 3];
                        let _ = output.write_all(torn.as_bytes());
                        let _ = output.flush();
                        return Err(PointError::Panic {
                            message: format!(
                                "injected worker {} death after {emitted} points",
                                hello.worker
                            ),
                        });
                    }
                    write_frame(&mut output, &frame)?;
                    emitted += 1;
                }
                let stats = proto::DoneStats {
                    points: emitted as u64,
                    retries: runner.retries(),
                    cache: runner.cache_stats(),
                };
                write_frame(&mut output, &proto::encode_done(start, end, &stats))?;
            }
        }
    }
}

/// Capped exponential redial delay for [`worker_connect`].
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((50u64 << attempt.min(4)).min(500))
}

/// Dials `addr` and serves sweep sessions until the coordinator sends
/// `shutdown`. The connection attempt and any post-handshake stream
/// drop redial with bounded exponential backoff (a sweep coordinator
/// that is still listening treats the new connection as a fresh lane
/// and re-issues whatever the dead lane had leased — results already
/// streamed are kept, so nothing completed is recomputed). Fatal
/// conditions never redial: a rejected handshake (version skew,
/// unknown designs) or an injected [`WorkerFail`] death, which
/// simulates a real process kill. The `ready` frame carries no token,
/// so a [`run_sweep_workers`] coordinator abandons this worker; it
/// serves [`run_sweep_listen`] sweeps.
///
/// # Errors
///
/// [`PointError::Io`] once `MAX_DIALS` consecutive dial failures
/// accumulate (the counter resets on every completed handshake), or
/// the fatal conditions above.
pub fn worker_connect(addr: &str, fail: Option<WorkerFail>) -> Result<(), PointError> {
    dial(addr, None, fail)
}

/// [`worker_connect`] echoing `token` in every session's `ready`.
fn dial(addr: &str, token: Option<&str>, fail: Option<WorkerFail>) -> Result<(), PointError> {
    /// Consecutive failed dial/handshake attempts before giving up.
    const MAX_DIALS: u32 = 6;
    let mut failures = 0u32;
    loop {
        let sock = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                failures += 1;
                if failures >= MAX_DIALS {
                    return Err(io_err(format!(
                        "connect {addr}: {e} (gave up after {failures} attempts)"
                    )));
                }
                std::thread::sleep(backoff(failures));
                continue;
            }
        };
        let _ = sock.set_nodelay(true);
        let reader = sock
            .try_clone()
            .map_err(|e| io_err(format!("clone socket: {e}")))?;
        let mut handshaken = false;
        let result = worker_session(BufReader::new(reader), &sock, fail, token, &mut handshaken);
        if handshaken {
            failures = 0;
        }
        match result {
            Ok(SessionEnd::Shutdown) => return Ok(()),
            Ok(SessionEnd::Eof) => {
                eprintln!("sweep-worker: {addr} closed without shutdown; redialing");
            }
            Err(e) if handshaken && e.kind() == "io" => {
                eprintln!("sweep-worker: session error: {}; redialing", e.message());
            }
            Err(e) => return Err(e),
        }
        failures += 1;
        if failures >= MAX_DIALS {
            return Err(io_err(format!(
                "gave up on {addr} after {failures} consecutive broken sessions"
            )));
        }
        std::thread::sleep(backoff(failures));
    }
}

/// The entry point behind `sweep-worker --connect <addr>`: dial with
/// redial, echoing the token a launching coordinator put in
/// [`Invite::ENV`] and honoring [`WorkerFail::ENV`]. Returns the
/// process exit code (0 clean, 3 on error or injected death).
pub fn worker_connect_main(addr: &str) -> i32 {
    let token = std::env::var(Invite::ENV).ok();
    match dial(addr, token.as_deref(), WorkerFail::from_env()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep-worker: {}: {}", e.kind(), e.message());
            3
        }
    }
}

// ---------------------------------------------------------------------------
// The coordinator side.

enum LaneEvent {
    Frame(FromWorker),
    Corrupt(PointError),
    Eof,
}

/// Everything the coordinator's event loop can be woken by: a frame
/// (or death) on a lane, a newly accepted connection, or a launched
/// worker's exit.
enum CoordEvent {
    Lane(usize, LaneEvent),
    Accepted(TcpStream),
    Exited,
}

struct Lane {
    /// The connection (the reader thread reads its own handle of it).
    conn: TcpStream,
    /// The reader thread, joined when the sweep ends.
    reader: JoinHandle<()>,
    /// Frames may still be written to the lane: cleared when it is shut
    /// down, politely or hard.
    live: bool,
    /// Leased indices not yet received back.
    outstanding: Vec<usize>,
    ready: bool,
    /// Latest cumulative session counters from the lane's `done`
    /// frames (fleet aggregation sums these at sweep end).
    stats: proto::DoneStats,
    /// The lane's reader thread has signed off (sent `Eof` or
    /// `Corrupt`); the wind-down waits on this so the final `done`
    /// frame of every lane is counted.
    reader_done: bool,
    /// When the lane was attached — the handshake deadline measures
    /// `hello` completion from here.
    attached_at: Instant,
}

impl Lane {
    /// The polite end: `shutdown`, leaving the close to the worker.
    fn close(&mut self) {
        if std::mem::take(&mut self.live) {
            let _ = write_frame(&mut self.conn, &proto::encode_shutdown());
        }
    }
}

/// Splits `indices` (sorted, unique) into contiguous `[start, end)`
/// leases of at most `chunk` points and appends them to the queue.
fn enqueue_leases(queue: &mut VecDeque<(usize, usize)>, indices: &[usize], chunk: usize) {
    let mut i = 0;
    while i < indices.len() {
        let start = indices[i];
        let mut len = 1;
        while i + len < indices.len() && indices[i + len] == start + len && len < chunk {
            len += 1;
        }
        queue.push_back((start, start + len));
        i += len;
    }
}

/// Runs `spec` sharded over `workers` workers started by `launch`,
/// which dial a loopback listener this call binds (see the module
/// docs), splicing streamed results byte-identically. `opts.cache`,
/// `opts.point_budget`, and `opts.retries` ship to the workers in the
/// handshake; `opts.threads` is reported in the envelope but each
/// worker evaluates its leases serially — the lane count is the
/// parallelism. Checkpoint/resume and the fail plan in `recovery` work
/// exactly as in [`crate::run_sweep_with`]. Every launched worker has
/// exited when this returns.
///
/// # Errors
///
/// [`PointError::Io`] on checkpoint open/read failures, a listener or
/// token failure, or `keep_designs` (designs cannot cross a process
/// boundary). Worker deaths are *not* errors: their leases are
/// re-issued to surviving lanes, and with no lanes left the
/// coordinator evaluates the remainder inline.
pub fn run_sweep_workers(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    workers: usize,
    launch: &mut LaunchFn<'_>,
) -> Result<SweepOutcome, PointError> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(format!("bind loopback: {e}")))?;
    let launch = Some((workers.max(1), launch));
    coordinate(
        spec,
        opts,
        recovery,
        listener,
        DEFAULT_HELLO_TIMEOUT,
        launch,
    )
}

/// Runs `spec` sharded over TCP workers that dial into `listener`
/// (`hlstb sweep --listen` + `hlstb sweep-worker --connect`): every
/// accepted connection becomes a fresh lane, a dropped connection's
/// leases are re-issued, and the coordinator keeps accepting
/// replacement workers until the sweep completes — a worker killed
/// mid-lease plus a redial still splices byte-identically. A worker
/// that dials in while the sweep winds down gets `shutdown`; then the
/// listener closes, and later stragglers see refused connections and
/// give up on their own bounded redial budget. No authentication: LAN
/// semantics, with the `hello` design content hash as the integrity
/// check.
///
/// # Errors
///
/// As [`run_sweep_workers`].
pub fn run_sweep_listen(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: TcpListener,
) -> Result<SweepOutcome, PointError> {
    run_sweep_listen_with_timeout(spec, opts, recovery, listener, DEFAULT_HELLO_TIMEOUT)
}

/// The default handshake deadline: generous for a LAN, yet bounded —
/// a silent TCP connect can pin a reader thread for at most this long.
pub const DEFAULT_HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// [`run_sweep_listen`] with an explicit handshake deadline: an
/// accepted connection that has not completed `hello` within
/// `hello_timeout` is dropped (socket shut down, reader released) and
/// counted, so a stuck or hostile dialer cannot wedge the accept path.
///
/// # Errors
///
/// As [`run_sweep_workers`].
pub fn run_sweep_listen_with_timeout(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: TcpListener,
    hello_timeout: Duration,
) -> Result<SweepOutcome, PointError> {
    coordinate(spec, opts, recovery, listener, hello_timeout, None)
}

/// How often the event loop re-checks handshake deadlines and the
/// wind-down while anything is pending.
const POLL: Duration = Duration::from_millis(25);

/// How long the wind-down waits for lanes' final `done` frames.
const DRAIN: Duration = Duration::from_secs(5);

/// The coordinator's lease book: every lane, the queue of unleased
/// `[start, end)` ranges, and the lease size.
struct Leases {
    lanes: Vec<Lane>,
    queue: VecDeque<(usize, usize)>,
    chunk: usize,
}

impl Leases {
    fn any_live(&self) -> bool {
        self.lanes.iter().any(|l| l.live)
    }

    /// Writes the hello to a new connection and starts its reader
    /// thread; the lane's id is its slot in `lanes` (a redialing worker
    /// therefore gets a fresh id — a returning worker is
    /// indistinguishable from a new one, by design).
    fn attach(
        &mut self,
        mut conn: TcpStream,
        hello_for: &dyn Fn(u32) -> String,
        tx: &mpsc::Sender<CoordEvent>,
    ) -> Option<&mut Lane> {
        let w = self.lanes.len();
        let _ = conn.set_nodelay(true);
        let from = match conn.try_clone() {
            Ok(from) => from,
            Err(e) => {
                eprintln!("sweep: accepting worker: clone socket: {e}");
                return None;
            }
        };
        let live = write_frame(&mut conn, &hello_for(w as u32)).is_ok();
        if !live {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            let mut from = BufReader::new(from);
            let mut line = String::new();
            loop {
                line.clear();
                let event = match from.read_line(&mut line) {
                    Ok(0) => LaneEvent::Eof,
                    // A final line with no newline is a peer killed
                    // mid-record.
                    Ok(_) if !line.ends_with('\n') => {
                        LaneEvent::Corrupt(io_err("torn frame at stream end"))
                    }
                    Ok(_) => match proto::decode_from_worker(&line) {
                        Ok(f) => {
                            if tx.send(CoordEvent::Lane(w, LaneEvent::Frame(f))).is_err() {
                                break;
                            }
                            continue;
                        }
                        Err(e) => LaneEvent::Corrupt(e),
                    },
                    Err(e) => LaneEvent::Corrupt(io_err(format!("read: {e}"))),
                };
                let _ = tx.send(CoordEvent::Lane(w, event));
                break;
            }
        });
        self.lanes.push(Lane {
            conn,
            reader,
            live,
            outstanding: Vec::new(),
            ready: false,
            stats: proto::DoneStats::default(),
            reader_done: false,
            attached_at: Instant::now(),
        });
        self.lanes.last_mut()
    }

    /// One lane's death: hard-shut its socket, re-enqueue its leases.
    fn fail(&mut self, w: usize, why: &str, driver: &SweepDriver<'_>) {
        let lane = &mut self.lanes[w];
        if !std::mem::take(&mut lane.live) {
            return;
        }
        // Hard shutdown both directions: an abandoned-but-alive worker
        // must see its stream die (its next write fails, prompting a
        // redial as a fresh lane) rather than keep streaming into an
        // untrusted lane.
        let _ = lane.conn.shutdown(Shutdown::Both);
        let pending = std::mem::take(&mut lane.outstanding);
        driver.reissue(pending.len() as u64);
        eprintln!(
            "sweep: worker {w} died ({why}); re-issuing {} leased points",
            pending.len()
        );
        hlstb_trace::events::emit_volatile("worker.dead", None, |e| {
            e.volatile_u64("worker", w as u64)
                .volatile_str("why", why)
                .volatile_u64("reissued", pending.len() as u64);
        });
        enqueue_leases(&mut self.queue, &pending, self.chunk);
    }

    /// Hands leases to every idle ready lane.
    fn pump(&mut self, driver: &SweepDriver<'_>) {
        loop {
            let mut progressed = false;
            for w in 0..self.lanes.len() {
                let lane = &self.lanes[w];
                if !(lane.live && lane.ready && lane.outstanding.is_empty()) {
                    continue;
                }
                let Some((start, end)) = self.queue.pop_front() else {
                    return;
                };
                let frame = proto::encode_lease(start, end);
                let lane = &mut self.lanes[w];
                if write_frame(&mut lane.conn, &frame).is_ok() {
                    lane.outstanding = (start..end).collect();
                    hlstb_trace::events::emit_volatile("worker.lease", None, |e| {
                        e.volatile_u64("worker", w as u64)
                            .volatile_u64("start", start as u64)
                            .volatile_u64("end", end as u64);
                    });
                } else {
                    self.queue.push_front((start, end));
                    self.fail(w, "lease write failed", driver);
                }
                progressed = true;
            }
            if !progressed {
                return;
            }
        }
    }

    /// Applies one lane event. `token` is the sweep's launch token,
    /// which `ready` must echo when set.
    fn on_lane(
        &mut self,
        w: usize,
        event: LaneEvent,
        token: Option<&str>,
        driver: &SweepDriver<'_>,
    ) {
        let n = driver.runner().len();
        match event {
            LaneEvent::Frame(FromWorker::Ready {
                points,
                token: echoed,
                ..
            }) => {
                if points != n {
                    let why = format!("resolved {points} points, coordinator has {n}");
                    self.fail(w, &why, driver);
                } else if token.is_some() && echoed.as_deref() != token {
                    self.fail(w, "ready without this sweep's token", driver);
                } else {
                    self.lanes[w].ready = true;
                }
            }
            LaneEvent::Frame(FromWorker::Point {
                key,
                index,
                canonical,
            }) => {
                // A shut lane holds no lease, so its stragglers land
                // here too (and `fail` leaves it as it is).
                let lane = &self.lanes[w];
                if !lane.ready
                    || !lane.outstanding.contains(&index)
                    || key != driver.runner().key(index)
                {
                    self.fail(w, "point frame outside its lease", driver);
                } else if let Some(record) = checkpoint::record_from_canonical(&canonical) {
                    self.lanes[w].outstanding.retain(|&x| x != index);
                    driver.complete(index, record, None);
                } else {
                    self.fail(w, "unparseable canonical payload", driver);
                }
            }
            LaneEvent::Frame(FromWorker::Done { stats, .. }) => {
                // Only a lane that passed the handshake reports stats.
                if self.lanes[w].ready {
                    lane_done(&mut self.lanes[w], w, stats);
                }
            }
            LaneEvent::Frame(FromWorker::Error { message }) => self.fail(w, &message, driver),
            LaneEvent::Corrupt(e) => {
                self.lanes[w].reader_done = true;
                self.fail(w, e.message(), driver);
            }
            LaneEvent::Eof => {
                self.lanes[w].reader_done = true;
                self.fail(w, "stream ended unexpectedly", driver);
            }
        }
    }
}

/// The one coordinator loop behind both front doors. `launch` is a
/// `--workers` sweep's fleet: how many workers, and how to start one.
fn coordinate(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: TcpListener,
    hello_timeout: Duration,
    launch: Option<(usize, &mut LaunchFn<'_>)>,
) -> Result<SweepOutcome, PointError> {
    if opts.keep_designs {
        return Err(io_err(
            "scale-out sweeps cannot keep designs (they cannot cross a process boundary)",
        ));
    }
    let runner = PointRunner::new(spec, opts, recovery.fail_plan.clone());
    let driver = SweepDriver::open(runner, recovery)?;
    let n = driver.runner().len();
    let needed: Vec<usize> = (0..n).filter(|&i| !driver.restore(i)).collect();
    let remaining = || n - driver.settled();
    let mut fleet = Fleet {
        lanes: launch.as_ref().map_or(0, |&(workers, _)| workers),
        ..Fleet::default()
    };
    if needed.is_empty() {
        return Ok(driver.finish_fleet(fleet));
    }
    let addr = listener
        .local_addr()
        .map_err(|e| io_err(format!("listener address: {e}")))?;
    let token = launch.as_ref().map(|_| sweep_token()).transpose()?;

    // Listen mode has no fixed lane count; size leases as if a small
    // fleet will dial in (re-issue handles the rest).
    let fanout = launch.as_ref().map_or(4, |&(workers, _)| workers);
    let mut leases = Leases {
        lanes: Vec::new(),
        queue: VecDeque::new(),
        chunk: (needed.len() / (fanout * 4)).clamp(1, 32),
    };
    enqueue_leases(&mut leases.queue, &needed, leases.chunk);

    // One channel wakes the event loop: frames (or deaths) from each
    // lane's reader thread, connections from the accept thread, and
    // exits from the launched workers' waiter threads.
    let (tx, rx) = mpsc::channel::<CoordEvent>();
    let hello_for = |w: u32| proto::encode_hello(w, spec, opts, recovery.fail_plan.as_ref());
    let stop_accepting = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop_accepting);
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            match listener.accept() {
                // The wind-down self-connect lands here; the flag tells
                // it apart from a worker.
                Ok(_) if stop.load(Ordering::Relaxed) => break,
                Ok((sock, _peer)) => {
                    if tx.send(CoordEvent::Accepted(sock)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    eprintln!("sweep: listener: {e}");
                    break;
                }
            }
        })
    };
    let launching = launch.is_some();
    let mut waiters = Vec::new();
    if let (Some((workers, launch)), Some(token)) = (launch, &token) {
        let invite = Invite {
            addr: addr.to_string(),
            token: token.clone(),
        };
        for w in 0..workers {
            match launch(&invite) {
                Ok(worker) => {
                    let tx = tx.clone();
                    waiters.push(std::thread::spawn(move || {
                        worker.wait();
                        let _ = tx.send(CoordEvent::Exited);
                    }));
                }
                Err(e) => eprintln!("sweep: launching worker {w} failed: {}", e.message()),
            }
        }
    }

    let mut exited = 0;
    let mut hello_timeouts: u64 = 0;
    // Set once the work is done (or stranded): every lane has been
    // sent `shutdown`, and the loop only waits out launched workers
    // and final `done` frames until this drain deadline.
    let mut wind_down: Option<Instant> = None;
    loop {
        if wind_down.is_none() {
            leases.pump(&driver);
            // A launch with no live lane and no worker left to dial in
            // is stranded; listen mode instead waits for the next
            // dialer.
            let stranded = launching && !leases.any_live() && exited == waiters.len();
            if remaining() == 0 || stranded {
                leases.lanes.iter_mut().for_each(Lane::close);
                wind_down = Some(Instant::now() + DRAIN);
            }
        }
        if let Some(deadline) = wind_down {
            // Each reader sends exactly one Eof/Corrupt before exiting,
            // so `reader_done` everywhere means every lane's final
            // cumulative `done` frame has been counted.
            let drained = leases.lanes.iter().all(|l| l.reader_done) || Instant::now() >= deadline;
            if exited == waiters.len() && drained {
                break;
            }
        }
        // While the wind-down runs or any connection is mid-handshake,
        // poll instead of blocking, so a silent dialer is dropped at its
        // deadline rather than pinning the loop.
        let polling = wind_down.is_some() || leases.lanes.iter().any(|l| l.live && !l.ready);
        let event = if polling {
            rx.recv_timeout(POLL).ok()
        } else {
            rx.recv().ok()
        };
        for w in 0..leases.lanes.len() {
            let lane = &leases.lanes[w];
            if lane.live && !lane.ready && lane.attached_at.elapsed() >= hello_timeout {
                hello_timeouts += 1;
                hlstb_trace::counter("dse.worker.hello_timeout", 1);
                leases.fail(w, "hello timeout", &driver);
            }
        }
        match event {
            Some(CoordEvent::Accepted(sock)) => {
                let late = wind_down.is_some();
                if let Some(lane) = leases.attach(sock, &hello_for, &tx) {
                    if late {
                        // A worker dialing in after the work is done
                        // (between redials): hello, then shutdown.
                        lane.close();
                    }
                }
            }
            Some(CoordEvent::Exited) => exited += 1,
            Some(CoordEvent::Lane(w, event)) => {
                leases.on_lane(w, event, token.as_deref(), &driver);
            }
            None => {}
        }
    }

    if hello_timeouts > 0 {
        eprintln!("sweep: dropped {hello_timeouts} connection(s) that never completed hello");
    }
    // Stop accepting: set the flag, then self-connect to unblock
    // `accept()` so the thread joins and the listener closes.
    stop_accepting.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(addr);
    let _ = acceptor.join();
    for waiter in waiters {
        let _ = waiter.join();
    }

    // Fleet aggregation: sum the latest per-lane session counters. A
    // lane that died mid-lease keeps the stats of its last done frame;
    // work it redid on another lane is counted where it actually ran.
    // Every reader is joined; shutting its connection first releases
    // one still waiting on a silent peer past the drain deadline.
    if !launching {
        fleet.lanes = leases.lanes.len();
    }
    for lane in leases.lanes {
        fleet.retries += lane.stats.retries;
        if let Some(c) = &lane.stats.cache {
            fleet.cache.merge(c);
        }
        let _ = lane.conn.shutdown(Shutdown::Both);
        let _ = lane.reader.join();
    }

    // Every lane died with work left: finish on the driver's local
    // loop, so the sweep still completes byte-identically (same
    // evaluator).
    if remaining() > 0 {
        eprintln!(
            "sweep: no live workers left; evaluating {} points inline",
            remaining()
        );
        let left: Vec<usize> = (0..n).filter(|&i| !driver.is_settled(i)).collect();
        driver.run(&left, 1, &|| false);
    }
    Ok(driver.finish_fleet(fleet))
}

/// Keeps a lane's latest cumulative `done` counters (they supersede
/// the previous snapshot) and journals them for trace-view's lane
/// table.
fn lane_done(lane: &mut Lane, w: usize, stats: proto::DoneStats) {
    hlstb_trace::events::emit_volatile("worker.done", None, |e| {
        e.volatile_u64("worker", w as u64)
            .volatile_u64("points", stats.points)
            .volatile_u64("retries", stats.retries);
        if let Some(c) = stats.cache.map(|c| c.total()) {
            e.volatile_u64("hits", c.hits)
                .volatile_u64("misses", c.misses)
                .volatile_u64("coalesced", c.coalesced);
        }
    });
    lane.stats = stats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_fail_parses_and_rejects() {
        assert_eq!(
            WorkerFail::parse("1:2"),
            Some(WorkerFail {
                worker: 1,
                after: 2
            })
        );
        assert_eq!(
            WorkerFail::parse(" 3 : 0 "),
            Some(WorkerFail {
                worker: 3,
                after: 0
            })
        );
        assert_eq!(WorkerFail::parse("nope"), None);
        assert_eq!(WorkerFail::parse("1:x"), None);
    }

    #[test]
    fn sweep_tokens_are_fresh_hex() {
        let (a, b) = (sweep_token().unwrap(), sweep_token().unwrap());
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
    }

    #[test]
    fn enqueue_leases_chunks_contiguous_runs() {
        let mut q = VecDeque::new();
        enqueue_leases(&mut q, &[0, 1, 2, 5, 6, 9], 2);
        assert_eq!(Vec::from(q), vec![(0, 2), (2, 3), (5, 7), (9, 10)]);
    }

    #[test]
    fn worker_session_rejects_a_leading_non_hello_frame() {
        let input = format!("{}\n", proto::encode_lease(0, 1));
        let mut out = Vec::new();
        let mut handshaken = false;
        let Err(err) = worker_session(input.as_bytes(), &mut out, None, None, &mut handshaken)
        else {
            panic!("a leading lease was accepted");
        };
        assert_eq!(err.kind(), "io");
        assert!(!handshaken);
    }
}
