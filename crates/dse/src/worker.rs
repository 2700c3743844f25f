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
//! Each accepted connection is served by one coordinator thread, its
//! lane, which owns the socket: it writes a `hello` (spec by name +
//! hash, options, fail plan), reads `ready`, and then pulls **leases**
//! — contiguous point-index ranges carved from the spec's enumeration
//! order — from one shared queue, reading each lease's points and its
//! `done` before it pulls the next. Work-stealing happens at the lease
//! queue: a fast worker that finishes its range simply pulls the next
//! one, so a slow point never idles the fleet (the same injector
//! discipline as the in-process pool, at range granularity to amortize
//! framing).
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
//! skew, a `done` before its lease's points, no `ready` within the
//! handshake deadline) shuts its socket both ways, puts every
//! leased-but-unreceived index back on the queue, and wakes the idle
//! lanes, which absorb the re-issued ranges. A listen-mode sweep
//! waits for the next dialer; a `--workers` sweep with no open lane
//! and every launched worker exited evaluates the remainder on the
//! driver's local loop, so it completes (byte-identically) as long as
//! the coordinator lives.
//!
//! No launched worker outlives the call: once every point has settled
//! the coordinator raises a wind-down flag, on which each idle lane
//! sends `shutdown` and ends when its worker hangs up, and it keeps
//! accepting until every lane has ended and each launched worker has
//! exited — one that attaches late (between redials) gets `hello` and
//! then `shutdown`. A lane reads each lease's `done` before it pulls
//! again, so every lane's last counters are in by then and no drain
//! wait is needed for them.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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

    /// Reads [`ENV`](Self::ENV); `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// A message naming the variable when it holds anything but
    /// `"<worker>:<after>"`.
    pub fn from_env() -> Result<Option<WorkerFail>, String> {
        match std::env::var(Self::ENV) {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s)
                .map(Some)
                .ok_or_else(|| format!("bad {} `{s}`: expected <worker>:<after>", Self::ENV)),
            _ => Ok(None),
        }
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
                    let record = runner.eval(i);
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
/// process exit code (0 clean, 3 on error or injected death); a
/// malformed [`WorkerFail::ENV`] is an error before any dial.
pub fn worker_connect_main(addr: &str) -> i32 {
    let fail = match WorkerFail::from_env() {
        Ok(fail) => fail,
        Err(e) => {
            eprintln!("sweep-worker: {e}");
            return 3;
        }
    };
    let token = std::env::var(Invite::ENV).ok();
    match dial(addr, token.as_deref(), fail) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep-worker: {}: {}", e.kind(), e.message());
            3
        }
    }
}

// ---------------------------------------------------------------------------
// The coordinator side.

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
/// [`PointError::Io`] on checkpoint open/read failures, or a listener
/// or token failure. Worker deaths are *not* errors: their leases are
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
/// a silent TCP connect can pin a lane thread for at most this long.
pub const DEFAULT_HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// [`run_sweep_listen`] with an explicit handshake deadline: an
/// accepted connection that has not answered `hello` within
/// `hello_timeout` is dropped (socket shut down, lane thread ended) and
/// counted, so a stuck or hostile dialer cannot wedge the sweep.
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

/// The lease book the lanes pull from, under the coordinator's lock.
#[derive(Default)]
struct Book {
    /// Unleased `[start, end)` ranges.
    queue: VecDeque<(usize, usize)>,
    /// Lanes holding a lease, from taking it until its `done`.
    busy: usize,
    /// Lane threads still running.
    open: usize,
    /// Connections accepted so far; a lane's id is its accept order,
    /// so a redialing worker gets a fresh id.
    seen: usize,
    /// Launched workers that have exited.
    exited: usize,
    /// Set once the work is done or stranded: a lane that looks for a
    /// lease sends `shutdown` instead.
    wind_down: bool,
    /// Connections dropped at the handshake deadline.
    hello_timeouts: u64,
    /// The summed counters of every lane's last `done` frame.
    fleet: Fleet,
}

/// Why a lane was abandoned.
enum Lost {
    /// No `ready` within the handshake deadline.
    HelloTimeout,
    /// Anything else, with the reason for the log.
    Failed(String),
}

impl From<PointError> for Lost {
    fn from(e: PointError) -> Self {
        Lost::Failed(e.message().to_string())
    }
}

fn lost(why: impl std::fmt::Display) -> Lost {
    Lost::Failed(why.to_string())
}

/// What the lane threads of one sweep share.
struct Coordinator<'c, 'd> {
    driver: &'c SweepDriver<'d>,
    /// The `hello` frame for a lane id.
    hello: &'c (dyn Fn(u32) -> String + Sync),
    /// The launch token `ready` must echo (`--workers` only).
    token: Option<&'c str>,
    hello_timeout: Duration,
    /// Points per lease.
    chunk: usize,
    book: Mutex<Book>,
    /// Signalled when the book changes in a way a waiting lane or the
    /// calling thread acts on: points re-queued, the last lease done,
    /// a lane or launched worker gone, the wind-down.
    changed: Condvar,
    /// Tells the acceptor that its next connection is the wind-down's
    /// self-connect.
    stop_accepting: AtomicBool,
}

impl Coordinator<'_, '_> {
    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().expect("lease book lock")
    }

    fn wait<'g>(&self, book: MutexGuard<'g, Book>) -> MutexGuard<'g, Book> {
        self.changed.wait(book).expect("lease book lock")
    }

    /// Counts a newly accepted connection and returns its lane id.
    fn attach(&self) -> usize {
        let mut book = self.book();
        book.open += 1;
        book.seen += 1;
        book.seen - 1
    }

    /// Counts a launched worker's exit.
    fn exited(&self) {
        self.book().exited += 1;
        self.changed.notify_all();
    }

    /// Blocks until every point has settled or, for a launch of
    /// `launched` workers, no lane is open and every one of them has
    /// exited; then winds the lanes down and waits until every lane has
    /// ended and every launched worker has exited, while the acceptor
    /// still answers a late dialer.
    fn wind_down(&self, launched: Option<usize>) {
        let settled = |b: &Book| b.queue.is_empty() && b.busy == 0;
        let gone = |b: &Book| b.open == 0 && b.exited == launched.unwrap_or(0);
        let mut book = self.book();
        while !(settled(&book) || launched.is_some() && gone(&book)) {
            book = self.wait(book);
        }
        book.wind_down = true;
        self.changed.notify_all();
        while !gone(&book) {
            book = self.wait(book);
        }
    }

    /// Ends the lease the lane just finished, if `finished`, and takes
    /// the next, waiting while other lanes hold the rest; `None` once
    /// the sweep winds down.
    fn next_lease(&self, finished: bool) -> Option<(usize, usize)> {
        let mut book = self.book();
        if finished {
            book.busy -= 1;
            if book.busy == 0 && book.queue.is_empty() {
                self.changed.notify_all(); // every point has settled
            }
        }
        loop {
            if book.wind_down {
                return None;
            }
            if let Some(lease) = book.queue.pop_front() {
                book.busy += 1;
                return Some(lease);
            }
            book = self.wait(book);
        }
    }

    /// Serves accepted connection `conn` as lane `w` until the sweep
    /// winds down or the lane fails. A failed lane's socket is shut
    /// both ways, so a live-but-abandoned worker sees its stream die
    /// and redials as a fresh lane rather than streaming into an
    /// untrusted one, and the points it held but never sent go back
    /// on the queue for the other lanes.
    fn lane(&self, w: usize, conn: TcpStream) {
        let _ = conn.set_nodelay(true);
        let (mut held, mut stats) = (None, None);
        let end = self.session(w, &conn, &mut held, &mut stats);
        let reissued = held.as_ref().map_or(0, Vec::len);
        if let Err(lost) = &end {
            let _ = conn.shutdown(Shutdown::Both);
            let why = match lost {
                Lost::HelloTimeout => {
                    hlstb_trace::counter("dse.worker.hello_timeout", 1);
                    "hello timeout"
                }
                Lost::Failed(why) => why,
            };
            self.driver.reissue(reissued as u64);
            eprintln!("sweep: worker {w} died ({why}); re-issuing {reissued} leased points");
            hlstb_trace::events::emit_volatile("worker.dead", None, |e| {
                e.volatile_u64("worker", w as u64)
                    .volatile_str("why", why)
                    .volatile_u64("reissued", reissued as u64);
            });
        }
        let mut book = self.book();
        if let Some(unreceived) = held {
            enqueue_leases(&mut book.queue, &unreceived, self.chunk);
            book.busy -= 1;
        }
        book.open -= 1;
        if matches!(end, Err(Lost::HelloTimeout)) {
            book.hello_timeouts += 1;
        }
        if let Some(stats) = stats {
            book.fleet.retries += stats.retries;
            if let Some(c) = &stats.cache {
                book.fleet.cache.merge(c);
            }
        }
        self.changed.notify_all();
    }

    /// Lane `w`'s protocol: `hello`, then `ready` within the handshake
    /// deadline, then leases — each checked point frame spliced
    /// through the driver and the lease's `done` read before the next
    /// lease is taken — until the wind-down, which sends `shutdown`.
    /// `held` is the current lease's unreceived points, from taking it
    /// until its `done`; `stats` the counters of the last `done`.
    fn session(
        &self,
        w: usize,
        conn: &TcpStream,
        held: &mut Option<Vec<usize>>,
        stats: &mut Option<proto::DoneStats>,
    ) -> Result<(), Lost> {
        let deadline = Instant::now() + self.hello_timeout;
        let runner = self.driver.runner();
        let mut out = conn;
        write_frame(&mut out, &(self.hello)(w as u32))?;
        let mut from = BufReader::new(conn);
        let mut line = String::new();
        let left = deadline.saturating_duration_since(Instant::now());
        conn.set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .map_err(lost)?;
        match read_frame(&mut from, &mut line)? {
            FromWorker::Ready { points, token, .. } => {
                let n = runner.len();
                if points != n {
                    return Err(lost(format!(
                        "resolved {points} points, coordinator has {n}"
                    )));
                }
                if self.token.is_some() && token.as_deref() != self.token {
                    return Err(lost("ready without this sweep's token"));
                }
            }
            other => return Err(unexpected(other)),
        }
        conn.set_read_timeout(None).map_err(lost)?;
        while let Some((start, end)) = self.next_lease(held.take().is_some()) {
            let pending = held.insert((start..end).collect());
            write_frame(&mut out, &proto::encode_lease(start, end))?;
            hlstb_trace::events::emit_volatile("worker.lease", None, |e| {
                e.volatile_u64("worker", w as u64)
                    .volatile_u64("start", start as u64)
                    .volatile_u64("end", end as u64);
            });
            while !pending.is_empty() {
                let (key, index, canonical) = match read_frame(&mut from, &mut line)? {
                    FromWorker::Point {
                        key,
                        index,
                        canonical,
                    } => (key, index, canonical),
                    other => return Err(unexpected(other)),
                };
                let at = pending.iter().position(|&i| i == index);
                let Some(at) = at.filter(|_| key == runner.key(index)) else {
                    return Err(lost("point frame outside its lease"));
                };
                let Some(record) = checkpoint::record_from_canonical(&canonical) else {
                    return Err(lost("unparseable canonical payload"));
                };
                pending.remove(at);
                self.driver.complete(index, record);
            }
            match read_frame(&mut from, &mut line)? {
                FromWorker::Done {
                    start: s,
                    end: e,
                    stats: latest,
                } if (s, e) == (start, end) => {
                    lane_done(w, &latest);
                    *stats = Some(latest);
                }
                other => return Err(unexpected(other)),
            }
        }
        // Wait for the worker to hang up, so the acceptor (which runs
        // until every lane has ended) answers a dialer that arrives
        // meanwhile. One read, bounded by the handshake timeout: a peer
        // that keeps its socket open cannot hold the wind-down.
        if write_frame(&mut out, &proto::encode_shutdown()).is_ok() {
            let _ = conn.set_read_timeout(Some(self.hello_timeout.max(Duration::from_millis(1))));
            let _ = from.read(&mut [0; 1]);
        }
        Ok(())
    }
}

/// Reads a lane's next frame. Only the handshake sets a read timeout,
/// so a timed-out read is a missed handshake deadline.
fn read_frame(from: &mut impl BufRead, line: &mut String) -> Result<FromWorker, Lost> {
    line.clear();
    match from.read_line(line) {
        Ok(0) => Err(lost("stream ended unexpectedly")),
        // A final line with no newline is a peer killed mid-record.
        Ok(_) if !line.ends_with('\n') => Err(lost("torn frame at stream end")),
        Ok(_) => Ok(proto::decode_from_worker(line)?),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(Lost::HelloTimeout)
        }
        Err(e) => Err(lost(format_args!("read: {e}"))),
    }
}

/// Why a frame that came when another was due abandons its lane.
fn unexpected(frame: FromWorker) -> Lost {
    match frame {
        FromWorker::Error { message } => Lost::Failed(message),
        FromWorker::Ready { .. } => lost("unexpected ready"),
        FromWorker::Point { .. } => lost("point frame outside its lease"),
        FromWorker::Done { .. } => lost("done frame without its lease's points"),
    }
}

/// The one coordinator behind both front doors. `launch` is a
/// `--workers` sweep's fleet: how many workers, and how to start one.
fn coordinate(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: TcpListener,
    hello_timeout: Duration,
    launch: Option<(usize, &mut LaunchFn<'_>)>,
) -> Result<SweepOutcome, PointError> {
    let runner = PointRunner::new(spec, opts, recovery.fail_plan.clone());
    let driver = SweepDriver::open(runner, recovery)?;
    let n = driver.runner().len();
    let needed: Vec<usize> = (0..n).filter(|&i| !driver.restore(i)).collect();
    let requested = launch.as_ref().map(|&(workers, _)| workers);
    if needed.is_empty() {
        let fleet = Fleet {
            lanes: requested.unwrap_or(0),
            ..Fleet::default()
        };
        return Ok(driver.finish_fleet(fleet));
    }
    let addr = listener
        .local_addr()
        .map_err(|e| io_err(format!("listener address: {e}")))?;
    let token = requested.map(|_| sweep_token()).transpose()?;

    // Listen mode has no fixed lane count; size leases as if a small
    // fleet will dial in (re-issue handles the rest).
    let chunk = (needed.len() / (requested.unwrap_or(4) * 4)).clamp(1, 32);
    let mut queue = VecDeque::new();
    enqueue_leases(&mut queue, &needed, chunk);
    let hello = |w: u32| proto::encode_hello(w, spec, opts, recovery.fail_plan.as_ref());
    let coord = Coordinator {
        driver: &driver,
        hello: &hello,
        token: token.as_deref(),
        hello_timeout,
        chunk,
        book: Mutex::new(Book {
            queue,
            ..Book::default()
        }),
        changed: Condvar::new(),
        stop_accepting: AtomicBool::new(false),
    };
    std::thread::scope(|s| {
        let coord = &coord;
        s.spawn(move || loop {
            match listener.accept() {
                Ok(_) if coord.stop_accepting.load(Ordering::SeqCst) => break,
                Ok((conn, _peer)) => {
                    let w = coord.attach();
                    s.spawn(move || coord.lane(w, conn));
                }
                Err(e) => {
                    eprintln!("sweep: listener: {e}");
                    break;
                }
            }
        });
        let mut launched = None;
        if let (Some((workers, launch)), Some(token)) = (launch, &token) {
            let invite = Invite {
                addr: addr.to_string(),
                token: token.clone(),
            };
            let mut count = 0;
            for w in 0..workers {
                match launch(&invite) {
                    Ok(worker) => {
                        count += 1;
                        s.spawn(move || {
                            worker.wait();
                            coord.exited();
                        });
                    }
                    Err(e) => eprintln!("sweep: launching worker {w} failed: {}", e.message()),
                }
            }
            launched = Some(count);
        }
        coord.wind_down(launched);
        // Stop accepting: set the flag, then self-connect to unblock
        // `accept()` so the acceptor ends and the listener closes.
        coord.stop_accepting.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    });

    let book = coord.book.into_inner().expect("lease book lock");
    if book.hello_timeouts > 0 {
        eprintln!(
            "sweep: dropped {} connection(s) that never completed hello",
            book.hello_timeouts
        );
    }
    // A lane that died mid-lease keeps the counters of its last `done`;
    // work it redid on another lane is counted where it actually ran.
    let fleet = Fleet {
        lanes: requested.unwrap_or(book.seen),
        ..book.fleet
    };

    // Every lane died with work left: finish on the driver's local
    // loop, so the sweep still completes byte-identically (same
    // evaluator).
    let left: Vec<usize> = (0..n).filter(|&i| !driver.is_settled(i)).collect();
    if !left.is_empty() {
        eprintln!(
            "sweep: no live workers left; evaluating {} points inline",
            left.len()
        );
        driver.run(&left, 1, &|| false);
    }
    Ok(driver.finish_fleet(fleet))
}

/// Journals a lane's latest cumulative `done` counters for
/// trace-view's lane table.
fn lane_done(w: usize, stats: &proto::DoneStats) {
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
