//! The persistent verification daemon behind `jahob serve`.
//!
//! One warm [`Verifier`] session — goal cache and persistent store — is
//! shared across every client of a Unix-domain socket. The wire protocol
//! is the length-prefixed, CRC-framed codec of [`jahob_util::ipc`], with
//! the `SUBMIT`/`REPORT`/`BUSY`/`STATUS`/`DRAIN` kinds.
//!
//! Design contract, in order of precedence:
//!
//! 1. **Identity.** Verdicts and canonical event streams through the
//!    daemon are bit-for-bit identical to one-shot [`Verifier::verify`]
//!    runs — requests dispatch serially onto the one session (method
//!    fan-out inside a request still uses the session's worker pool),
//!    so warm state helps wall-clock and never changes answers.
//! 2. **An accepted request is never dropped.** Admission is a bounded
//!    queue; overflow and drain refusals are *typed* BUSY replies
//!    carrying the queue depth, and everything admitted runs to
//!    completion even if its client has gone away.
//! 3. **A misbehaving client costs only its own connection.** The
//!    socket chaos family ([`SocketFault`]) — torn frames, hung
//!    clients, mid-request disconnects, slow readers — degrades to a
//!    dropped connection, never a wedged queue or a changed verdict
//!    for any other client.
//!
//! Fairness is round-robin across client connections: each connection
//! has a lane, and the dispatcher pops lanes in rotation so one chatty
//! client cannot starve the rest. Per-request deadlines ride in via
//! [`crate::verify::RequestOptions`] and per-request observability
//! streams ride out as `REPORT` frames (tag 0), rendered through the
//! same [`Event::to_json`] as every other sink.
//!
//! Session-wide knobs, such as the worker count and the persistent
//! cache, are fixed when the daemon starts (the `JAHOB_*` environment of
//! `jahob serve`), not per request: they shape the shared session, and
//! identity (contract 1) holds for whatever the daemon was started with.

use crate::cli::{self, OutputMode};
use crate::verify::{Config, RequestOptions, Verifier};
use jahob_util::chaos::{FaultPlan, SocketFault};
use jahob_util::ipc::{self, kind, Frame, FrameError, Reader, Writer, DEFAULT_MAX_FRAME};
use jahob_util::obs::{Event, Sink};
use std::collections::VecDeque;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Tag byte leading every `REPORT` payload.
mod report_tag {
    /// One streamed observability line (JSONL, no trailing newline).
    pub const OBS: u8 = 0;
    /// The final rendered report — exactly what `jahob verify` prints.
    pub const FINAL: u8 = 1;
    /// A diagnosed pipeline error message.
    pub const ERROR: u8 = 2;
}

/// How often blocked loops re-check the drain/termination flags.
const POLL: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Wire codec (shared by client and daemon, exercised by the unit tests)
// ---------------------------------------------------------------------------

/// Client-side knobs for one submission.
#[derive(Clone, Debug, Default)]
pub struct SubmitOptions {
    /// How the daemon renders the final report (`REPORT` tag 1).
    pub output: OutputMode,
    /// Stream the request's observability events back as `REPORT`
    /// tag-0 frames (one JSONL line each).
    pub stream_obs: bool,
    /// Render streamed events without unstable (wall-clock/schedule)
    /// fields — [`Event::to_json`]`(false)`, the canonical form.
    pub stable_obs: bool,
    /// Per-obligation wall-clock ceiling for this request only.
    pub deadline: Option<Duration>,
}

fn output_to_wire(mode: OutputMode) -> u8 {
    match mode {
        OutputMode::Human => 0,
        OutputMode::Json => 1,
        OutputMode::JsonTiming => 2,
    }
}

fn output_from_wire(byte: u8) -> Option<OutputMode> {
    match byte {
        0 => Some(OutputMode::Human),
        1 => Some(OutputMode::Json),
        2 => Some(OutputMode::JsonTiming),
        _ => None,
    }
}

fn encode_submit(src: &str, options: &SubmitOptions) -> Vec<u8> {
    let mut w = Writer::new();
    let mut flags = 0u8;
    if options.stream_obs {
        flags |= 1;
    }
    if options.stable_obs {
        flags |= 2;
    }
    w.put_u8(flags);
    w.put_u8(output_to_wire(options.output));
    w.put_u64(options.deadline.map_or(0, |d| d.as_millis() as u64));
    w.put_str(src);
    w.into_vec()
}

fn decode_submit(payload: &[u8]) -> Option<(String, SubmitOptions)> {
    let mut r = Reader::new(payload);
    let flags = r.get_u8().ok()?;
    let output = output_from_wire(r.get_u8().ok()?)?;
    let deadline_ms = r.get_u64().ok()?;
    let src = r.get_str().ok()?.to_owned();
    if !r.is_empty() {
        return None;
    }
    Some((
        src,
        SubmitOptions {
            output,
            stream_obs: flags & 1 != 0,
            stable_obs: flags & 2 != 0,
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        },
    ))
}

/// What a submission came back as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// A completed run: the rendered report text (ladder exit 0).
    Report(String),
    /// A diagnosed pipeline error (ladder exit 1).
    PipelineError(String),
    /// Admission refused — queue full or daemon draining (ladder
    /// exit 2). `queued`/`depth` count admitted-but-unfinished
    /// requests against the bound.
    Busy {
        queued: u32,
        depth: u32,
        draining: bool,
    },
}

/// A `STATUS` probe's reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStatus {
    pub draining: bool,
    /// Requests admitted but not yet started.
    pub queued: u32,
    /// Requests currently being verified.
    pub in_flight: u32,
    pub accepted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// The admission bound ([`Config::queue_depth`]).
    pub depth: u32,
}

fn frame_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Eof => {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        }
        FrameError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, format!("broken frame: {other}")),
    }
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated reply payload")
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A connection to a running daemon: the client half of `jahob
/// submit`/`status`/`drain`, and the harness the service tests drive.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    pub fn connect(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }

    /// Submit `src` for verification and block until the daemon
    /// answers. Streamed observability lines (when
    /// [`SubmitOptions::stream_obs`] is set) are handed to `on_obs` in
    /// arrival order, before the final outcome returns.
    ///
    /// Transport failures surface as `Err` — a torn frame or a dropped
    /// daemon is always a loud I/O error, never a fabricated verdict.
    pub fn submit(
        &mut self,
        src: &str,
        options: &SubmitOptions,
        mut on_obs: impl FnMut(&str),
    ) -> io::Result<SubmitOutcome> {
        ipc::write_frame(
            &mut self.stream,
            &Frame::new(kind::SUBMIT, encode_submit(src, options)),
        )?;
        loop {
            let frame = ipc::read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(frame_io)?;
            match frame.kind {
                kind::REPORT => {
                    let mut r = Reader::new(&frame.payload);
                    let tag = r.get_u8().map_err(|_| truncated())?;
                    let text = r.get_str().map_err(|_| truncated())?;
                    match tag {
                        report_tag::OBS => on_obs(text),
                        report_tag::FINAL => return Ok(SubmitOutcome::Report(text.to_owned())),
                        report_tag::ERROR => {
                            return Ok(SubmitOutcome::PipelineError(text.to_owned()))
                        }
                        other => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unknown REPORT tag {other}"),
                            ))
                        }
                    }
                }
                kind::BUSY => {
                    let mut r = Reader::new(&frame.payload);
                    let queued = r.get_u32().map_err(|_| truncated())?;
                    let depth = r.get_u32().map_err(|_| truncated())?;
                    let draining = r.get_u8().map_err(|_| truncated())? != 0;
                    return Ok(SubmitOutcome::Busy {
                        queued,
                        depth,
                        draining,
                    });
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame kind {other} mid-submission"),
                    ))
                }
            }
        }
    }

    /// Probe the daemon's queue state.
    pub fn status(&mut self) -> io::Result<ServiceStatus> {
        ipc::write_frame(&mut self.stream, &Frame::new(kind::STATUS, Vec::new()))?;
        let frame = ipc::read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(frame_io)?;
        if frame.kind != kind::STATUS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected STATUS reply, got kind {}", frame.kind),
            ));
        }
        let mut r = Reader::new(&frame.payload);
        let decode = |r: &mut Reader| -> Result<ServiceStatus, ipc::Truncated> {
            Ok(ServiceStatus {
                draining: r.get_u8()? != 0,
                queued: r.get_u32()?,
                in_flight: r.get_u32()?,
                accepted: r.get_u64()?,
                completed: r.get_u64()?,
                rejected: r.get_u64()?,
                depth: r.get_u32()?,
            })
        };
        decode(&mut r).map_err(|_| truncated())
    }

    /// Ask the daemon to drain: finish all admitted work, refuse new
    /// submissions, and exit. Blocks until the daemon acknowledges the
    /// queue is empty; returns its lifetime completed-request count.
    pub fn drain(&mut self) -> io::Result<u64> {
        ipc::write_frame(&mut self.stream, &Frame::new(kind::DRAIN, Vec::new()))?;
        let frame = ipc::read_frame(&mut self.stream, DEFAULT_MAX_FRAME).map_err(frame_io)?;
        if frame.kind != kind::DRAIN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected DRAIN ack, got kind {}", frame.kind),
            ));
        }
        let mut r = Reader::new(&frame.payload);
        r.get_u64().map_err(|_| truncated())
    }
}

// ---------------------------------------------------------------------------
// Daemon state
// ---------------------------------------------------------------------------

/// The write half of one client connection. `gone` latches on any send
/// failure: a dead client silently absorbs the rest of its replies —
/// its admitted requests still run to completion.
struct Conn {
    id: u64,
    writer: Mutex<UnixStream>,
    gone: AtomicBool,
}

impl Conn {
    /// Send one frame through the `service.write` chaos site. Failures
    /// only ever mark this connection gone.
    fn send(&self, shared: &Shared, frame: &Frame) {
        if self.gone.load(Ordering::Relaxed) {
            return;
        }
        let fault = shared.decide_socket("service.write");
        match fault {
            Some(SocketFault::Disconnect) => {
                self.gone.store(true, Ordering::Relaxed);
                return;
            }
            Some(SocketFault::HungClient) => thread::sleep(Duration::from_millis(25)),
            Some(SocketFault::SlowReader) => thread::sleep(Duration::from_millis(5)),
            _ => {}
        }
        let mut writer = self.writer.lock().unwrap();
        let result = if matches!(fault, Some(SocketFault::TornFrame)) {
            // The client sees a checksum mismatch — a loud transport
            // error on its side, never a silently wrong verdict.
            ipc::write_corrupt_frame(&mut *writer, frame)
        } else {
            ipc::write_frame(&mut *writer, frame)
        };
        if result.is_err() {
            self.gone.store(true, Ordering::Relaxed);
        }
    }
}

/// One admitted verification request.
struct Request {
    conn: Arc<Conn>,
    src: String,
    options: SubmitOptions,
}

/// Per-connection FIFO lane; lanes rotate round-robin.
struct Lane {
    conn_id: u64,
    queue: VecDeque<Request>,
}

#[derive(Default)]
struct QueueState {
    lanes: Vec<Lane>,
    /// Round-robin cursor into `lanes`.
    rr: usize,
    /// Admitted, not yet started.
    queued: usize,
    /// Started, not yet finished.
    in_flight: usize,
}

impl QueueState {
    fn push(&mut self, request: Request) {
        let conn_id = request.conn.id;
        match self.lanes.iter_mut().find(|l| l.conn_id == conn_id) {
            Some(lane) => lane.queue.push_back(request),
            None => self.lanes.push(Lane {
                conn_id,
                queue: VecDeque::from([request]),
            }),
        }
        self.queued += 1;
    }

    /// Pop the next request in lane rotation; empty lanes retire so a
    /// departed client costs nothing.
    fn pop_round_robin(&mut self) -> Option<Request> {
        let n = self.lanes.len();
        for step in 0..n {
            let i = (self.rr + step) % n;
            if let Some(request) = self.lanes[i].queue.pop_front() {
                self.queued -= 1;
                let mut next = i + 1;
                if self.lanes[i].queue.is_empty() {
                    self.lanes.remove(i);
                    // The lane that followed the removed one now sits
                    // at its index.
                    next = i;
                }
                self.rr = if self.lanes.is_empty() {
                    0
                } else {
                    next % self.lanes.len()
                };
                return Some(request);
            }
        }
        None
    }

    /// Admitted-but-unfinished requests — what the bound counts.
    fn admitted(&self) -> usize {
        self.queued + self.in_flight
    }
}

struct Shared {
    depth: usize,
    state: Mutex<QueueState>,
    /// Signals the dispatcher that work (or a drain) arrived.
    work: Condvar,
    /// Signals drain waiters that the queue ran dry.
    idle: Condvar,
    draining: AtomicBool,
    /// The dispatcher exited: queue empty, store flushed.
    done: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    next_client: AtomicU64,
    /// The daemon's own event stream (service lifecycle + any request
    /// that did not ask for a private stream).
    sink: Option<Arc<dyn Sink>>,
    plan: Option<Arc<FaultPlan>>,
}

impl Shared {
    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Roll the fault plan at a socket site, recording any injection on
    /// the daemon's own stream (connection threads have no recorder
    /// scope, and service-site injections must never reach a report's
    /// stats).
    fn decide_socket(&self, site: &str) -> Option<SocketFault> {
        let fault = self.plan.as_ref()?.decide_socket(site)?;
        self.emit(Event::ChaosInjected {
            site: site.to_owned(),
            fault: format!("socket-{fault}"),
        });
        Some(fault)
    }

    /// Admit or shed one request. `Ok` carries the admitted count
    /// after the push; `Err` the count and drain flag for the BUSY
    /// reply. An `Ok` here is the promise: the request will run.
    fn admit(&self, request: Request) -> Result<u64, (u64, bool)> {
        let draining = self.draining.load(Ordering::SeqCst);
        let mut state = self.state.lock().unwrap();
        if draining || state.admitted() >= self.depth {
            let admitted = state.admitted() as u64;
            drop(state);
            self.rejected.fetch_add(1, Ordering::SeqCst);
            return Err((admitted, draining));
        }
        state.push(request);
        let admitted = state.admitted() as u64;
        drop(state);
        self.accepted.fetch_add(1, Ordering::SeqCst);
        self.work.notify_all();
        Ok(admitted)
    }

    /// Dispatcher side: block for the next request, or `None` once the
    /// daemon is done/drained dry.
    fn next_request(&self) -> Option<Request> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(request) = state.pop_round_robin() {
                state.in_flight += 1;
                return Some(request);
            }
            if self.done.load(Ordering::SeqCst)
                || (self.draining.load(Ordering::SeqCst) && state.admitted() == 0)
            {
                return None;
            }
            state = self.work.wait_timeout(state, POLL).unwrap().0;
        }
    }

    fn finish_request(&self) {
        let mut state = self.state.lock().unwrap();
        state.in_flight -= 1;
        let dry = state.admitted() == 0;
        drop(state);
        if dry {
            self.idle.notify_all();
        }
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let state = self.state.lock().unwrap();
        self.emit(Event::ServiceDrain {
            queued: state.admitted() as u64,
        });
        drop(state);
        self.work.notify_all();
    }

    fn status(&self) -> ServiceStatus {
        let state = self.state.lock().unwrap();
        ServiceStatus {
            draining: self.draining.load(Ordering::SeqCst),
            queued: state.queued as u32,
            in_flight: state.in_flight as u32,
            accepted: self.accepted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            depth: self.depth as u32,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-request observability
// ---------------------------------------------------------------------------

/// A [`Sink`] that ships each event to the requesting client as a
/// `REPORT` tag-0 frame, teeing to the daemon's base sink so the
/// daemon-side stream stays complete. Installed via
/// [`RequestOptions::sink`] only for requests that asked to stream.
struct RequestSink {
    conn: Arc<Conn>,
    shared: Arc<Shared>,
    stable: bool,
    tee: Option<Arc<dyn Sink>>,
}

impl Sink for RequestSink {
    fn emit(&self, event: &Event) {
        let mut w = Writer::new();
        w.put_u8(report_tag::OBS);
        w.put_str(&event.to_json(!self.stable));
        self.conn
            .send(&self.shared, &Frame::new(kind::REPORT, w.into_vec()));
        if let Some(tee) = &self.tee {
            tee.emit(event);
        }
    }

    fn flush(&self) {
        if let Some(tee) = &self.tee {
            tee.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// The daemon: a bound socket, one warm [`Verifier`] on a dispatch
/// thread, and a thread per client connection.
pub struct Service {
    shared: Arc<Shared>,
    socket_path: PathBuf,
    listener: UnixListener,
    dispatch: Option<thread::JoinHandle<()>>,
}

impl Service {
    /// Bind `config.socket` and start the dispatch thread. A stale
    /// socket file left by a crashed daemon is reclaimed; a *live*
    /// daemon on the path is an `AddrInUse` error.
    pub fn bind(config: Config) -> io::Result<Service> {
        let socket_path = config.socket.clone().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "no socket path configured (set --socket or JAHOB_SOCKET)",
            )
        })?;
        if socket_path.exists() {
            if UnixStream::connect(&socket_path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving `{}`", socket_path.display()),
                ));
            }
            std::fs::remove_file(&socket_path)?;
        }
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            depth: config.queue_depth.max(1),
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            done: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            sink: config.sink.clone(),
            plan: config.dispatch.fault_plan.clone(),
        });
        shared.emit(Event::ServiceStart {
            socket: socket_path.display().to_string(),
        });
        let dispatch = thread::spawn({
            let shared = Arc::clone(&shared);
            move || dispatch_loop(shared, config)
        });
        Ok(Service {
            shared,
            socket_path,
            listener,
            dispatch: Some(dispatch),
        })
    }

    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// Begin a graceful drain: finish admitted work, refuse new
    /// submissions, then let [`Service::run`] return.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Has the dispatcher finished (queue drained dry, store flushed)?
    pub fn drained(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    pub fn status(&self) -> ServiceStatus {
        self.shared.status()
    }

    /// Serve until drained — by a client `DRAIN` frame, a
    /// [`Service::drain`] call, or SIGTERM/SIGINT (when
    /// [`install_termination_handler`] ran). Finishes in-flight work,
    /// flushes sinks, removes the socket file, and returns `Ok(())` —
    /// the graceful-exit contract behind `kill -TERM` → exit 0.
    pub fn run(mut self) -> io::Result<()> {
        loop {
            if termination_requested() {
                self.shared.begin_drain();
            }
            if self.shared.done.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = self.shared.next_client.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.shared.decide_socket("service.accept").is_some() {
                        // Every accept-site fault degrades the same
                        // way: the connection dies before anything is
                        // admitted, so there is nothing to keep alive.
                        self.shared.emit(Event::ServiceDisconnect { client: id });
                        continue;
                    }
                    self.shared.emit(Event::ServiceAccept { client: id });
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || serve_connection(shared, stream, id));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A transient accept failure must not kill admitted
                // work; back off and keep serving.
                Err(_) => thread::sleep(POLL),
            }
        }
        if let Some(dispatch) = self.dispatch.take() {
            let _ = dispatch.join();
        }
        if let Some(sink) = &self.shared.sink {
            sink.flush();
        }
        let _ = std::fs::remove_file(&self.socket_path);
        Ok(())
    }
}

/// The dispatch thread: owns the one warm session, pops lanes
/// round-robin, runs requests serially (identity with one-shot runs is
/// structural, not incidental), and flushes the persistent store on the
/// way out.
fn dispatch_loop(shared: Arc<Shared>, config: Config) {
    let base_sink = config.sink.clone();
    let verifier = Verifier::new(config);
    while let Some(request) = shared.next_request() {
        let options = RequestOptions {
            deadline: request.options.deadline,
            sink: request.options.stream_obs.then(|| {
                Arc::new(RequestSink {
                    conn: Arc::clone(&request.conn),
                    shared: Arc::clone(&shared),
                    stable: request.options.stable_obs,
                    tee: base_sink.clone(),
                }) as Arc<dyn Sink>
            }),
        };
        let (tag, text, outcome) = match verifier.verify_with(&request.src, &options) {
            Ok(report) => (
                report_tag::FINAL,
                cli::render_report(&report, &verifier, request.options.output),
                "verified",
            ),
            Err(e) => (report_tag::ERROR, e.to_string(), "error"),
        };
        let mut w = Writer::new();
        w.put_u8(tag);
        w.put_str(&text);
        // Count the request completed before its report goes out: a
        // client holding the report may ask for STATUS at once.
        shared.completed.fetch_add(1, Ordering::SeqCst);
        request
            .conn
            .send(&shared, &Frame::new(kind::REPORT, w.into_vec()));
        shared.emit(Event::ServiceDone {
            client: request.conn.id,
            outcome,
        });
        shared.finish_request();
    }
    // Warm state survives the drain: flush write-behind proofs now, not
    // at some process-exit hook that a SIGKILL would skip.
    if let Some(cache) = verifier.goal_cache() {
        cache.flush_persistent();
    }
    shared.done.store(true, Ordering::SeqCst);
    let _guard = shared.state.lock().unwrap();
    shared.idle.notify_all();
    shared.work.notify_all();
}

/// One client connection: read frames, admit/answer, die quietly on
/// any protocol violation or socket fault.
fn serve_connection(shared: Arc<Shared>, read_half: UnixStream, id: u64) {
    let Ok(write_half) = read_half.try_clone() else {
        shared.emit(Event::ServiceDisconnect { client: id });
        return;
    };
    // The read timeout lets this thread notice `done` without a poll
    // thread; the write timeout keeps a wedged client from holding the
    // dispatcher's reply forever.
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(1)));
    let conn = Arc::new(Conn {
        id,
        writer: Mutex::new(write_half),
        gone: AtomicBool::new(false),
    });
    let mut read_half = read_half;
    loop {
        if shared.done.load(Ordering::SeqCst) || conn.gone.load(Ordering::Relaxed) {
            break;
        }
        let frame = match ipc::read_frame(&mut read_half, DEFAULT_MAX_FRAME) {
            Ok(frame) => frame,
            // Timeout at a frame boundary: idle client, keep waiting. A
            // timeout *mid-header* loses the partial bytes and the next
            // read desyncs to BadMagic — acceptable: that client was
            // torn mid-frame anyway, and only its connection dies.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            // Eof, desync, corruption, truncation: drop the connection.
            Err(_) => break,
        };
        match shared.decide_socket("service.read") {
            // A frame torn on the way in is indistinguishable from
            // corruption; a hung client holds its socket briefly and
            // then is cut loose. Either way only this connection dies.
            Some(SocketFault::TornFrame) | Some(SocketFault::Disconnect) => break,
            Some(SocketFault::HungClient) => {
                thread::sleep(Duration::from_millis(25));
                break;
            }
            Some(SocketFault::SlowReader) => thread::sleep(Duration::from_millis(5)),
            None => {}
        }
        match frame.kind {
            kind::SUBMIT => {
                let Some((src, options)) = decode_submit(&frame.payload) else {
                    break;
                };
                let request = Request {
                    conn: Arc::clone(&conn),
                    src,
                    options,
                };
                match shared.admit(request) {
                    Ok(queued) => shared.emit(Event::ServiceSubmit { client: id, queued }),
                    Err((queued, draining)) => {
                        shared.emit(Event::ServiceBusy { client: id, queued });
                        let mut w = Writer::new();
                        w.put_u32(queued as u32);
                        w.put_u32(shared.depth as u32);
                        w.put_u8(draining as u8);
                        conn.send(&shared, &Frame::new(kind::BUSY, w.into_vec()));
                    }
                }
            }
            kind::STATUS => {
                let s = shared.status();
                let mut w = Writer::new();
                w.put_u8(s.draining as u8);
                w.put_u32(s.queued);
                w.put_u32(s.in_flight);
                w.put_u64(s.accepted);
                w.put_u64(s.completed);
                w.put_u64(s.rejected);
                w.put_u32(s.depth);
                conn.send(&shared, &Frame::new(kind::STATUS, w.into_vec()));
            }
            kind::DRAIN => {
                shared.begin_drain();
                let mut state = shared.state.lock().unwrap();
                while state.admitted() > 0 && !shared.done.load(Ordering::SeqCst) {
                    state = shared.idle.wait_timeout(state, POLL).unwrap().0;
                }
                drop(state);
                let mut w = Writer::new();
                w.put_u64(shared.completed.load(Ordering::SeqCst));
                conn.send(&shared, &Frame::new(kind::DRAIN, w.into_vec()));
            }
            // Anything else is a protocol violation from this client.
            _ => break,
        }
    }
    shared.emit(Event::ServiceDisconnect { client: id });
}

// ---------------------------------------------------------------------------
// Termination signals
// ---------------------------------------------------------------------------

static TERMINATED: AtomicBool = AtomicBool::new(false);

extern "C" fn note_termination(_signum: i32) {
    // Only an async-signal-safe atomic store; Service::run polls it.
    TERMINATED.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that request a graceful drain. The
/// binaries call this before [`Service::run`]; the library never
/// installs signal handlers behind a host application's back.
pub fn install_termination_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, note_termination);
        signal(SIGINT, note_termination);
    }
}

/// Has a SIGTERM/SIGINT arrived since the handler was installed?
pub fn termination_requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_conn(id: u64) -> Arc<Conn> {
        let (_a, b) = UnixStream::pair().unwrap();
        Arc::new(Conn {
            id,
            writer: Mutex::new(b),
            gone: AtomicBool::new(false),
        })
    }

    fn test_request(conn: &Arc<Conn>, src: &str) -> Request {
        Request {
            conn: Arc::clone(conn),
            src: src.to_owned(),
            options: SubmitOptions::default(),
        }
    }

    #[test]
    fn submit_payload_roundtrips() {
        let options = SubmitOptions {
            output: OutputMode::JsonTiming,
            stream_obs: true,
            stable_obs: false,
            deadline: Some(Duration::from_millis(750)),
        };
        let payload = encode_submit("class C {}", &options);
        let (src, decoded) = decode_submit(&payload).unwrap();
        assert_eq!(src, "class C {}");
        assert_eq!(decoded.output, OutputMode::JsonTiming);
        assert!(decoded.stream_obs);
        assert!(!decoded.stable_obs);
        assert_eq!(decoded.deadline, Some(Duration::from_millis(750)));

        // No deadline encodes as 0 and decodes back to None.
        let (_, decoded) = decode_submit(&encode_submit("x", &SubmitOptions::default())).unwrap();
        assert_eq!(decoded.deadline, None);
        assert_eq!(decoded.output, OutputMode::Human);

        // Junk is a decode failure, not a panic or a guess.
        assert!(decode_submit(&[]).is_none());
        assert!(decode_submit(&[0, 9, 0, 0]).is_none());
    }

    #[test]
    fn output_mode_wire_roundtrips() {
        for mode in [OutputMode::Human, OutputMode::Json, OutputMode::JsonTiming] {
            assert_eq!(output_from_wire(output_to_wire(mode)), Some(mode));
        }
        assert_eq!(output_from_wire(3), None);
    }

    #[test]
    fn round_robin_interleaves_client_lanes() {
        let a = test_conn(1);
        let b = test_conn(2);
        let mut state = QueueState::default();
        state.push(test_request(&a, "a1"));
        state.push(test_request(&a, "a2"));
        state.push(test_request(&a, "a3"));
        state.push(test_request(&b, "b1"));
        state.push(test_request(&b, "b2"));
        let mut order = Vec::new();
        while let Some(request) = state.pop_round_robin() {
            order.push(request.src);
        }
        // Client b's late submissions are not starved behind a's burst.
        assert_eq!(order, ["a1", "b1", "a2", "b2", "a3"]);
        assert_eq!(state.queued, 0);
        assert!(state.lanes.is_empty());
    }

    #[test]
    fn admission_sheds_above_depth_and_while_draining() {
        let shared = Shared {
            depth: 2,
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            done: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_client: AtomicU64::new(0),
            sink: None,
            plan: None,
        };
        let conn = test_conn(7);
        assert_eq!(shared.admit(test_request(&conn, "1")), Ok(1));
        assert_eq!(shared.admit(test_request(&conn, "2")), Ok(2));
        // Full: the typed refusal carries the admitted count.
        assert_eq!(shared.admit(test_request(&conn, "3")), Err((2, false)));
        assert_eq!(shared.rejected.load(Ordering::SeqCst), 1);
        // Draining refuses even with room.
        shared.next_request().unwrap();
        shared.finish_request();
        shared.begin_drain();
        assert_eq!(shared.admit(test_request(&conn, "4")), Err((1, true)));
        // What was admitted before the drain still comes out.
        assert_eq!(shared.next_request().unwrap().src, "2");
        shared.finish_request();
        assert!(shared.next_request().is_none());
    }
}
