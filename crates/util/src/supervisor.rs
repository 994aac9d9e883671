//! Out-of-process worker supervision: hard preemption, crash-loop
//! quarantine, and graceful degradation.
//!
//! A [`Supervisor`] owns a set of *lanes*, each backed by at most one
//! child worker process (a re-exec of the current binary in worker mode).
//! Requests go over the [`crate::ipc`] frame protocol on the child's
//! stdin/stdout; the parent enforces what the in-process budgets cannot:
//!
//! * **Hard wall-clock deadlines.** A worker wedged in a loop that never
//!   polls its fuel is SIGKILLed when the request deadline expires —
//!   [`Outcome::TimedOut`] — instead of stalling the run. Heartbeat
//!   frames from the worker let the parent distinguish "slow but alive"
//!   (suspect, reported once) from "about to be killed".
//! * **Memory ceilings.** Children apply `setrlimit(RLIMIT_AS)` (see
//!   [`apply_memory_limit`]) so a ballooning prover aborts in its own
//!   process; the parent maps the abort to [`Outcome::Crashed`] with
//!   `oom: true`.
//! * **Crash-loop quarantine.** `crash_threshold` failures inside
//!   `crash_window` quarantine the lane: no more children are spawned
//!   for it and every later request returns [`Outcome::Unavailable`], so
//!   the caller degrades to its in-process path. Verdicts never change —
//!   only the isolation weakens.
//!
//! Deadline kills are deliberately **not** crash-window entries: a hang
//! is attributed to the obligation (it becomes a `Timeout` failure),
//! while crashes are attributed to the lane. This keeps a plan that
//! injects hangs from ever tripping quarantine, which in turn keeps the
//! observable stream of a seeded hung-child run deterministic.
//!
//! The state machine per lane:
//!
//! ```text
//! spawn → healthy → suspect (late heartbeat) → killed (deadline)
//!            │
//!            └─ crashed ×K within window → quarantined → fallback
//! ```
//!
//! The supervisor knows nothing about provers or formulas — payloads are
//! opaque bytes; `jahob-core` layers the prover request/reply codec on
//! top.

use crate::counters::Stats;
use crate::ipc::{self, Frame, FrameError};
use crate::obs::{Event, Sink};
use std::collections::{BTreeSet, VecDeque};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable carrying the child's `RLIMIT_AS` ceiling (bytes).
pub const ENV_WORKER_MEM: &str = "JAHOB_WORKER_MEM";
/// Environment variable carrying the child's heartbeat interval (ms).
pub const ENV_WORKER_BEAT_MS: &str = "JAHOB_WORKER_BEAT_MS";

/// How to spawn and police worker children.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The worker executable (typically the current binary).
    pub program: PathBuf,
    /// Arguments selecting worker mode (e.g. `["worker"]`).
    pub args: Vec<String>,
    /// `RLIMIT_AS` ceiling for each child, in bytes. `None` leaves the
    /// address space unlimited (glibc arenas make a tight default
    /// hazardous; callers opt in).
    pub memory_limit: Option<u64>,
    /// Worker heartbeat interval while an attempt runs.
    pub heartbeat_interval: Duration,
    /// Silent heartbeat intervals tolerated before the lane is reported
    /// suspect (the hard deadline applies regardless).
    pub heartbeat_grace: u32,
    /// How long a fresh child gets to send its HELLO banner.
    pub hello_timeout: Duration,
    /// Crashes inside `crash_window` that quarantine the lane.
    pub crash_threshold: u32,
    /// Sliding window for crash-loop detection.
    pub crash_window: Duration,
    /// Frame-size cap for child replies.
    pub max_frame: u32,
}

impl SupervisorConfig {
    /// Sensible defaults for `program` in worker mode via a `worker`
    /// argument.
    pub fn new(program: impl Into<PathBuf>) -> SupervisorConfig {
        SupervisorConfig {
            program: program.into(),
            args: vec!["worker".to_owned()],
            memory_limit: None,
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_grace: 3,
            hello_timeout: Duration::from_secs(10),
            crash_threshold: 3,
            crash_window: Duration::from_secs(30),
            max_frame: ipc::DEFAULT_MAX_FRAME,
        }
    }
}

/// Result of one supervised request.
#[derive(Debug)]
pub enum Outcome {
    /// The worker replied inside the deadline.
    Reply(Vec<u8>),
    /// The deadline expired; the child was SIGKILLed and reaped. Not a
    /// crash-window entry — the hang belongs to the request, not the lane.
    TimedOut,
    /// The child died or broke protocol mid-request (counts toward
    /// quarantine). `oom` is set when the death looks like the memory
    /// ceiling: the caller must *not* retry in-process, where the same
    /// allocation would take the parent down.
    Crashed { oom: bool, detail: String },
    /// The lane is quarantined; nothing was attempted.
    Unavailable,
}

/// What the reader thread forwards from the child's stdout.
enum Incoming {
    Frame(Frame),
    Corrupt(FrameError),
    Eof,
}

struct LiveChild {
    child: Child,
    stdin: ChildStdin,
    incoming: Receiver<Incoming>,
    stderr_tail: Arc<Mutex<String>>,
}

#[derive(Default)]
struct LaneState {
    child: Option<LiveChild>,
    crashes: VecDeque<Instant>,
    quarantined: bool,
    ever_spawned: bool,
}

/// A pool of supervised worker lanes. One child per lane; requests to
/// the same lane serialize, distinct lanes run concurrently.
pub struct Supervisor {
    config: SupervisorConfig,
    lanes: Mutex<std::collections::BTreeMap<String, Arc<Mutex<LaneState>>>>,
    /// Lane-scoped counters (`supervisor.*`). These are *unstable* run
    /// stats: spawn timing races across pool workers, so the counts are
    /// reported but excluded from deterministic report sections.
    stats: Stats,
    /// Optional direct sink for lane-scoped events (spawn / restart /
    /// quarantine / late heartbeat). Attempt-scoped events (kill, crash,
    /// fallback) are the *caller's* to record, through its deterministic
    /// per-attempt recorder.
    sink: Option<Arc<dyn Sink>>,
}

impl Supervisor {
    pub fn new(config: SupervisorConfig, sink: Option<Arc<dyn Sink>>) -> Supervisor {
        Supervisor {
            config,
            lanes: Mutex::new(Default::default()),
            stats: Stats::new(),
            sink,
        }
    }

    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Snapshot of the supervisor's own counters.
    pub fn stats_snapshot(&self) -> Vec<(String, u64)> {
        self.stats.snapshot()
    }

    /// Lanes currently quarantined, sorted.
    pub fn quarantined_lanes(&self) -> Vec<String> {
        let lanes = self.lanes.lock().unwrap();
        let mut out = BTreeSet::new();
        for (name, lane) in lanes.iter() {
            if lane.lock().unwrap().quarantined {
                out.insert(name.clone());
            }
        }
        out.into_iter().collect()
    }

    /// True when `lane` is quarantined (callers use this to skip the
    /// request path entirely and fall back silently).
    pub fn is_quarantined(&self, lane: &str) -> bool {
        let handle = {
            let lanes = self.lanes.lock().unwrap();
            match lanes.get(lane) {
                Some(l) => Arc::clone(l),
                None => return false,
            }
        };
        let q = handle.lock().unwrap().quarantined;
        q
    }

    fn emit(&self, event: Event) {
        event.stat_increments(|name, delta| self.stats.add(name, delta));
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    fn lane(&self, name: &str) -> Arc<Mutex<LaneState>> {
        let mut lanes = self.lanes.lock().unwrap();
        Arc::clone(lanes.entry(name.to_owned()).or_default())
    }

    /// Send `payload` to `lane`'s worker and wait for its reply, policing
    /// the heartbeat and the hard `deadline`. Spawns (or respawns) the
    /// child on demand.
    pub fn request(&self, lane: &str, payload: &[u8], deadline: Duration) -> Outcome {
        let handle = self.lane(lane);
        let mut state = handle.lock().unwrap();
        if state.quarantined {
            return Outcome::Unavailable;
        }
        if state.child.is_none() {
            match self.spawn(state.ever_spawned) {
                Ok(live) => {
                    self.emit(if state.ever_spawned {
                        Event::SupervisorRestart {
                            lane: lane.to_owned(),
                        }
                    } else {
                        Event::SupervisorSpawn {
                            lane: lane.to_owned(),
                        }
                    });
                    state.ever_spawned = true;
                    state.child = Some(live);
                }
                Err(detail) => {
                    self.record_crash(&mut state, lane);
                    return Outcome::Crashed { oom: false, detail };
                }
            }
        }
        let mut live = state.child.take().expect("child ensured above");
        if let Err(e) = ipc::write_frame(
            &mut live.stdin,
            &Frame::new(ipc::kind::REQUEST, payload.to_vec()),
        ) {
            let (oom, detail) = reap(live, self.config.memory_limit.is_some());
            self.record_crash(&mut state, lane);
            return Outcome::Crashed {
                oom,
                detail: format!("request write failed: {e}; {detail}"),
            };
        }
        let hard_deadline = Instant::now() + deadline;
        let beat = self.config.heartbeat_interval.max(Duration::from_millis(1));
        let suspect_after = beat * (self.config.heartbeat_grace + 1);
        let mut last_beat = Instant::now();
        let mut suspected = false;
        loop {
            let now = Instant::now();
            if now >= hard_deadline {
                // Hard preemption: SIGKILL, reap, report a timeout. The
                // kill is not a crash-window entry (see module docs).
                let _ = live.child.kill();
                let _ = live.child.wait();
                return Outcome::TimedOut;
            }
            let wait = (hard_deadline - now).min(beat);
            match live.incoming.recv_timeout(wait) {
                Ok(Incoming::Frame(frame)) => match frame.kind {
                    ipc::kind::HEARTBEAT => {
                        last_beat = Instant::now();
                        suspected = false;
                    }
                    ipc::kind::REPLY => {
                        state.child = Some(live);
                        return Outcome::Reply(frame.payload);
                    }
                    other => {
                        let (oom, detail) = reap(live, self.config.memory_limit.is_some());
                        self.record_crash(&mut state, lane);
                        return Outcome::Crashed {
                            oom,
                            detail: format!("unexpected frame kind {other}; {detail}"),
                        };
                    }
                },
                Ok(Incoming::Corrupt(err)) => {
                    let (oom, detail) = reap(live, self.config.memory_limit.is_some());
                    self.record_crash(&mut state, lane);
                    return Outcome::Crashed {
                        oom,
                        detail: format!("corrupt frame: {err}; {detail}"),
                    };
                }
                Ok(Incoming::Eof) => {
                    let (oom, detail) = reap(live, self.config.memory_limit.is_some());
                    self.record_crash(&mut state, lane);
                    return Outcome::Crashed { oom, detail };
                }
                Err(RecvTimeoutError::Timeout) => {
                    if !suspected && last_beat.elapsed() > suspect_after {
                        suspected = true;
                        self.emit(Event::SupervisorHeartbeat {
                            lane: lane.to_owned(),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Reader thread died without an Eof marker; treat as
                    // a crash.
                    let (oom, detail) = reap(live, self.config.memory_limit.is_some());
                    self.record_crash(&mut state, lane);
                    return Outcome::Crashed { oom, detail };
                }
            }
        }
    }

    fn spawn(&self, _restart: bool) -> Result<LiveChild, String> {
        let mut cmd = Command::new(&self.config.program);
        cmd.args(&self.config.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            // A worker must never decide to spawn workers of its own.
            .env_remove("JAHOB_ISOLATION")
            .env(
                ENV_WORKER_BEAT_MS,
                self.config.heartbeat_interval.as_millis().to_string(),
            );
        match self.config.memory_limit {
            Some(bytes) => cmd.env(ENV_WORKER_MEM, bytes.to_string()),
            None => cmd.env_remove(ENV_WORKER_MEM),
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn `{}` failed: {e}", self.config.program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");

        let stderr_tail = Arc::new(Mutex::new(String::new()));
        {
            let tail = Arc::clone(&stderr_tail);
            std::thread::spawn(move || {
                let mut stderr = stderr;
                let mut buf = [0u8; 1024];
                while let Ok(n) = stderr.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    let mut tail = tail.lock().unwrap();
                    tail.push_str(&String::from_utf8_lossy(&buf[..n]));
                    // Keep a bounded tail; the interesting line (an abort
                    // banner) is always the last one.
                    if tail.len() > 4096 {
                        let cut = tail.len() - 4096;
                        let boundary = (cut..tail.len())
                            .find(|&i| tail.is_char_boundary(i))
                            .unwrap_or(tail.len());
                        tail.drain(..boundary);
                    }
                }
            });
        }

        let (tx, rx) = mpsc::channel();
        let max_frame = self.config.max_frame;
        std::thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                match ipc::read_frame(&mut stdout, max_frame) {
                    Ok(frame) => {
                        if tx.send(Incoming::Frame(frame)).is_err() {
                            break;
                        }
                    }
                    Err(FrameError::Eof) => {
                        let _ = tx.send(Incoming::Eof);
                        break;
                    }
                    Err(err) => {
                        let _ = tx.send(Incoming::Corrupt(err));
                        break;
                    }
                }
            }
        });

        let mut live = LiveChild {
            child,
            stdin,
            incoming: rx,
            stderr_tail,
        };
        // Handshake: the child announces readiness before the lane is
        // considered healthy.
        match live.incoming.recv_timeout(self.config.hello_timeout) {
            Ok(Incoming::Frame(f)) if f.kind == ipc::kind::HELLO => Ok(live),
            other => {
                let _ = live.child.kill();
                let (_, detail) = reap(live, false);
                let why = match other {
                    Ok(Incoming::Frame(f)) => format!("expected HELLO, got kind {}", f.kind),
                    Ok(Incoming::Corrupt(e)) => format!("corrupt HELLO: {e}"),
                    Ok(Incoming::Eof) => "exited before HELLO".to_owned(),
                    Err(_) => "no HELLO inside the handshake timeout".to_owned(),
                };
                Err(format!("{why}; {detail}"))
            }
        }
    }

    fn record_crash(&self, state: &mut LaneState, lane: &str) {
        let now = Instant::now();
        while let Some(&front) = state.crashes.front() {
            if now.duration_since(front) > self.config.crash_window {
                state.crashes.pop_front();
            } else {
                break;
            }
        }
        state.crashes.push_back(now);
        if !state.quarantined
            && self.config.crash_threshold > 0
            && state.crashes.len() >= self.config.crash_threshold as usize
        {
            state.quarantined = true;
            self.emit(Event::SupervisorQuarantined {
                lane: lane.to_owned(),
                crashes: state.crashes.len() as u64,
            });
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        let lanes = std::mem::take(&mut *self.lanes.lock().unwrap());
        for (_, lane) in lanes {
            if let Some(mut live) = lane.lock().unwrap().child.take() {
                // Workers are stateless; a kill loses nothing.
                let _ = live.child.kill();
                let _ = live.child.wait();
            }
        }
    }
}

/// Wait on a dead (or dying) child and classify the death. Returns
/// `(looks_like_oom, human detail)`.
fn reap(mut live: LiveChild, memory_limited: bool) -> (bool, String) {
    // Make death certain before waiting: a child classified as crashed
    // may be perfectly alive — a protocol breaker (say, one garbled
    // frame) goes straight back to listening on stdin, and waiting on it
    // while we still hold the write end would block forever. Kill is
    // harmless on a child that already died: the signal lands on a
    // zombie and `wait` still reports the original exit status, so OOM
    // classification below is undisturbed.
    drop(live.stdin);
    let _ = live.child.kill();
    let status = live.child.wait();
    let tail = live.stderr_tail.lock().unwrap().clone();
    // Rust's allocator aborts with this banner when `RLIMIT_AS` denies an
    // allocation; a SIGABRT under an active ceiling is the same story
    // even if stderr was lost.
    let oom_banner = tail.contains("memory allocation") && tail.contains("failed");
    let mut signal_abort = false;
    let status_text = match &status {
        Ok(st) => {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                if let Some(sig) = st.signal() {
                    signal_abort = sig == 6;
                }
            }
            format!("{st}")
        }
        Err(e) => format!("wait failed: {e}"),
    };
    let oom = oom_banner || (memory_limited && signal_abort);
    let detail = if tail.trim().is_empty() {
        format!("worker exited ({status_text})")
    } else {
        format!(
            "worker exited ({status_text}); stderr tail: {}",
            tail.trim()
                .chars()
                .rev()
                .take(200)
                .collect::<String>()
                .chars()
                .rev()
                .collect::<String>()
        )
    };
    (oom, detail)
}

/// Apply `setrlimit(RLIMIT_AS, bytes)` to the current process. Worker
/// children call this on start-up with [`ENV_WORKER_MEM`]. A no-op on
/// non-Linux targets (the supervisor still enforces deadlines there).
#[cfg(target_os = "linux")]
pub fn apply_memory_limit(bytes: u64) -> std::io::Result<()> {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let lim = Rlimit {
        cur: bytes,
        max: bytes,
    };
    // SAFETY: `lim` is a valid, initialized rlimit for the duration of
    // the call; `setrlimit` reads it and touches nothing else.
    if unsafe { setrlimit(RLIMIT_AS, &lim) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
pub fn apply_memory_limit(_bytes: u64) -> std::io::Result<()> {
    Ok(())
}

/// Shared handle the worker's request handler uses to steer heartbeats
/// (the chaos harness suppresses them to simulate a slow child).
#[derive(Clone)]
pub struct HeartbeatControl {
    suppressed: Arc<AtomicBool>,
}

impl HeartbeatControl {
    pub fn suppress(&self, on: bool) {
        self.suppressed.store(on, Ordering::Relaxed);
    }
}

/// A handler's answer: the reply payload, optionally written with a
/// deliberately bad checksum (chaos: garbled frame).
pub struct WorkerReply {
    pub payload: Vec<u8>,
    pub corrupt: bool,
}

/// Worker-mode options, resolved from the environment the supervisor
/// set at spawn time. Also applies [`ENV_WORKER_MEM`] via
/// [`apply_memory_limit`].
pub struct WorkerOptions {
    pub heartbeat_interval: Duration,
    pub max_frame: u32,
}

impl WorkerOptions {
    pub fn from_env() -> WorkerOptions {
        if let Some(bytes) = std::env::var(ENV_WORKER_MEM)
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
        {
            // Best-effort: a failed rlimit weakens isolation, it does not
            // block the worker.
            let _ = apply_memory_limit(bytes);
        }
        let millis = std::env::var(ENV_WORKER_BEAT_MS)
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .unwrap_or(50)
            .max(1);
        WorkerOptions {
            heartbeat_interval: Duration::from_millis(millis),
            max_frame: ipc::DEFAULT_MAX_FRAME,
        }
    }
}

/// Run the worker side of the protocol on this process's stdin/stdout:
/// HELLO, then a request loop beating heartbeats while the handler runs.
/// Returns when the parent closes stdin (clean shutdown).
pub fn serve(
    opts: WorkerOptions,
    mut handler: impl FnMut(&HeartbeatControl, &[u8]) -> WorkerReply,
) -> std::io::Result<()> {
    let stdout: Arc<Mutex<std::io::Stdout>> = Arc::new(Mutex::new(std::io::stdout()));
    let busy = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let control = HeartbeatControl {
        suppressed: Arc::new(AtomicBool::new(false)),
    };
    {
        let stdout = Arc::clone(&stdout);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        let suppressed = Arc::clone(&control.suppressed);
        let interval = opts.heartbeat_interval;
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if busy.load(Ordering::Relaxed) && !suppressed.load(Ordering::Relaxed) {
                let mut out = stdout.lock().unwrap();
                if ipc::write_frame(&mut *out, &Frame::new(ipc::kind::HEARTBEAT, Vec::new()))
                    .is_err()
                {
                    break;
                }
            }
        });
    }
    {
        let mut out = stdout.lock().unwrap();
        ipc::write_frame(&mut *out, &Frame::new(ipc::kind::HELLO, Vec::new()))?;
    }
    let mut stdin = std::io::stdin();
    let result = loop {
        match ipc::read_frame(&mut stdin, opts.max_frame) {
            Ok(frame) if frame.kind == ipc::kind::REQUEST => {
                busy.store(true, Ordering::Relaxed);
                let reply = handler(&control, &frame.payload);
                busy.store(false, Ordering::Relaxed);
                control.suppressed.store(false, Ordering::Relaxed);
                let mut out = stdout.lock().unwrap();
                let frame = Frame::new(ipc::kind::REPLY, reply.payload);
                let write = if reply.corrupt {
                    ipc::write_corrupt_frame(&mut *out, &frame)
                } else {
                    ipc::write_frame(&mut *out, &frame)
                };
                if let Err(e) = write {
                    break Err(e);
                }
            }
            Ok(frame) => {
                break Err(std::io::Error::other(format!(
                    "unexpected frame kind {} from parent",
                    frame.kind
                )))
            }
            Err(FrameError::Eof) => break Ok(()),
            Err(FrameError::Io(e)) => break Err(e),
            Err(e) => break Err(std::io::Error::other(format!("bad frame from parent: {e}"))),
        }
    };
    stop.store(true, Ordering::Relaxed);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(program: &str, args: &[&str]) -> SupervisorConfig {
        SupervisorConfig {
            program: PathBuf::from(program),
            args: args.iter().map(|s| (*s).to_owned()).collect(),
            memory_limit: None,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_grace: 2,
            hello_timeout: Duration::from_millis(750),
            crash_threshold: 3,
            crash_window: Duration::from_secs(30),
            max_frame: ipc::DEFAULT_MAX_FRAME,
        }
    }

    /// A printf-able escape string for one protocol frame.
    #[cfg(unix)]
    fn frame_escapes(kind: u8, payload: &[u8]) -> String {
        let mut wire = Vec::new();
        ipc::write_frame(&mut wire, &Frame::new(kind, payload.to_vec())).unwrap();
        wire.iter().map(|b| format!("\\{b:03o}")).collect()
    }

    #[cfg(unix)]
    #[test]
    fn reply_roundtrip_through_a_shell_worker() {
        // A worker that speaks just enough protocol: HELLO, then one
        // canned REPLY, then blocks on (ignored) stdin.
        let script = format!(
            "printf '{}{}'; cat > /dev/null",
            frame_escapes(ipc::kind::HELLO, b""),
            frame_escapes(ipc::kind::REPLY, b"pong"),
        );
        let sup = Supervisor::new(test_config("sh", &["-c", &script]), None);
        match sup.request("lane", b"ping", Duration::from_secs(5)) {
            Outcome::Reply(payload) => assert_eq!(payload, b"pong"),
            other => panic!("expected a reply, got {other:?}"),
        }
        assert_eq!(sup.stats.get("supervisor.spawn"), 1);
        assert!(sup.quarantined_lanes().is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn hung_child_is_killed_at_the_deadline() {
        // HELLO then silence: the hard deadline must SIGKILL it.
        let script = format!(
            "printf '{}'; sleep 600",
            frame_escapes(ipc::kind::HELLO, b""),
        );
        let sup = Supervisor::new(test_config("sh", &["-c", &script]), None);
        let started = Instant::now();
        match sup.request("lane", b"ping", Duration::from_millis(300)) {
            Outcome::TimedOut => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "kill must not wait for the child's sleep"
        );
        // Deadline kills never count toward quarantine.
        assert!(sup.quarantined_lanes().is_empty());
        assert_eq!(sup.lane("lane").lock().unwrap().crashes.len(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn garbage_output_is_a_crash() {
        let sup = Supervisor::new(
            test_config("sh", &["-c", "echo this is not a frame; sleep 600"]),
            None,
        );
        match sup.request("lane", b"ping", Duration::from_secs(5)) {
            Outcome::Crashed { oom: false, .. } => {}
            other => panic!("expected a crash, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn crash_loop_quarantines_after_threshold() {
        // `true` exits immediately: every request is a crash (no HELLO).
        let sup = Supervisor::new(test_config("true", &[]), None);
        for round in 0..3 {
            match sup.request("lane", b"ping", Duration::from_secs(5)) {
                Outcome::Crashed { .. } => {}
                other => panic!("round {round}: expected a crash, got {other:?}"),
            }
        }
        assert_eq!(sup.quarantined_lanes(), vec!["lane".to_owned()]);
        assert_eq!(sup.stats.get("supervisor.quarantined"), 1);
        // Quarantined lanes refuse work without spawning anything.
        match sup.request("lane", b"ping", Duration::from_secs(5)) {
            Outcome::Unavailable => {}
            other => panic!("expected unavailable, got {other:?}"),
        }
        // Other lanes are unaffected by the quarantine.
        assert!(!sup.is_quarantined("other"));
    }

    #[test]
    fn missing_program_is_a_crash_not_a_panic() {
        let sup = Supervisor::new(test_config("/nonexistent/jahob-worker-binary", &[]), None);
        match sup.request("lane", b"ping", Duration::from_secs(5)) {
            Outcome::Crashed { oom: false, detail } => {
                assert!(detail.contains("spawn"), "{detail}")
            }
            other => panic!("expected a crash, got {other:?}"),
        }
    }
}
