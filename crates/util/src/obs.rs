//! Structured observability: a typed, thread-safe event pipeline for the
//! verification hot path.
//!
//! The portfolio dispatcher used to narrate itself through scattered
//! `eprintln!`s gated on `JAHOB_TRACE`. That tells a human *something*,
//! but nothing can consume it: no per-prover timing, no fuel accounting,
//! no way to diff two runs. This module replaces those sites with typed
//! [`Event`]s emitted through a pluggable [`Sink`].
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** A [`Recorder`] is an `Option<Arc<..>>`;
//!    the disabled check is a single pointer test (cheaper than the one
//!    relaxed atomic load `trace_enabled()` pays) and event payloads are
//!    built inside a closure that never runs when disabled.
//! 2. **Deterministic streams.** The verification pipeline buffers events
//!    per method and assembles them in submission order — (method index,
//!    obligation index, attempt) — so the stream is bit-for-bit identical
//!    at any worker count. The one schedule-dependent signal, *which*
//!    worker physically computed a shared cache entry first, is rewritten
//!    by [`canonicalize`] so hit/miss attribution follows stream order
//!    instead of wall-clock order.
//! 3. **No new dependencies.** Serialization is the hand-rolled writer in
//!    [`crate::json`].
//!
//! Two recording modes cover the two consumers:
//!
//! * [`Recorder::buffered`] accumulates events in memory; the pipeline
//!   drains per-method buffers and emits them in canonical order. This is
//!   the only mode with an ordering guarantee.
//! * [`Recorder::streaming`] forwards each event to a sink immediately —
//!   real-time narration for a standalone dispatcher under `JAHOB_TRACE`,
//!   at the price of scheduler-dependent interleaving across threads.

use crate::json::Obj;
use std::cell::RefCell;
use std::io::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// One observation. Variants mirror the span structure of a run:
/// `RunStart`/`RunEnd` bracket everything, `MethodStart`/`MethodEnd`
/// bracket one method, `ObligationStart`/`ObligationEnd` one proof
/// obligation, `PieceStart`/`PieceEnd` one conjunct piece; the remaining
/// variants are point events inside those spans.
///
/// Fields named `micros` — and `workers` on [`Event::RunStart`] — are
/// **unstable**: wall-clock measurements and machine configuration that
/// legitimately differ run to run. [`Event::to_json`] omits them unless
/// asked, so the deterministic serialization of a stream is
/// byte-comparable across runs *and across worker counts*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A verification run over a whole program begins.
    RunStart { methods: u64, workers: u64 },
    /// A verification run completed with this verdict tally.
    RunEnd {
        proved: u64,
        refuted: u64,
        unknown: u64,
        micros: u64,
    },
    /// Work on one method begins. `index` is the method's position in
    /// source order, which is also its position in the report.
    MethodStart { index: u64, name: String },
    /// Work on one method finished (`error` carries a pipeline failure —
    /// parse/VC-gen panic — when the method never reached the provers).
    MethodEnd {
        index: u64,
        error: Option<String>,
        micros: u64,
    },
    /// One proof obligation begins. `index` is its position within the
    /// method; `size` the node count of the formula.
    ObligationStart {
        index: u64,
        label: String,
        size: u64,
    },
    /// The obligation's final verdict, rendered as in the report.
    ObligationEnd {
        index: u64,
        verdict: String,
        micros: u64,
    },
    /// One conjunct piece of an obligation enters the portfolio.
    /// `fingerprint` is the 128-bit cache key when it was computed
    /// (cache enabled or observability on), `None` otherwise.
    PieceStart {
        fingerprint: Option<u128>,
        size: u64,
    },
    /// The piece left the portfolio with this verdict.
    PieceEnd { verdict: &'static str },
    /// Goal-cache consultation for a piece. On a hit, `saved_fuel` is the
    /// fuel the cached proof originally burned.
    CacheLookup {
        fingerprint: u128,
        hit: bool,
        saved_fuel: u64,
    },
    /// The watchdog failed to re-confirm a cached proof; entry evicted.
    CacheEvict { fingerprint: u128 },
    /// One governed prover attempt. `pass` is `first`, `retry`, or
    /// `confirm`; `outcome` is `proved`, `refuted`, `no-decision`, or a
    /// failure-taxonomy name; `fuel` is what the attempt burned.
    Attempt {
        prover: &'static str,
        pass: &'static str,
        outcome: String,
        fuel: u64,
        micros: u64,
    },
    /// A circuit breaker changed state (or skipped an attempt while open).
    Breaker {
        prover: &'static str,
        transition: &'static str,
    },
    /// First pass failed on governance; the retry pass got the remaining
    /// obligation budget (`fuel`).
    RetryEscalated { fuel: u64 },
    /// The escalated retry turned a governed failure into a verdict.
    RetryRecovered,
    /// The fault plan injected a fault at this boundary.
    ChaosInjected { site: String, fault: String },
    /// The seeded liar produced a wrong verdict that chaos suppressed.
    ChaosLied { prover: &'static str },
    /// Soundness watchdog activity: `checked`, `confirmed`,
    /// `unconfirmed`, or `disagreement`.
    Watchdog { outcome: &'static str },
    /// The persistent proof store was opened: `entries` records survived
    /// recovery across `segments` segments; `lock` is the advisory-lock
    /// outcome (`acquired`, `took-over-stale`, `read-only`).
    StoreOpen {
        entries: u64,
        segments: u64,
        lock: &'static str,
    },
    /// Surviving store records were replayed into the goal cache.
    StoreLoad { entries: u64 },
    /// A write-behind flush persisted `records` records as one new
    /// segment of `bytes` bytes.
    StoreFlush { records: u64, bytes: u64 },
    /// Recovery dropped torn/corrupt tail records, or reset the store
    /// outright (`reset` names why: digest change, format bump, missing
    /// manifest). Corruption degrades to a cold cache, so this event is
    /// diagnostic, never an error.
    StoreRecovered { dropped: u64, reset: Option<String> },
    /// Unreadable segments were quarantined to `*.corrupt` and skipped.
    StoreQuarantined { segments: u64 },
    /// Advisory-lock outcome on store open (`acquired`,
    /// `took-over-stale`, `read-only`).
    StoreLock { state: &'static str },
    /// A store IO operation (`open`, `flush`) failed; persistence
    /// degrades — the verification run itself is unaffected.
    StoreError { op: &'static str, error: String },
    /// The verification daemon bound its socket and began accepting.
    ServiceStart { socket: String },
    /// The daemon accepted a client connection.
    ServiceAccept { client: u64 },
    /// A request was admitted to the daemon's queue (`queued` is the
    /// queue depth after admission).
    ServiceSubmit { client: u64, queued: u64 },
    /// Admission refused — queue full or draining; the client got a
    /// BUSY reply, never a silent drop.
    ServiceBusy { client: u64, queued: u64 },
    /// An admitted request finished (`outcome` is `verified` or
    /// `error`). An accepted request always reaches this event, even if
    /// its client is gone by the time the verdict lands.
    ServiceDone { client: u64, outcome: &'static str },
    /// A client connection ended: clean EOF, an injected socket fault,
    /// or a protocol violation. Never affects admitted requests.
    ServiceDisconnect { client: u64 },
    /// Graceful drain began with `queued` admitted requests left to
    /// finish.
    ServiceDrain { queued: u64 },
    /// The JSONL sink hit a write/flush error: the stream past this
    /// point is incomplete. Emitted at most once per sink, best-effort
    /// onto the failing stream itself, and always echoed to stderr.
    SinkError { error: String },
    /// Free-form narration with no structured payload.
    Note { text: String },
}

impl Event {
    /// The `type` tag used in JSONL serialization.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run.start",
            Event::RunEnd { .. } => "run.end",
            Event::MethodStart { .. } => "method.start",
            Event::MethodEnd { .. } => "method.end",
            Event::ObligationStart { .. } => "obligation.start",
            Event::ObligationEnd { .. } => "obligation.end",
            Event::PieceStart { .. } => "piece.start",
            Event::PieceEnd { .. } => "piece.end",
            Event::CacheLookup { .. } => "cache.lookup",
            Event::CacheEvict { .. } => "cache.evict",
            Event::Attempt { .. } => "attempt",
            Event::Breaker { .. } => "breaker",
            Event::RetryEscalated { .. } => "retry.escalated",
            Event::RetryRecovered => "retry.recovered",
            Event::ChaosInjected { .. } => "chaos.injected",
            Event::ChaosLied { .. } => "chaos.lied",
            Event::Watchdog { .. } => "watchdog",
            Event::StoreOpen { .. } => "store.open",
            Event::StoreLoad { .. } => "store.load",
            Event::StoreFlush { .. } => "store.flush",
            Event::StoreRecovered { .. } => "store.recovered",
            Event::StoreQuarantined { .. } => "store.quarantined",
            Event::StoreLock { .. } => "store.lock",
            Event::StoreError { .. } => "store.error",
            Event::ServiceStart { .. } => "service.start",
            Event::ServiceAccept { .. } => "service.accept",
            Event::ServiceSubmit { .. } => "service.submit",
            Event::ServiceBusy { .. } => "service.busy",
            Event::ServiceDone { .. } => "service.done",
            Event::ServiceDisconnect { .. } => "service.disconnect",
            Event::ServiceDrain { .. } => "service.drain",
            Event::SinkError { .. } => "sink.error",
            Event::Note { .. } => "note",
        }
    }

    /// True for events whose *presence* in the stream depends on thread
    /// scheduling, not on the verification semantics: the daemon's
    /// `service.*` connection-lifecycle events, which go straight to the
    /// sink from the connection threads. Deterministic stream comparisons
    /// (goldens, worker-count identity) must filter these out, the same
    /// way `to_json(false)` strips wall-clock fields; everything else is
    /// ordered by the per-method recorder and is bit-stable.
    pub fn is_schedule_dependent(&self) -> bool {
        matches!(
            self,
            Event::ServiceStart { .. }
                | Event::ServiceAccept { .. }
                | Event::ServiceSubmit { .. }
                | Event::ServiceBusy { .. }
                | Event::ServiceDone { .. }
                | Event::ServiceDisconnect { .. }
                | Event::ServiceDrain { .. }
        )
    }

    /// Serialize as one JSON object (one JSONL line, without the newline).
    ///
    /// With `include_unstable = false`, wall-clock fields (`micros`) are
    /// omitted entirely, making the serialization of a deterministic
    /// stream byte-comparable across runs and worker counts.
    pub fn to_json(&self, include_unstable: bool) -> String {
        let o = Obj::new().str("type", self.kind());
        let o = match self {
            Event::RunStart { methods, workers } => {
                let o = o.u64("methods", *methods);
                if include_unstable {
                    o.u64("workers", *workers)
                } else {
                    o
                }
            }
            Event::RunEnd {
                proved,
                refuted,
                unknown,
                micros,
            } => {
                let o = o
                    .u64("proved", *proved)
                    .u64("refuted", *refuted)
                    .u64("unknown", *unknown);
                if include_unstable {
                    o.u64("micros", *micros)
                } else {
                    o
                }
            }
            Event::MethodStart { index, name } => o.u64("index", *index).str("name", name),
            Event::MethodEnd {
                index,
                error,
                micros,
            } => {
                let o = o.u64("index", *index).opt_str("error", error.as_deref());
                if include_unstable {
                    o.u64("micros", *micros)
                } else {
                    o
                }
            }
            Event::ObligationStart { index, label, size } => o
                .u64("index", *index)
                .str("label", label)
                .u64("size", *size),
            Event::ObligationEnd {
                index,
                verdict,
                micros,
            } => {
                let o = o.u64("index", *index).str("verdict", verdict);
                if include_unstable {
                    o.u64("micros", *micros)
                } else {
                    o
                }
            }
            Event::PieceStart { fingerprint, size } => {
                let o = match fingerprint {
                    Some(fp) => o.u128("fingerprint", *fp),
                    None => o.raw("fingerprint", "null"),
                };
                o.u64("size", *size)
            }
            Event::PieceEnd { verdict } => o.str("verdict", verdict),
            Event::CacheLookup {
                fingerprint,
                hit,
                saved_fuel,
            } => o
                .u128("fingerprint", *fingerprint)
                .bool("hit", *hit)
                .u64("saved_fuel", *saved_fuel),
            Event::CacheEvict { fingerprint } => o.u128("fingerprint", *fingerprint),
            Event::Attempt {
                prover,
                pass,
                outcome,
                fuel,
                micros,
            } => {
                let o = o
                    .str("prover", prover)
                    .str("pass", pass)
                    .str("outcome", outcome)
                    .u64("fuel", *fuel);
                if include_unstable {
                    o.u64("micros", *micros)
                } else {
                    o
                }
            }
            Event::Breaker { prover, transition } => {
                o.str("prover", prover).str("transition", transition)
            }
            Event::RetryEscalated { fuel } => o.u64("fuel", *fuel),
            Event::RetryRecovered => o,
            Event::ChaosInjected { site, fault } => o.str("site", site).str("fault", fault),
            Event::ChaosLied { prover } => o.str("prover", prover),
            Event::Watchdog { outcome } => o.str("outcome", outcome),
            Event::StoreOpen {
                entries,
                segments,
                lock,
            } => o
                .u64("entries", *entries)
                .u64("segments", *segments)
                .str("lock", lock),
            Event::StoreLoad { entries } => o.u64("entries", *entries),
            Event::StoreFlush { records, bytes } => o.u64("records", *records).u64("bytes", *bytes),
            Event::StoreRecovered { dropped, reset } => o
                .u64("dropped", *dropped)
                .opt_str("reset", reset.as_deref()),
            Event::StoreQuarantined { segments } => o.u64("segments", *segments),
            Event::StoreLock { state } => o.str("state", state),
            Event::StoreError { op, error } => o.str("op", op).str("error", error),
            Event::ServiceStart { socket } => o.str("socket", socket),
            Event::ServiceAccept { client } => o.u64("client", *client),
            Event::ServiceSubmit { client, queued } => {
                o.u64("client", *client).u64("queued", *queued)
            }
            Event::ServiceBusy { client, queued } => {
                o.u64("client", *client).u64("queued", *queued)
            }
            Event::ServiceDone { client, outcome } => {
                o.u64("client", *client).str("outcome", outcome)
            }
            Event::ServiceDisconnect { client } => o.u64("client", *client),
            Event::ServiceDrain { queued } => o.u64("queued", *queued),
            Event::SinkError { error } => o.str("error", error),
            Event::Note { text } => o.str("text", text),
        };
        o.finish()
    }

    /// The stats-counter increments this event implies, reported through
    /// `bump(name, delta)`. This is the *single* mapping between the event
    /// taxonomy and the legacy `group.key` counter names: the dispatcher
    /// derives its counters from the events it emits through this method,
    /// so the event stream and the stats table cannot drift apart, and
    /// [`event_tallies`] rebuilds the same counters from a captured stream
    /// for agreement checks.
    ///
    /// Events with no counter (span starts/ends, notes) report nothing.
    /// `ChaosInjected` only counts for dispatcher-level sites
    /// (`dispatch.*`): faults injected at prover-crate boundaries surface
    /// as the failure the fault provokes, exactly as before observability.
    pub fn stat_increments(&self, mut bump: impl FnMut(&str, u64)) {
        match self {
            Event::CacheLookup {
                hit: true,
                saved_fuel,
                ..
            } => {
                bump("cache.hit", 1);
                bump("cache.saved.fuel", *saved_fuel);
            }
            Event::CacheLookup { hit: false, .. } => bump("cache.miss", 1),
            Event::CacheEvict { .. } => bump("cache.evicted", 1),
            Event::Breaker { prover, transition } => {
                bump(&format!("breaker.{prover}.{transition}"), 1)
            }
            Event::RetryEscalated { .. } => bump("retry.escalated", 1),
            Event::RetryRecovered => bump("retry.recovered", 1),
            Event::ChaosInjected { site, fault } if site.starts_with("dispatch.") => {
                bump(&format!("chaos.injected.{fault}"), 1);
            }
            Event::ChaosLied { prover } => bump(&format!("chaos.lied.{prover}"), 1),
            Event::Watchdog { outcome } => bump(&format!("watchdog.{outcome}"), 1),
            // Store counters carry a `store.` prefix on purpose: the
            // verify pipeline marks that whole group unstable, since the
            // counts depend on what was on disk before the run.
            Event::StoreOpen { .. } => bump("store.open", 1),
            Event::StoreLoad { entries } => {
                bump("store.load", 1);
                bump("store.load.entries", *entries);
            }
            Event::StoreFlush { records, bytes } => {
                bump("store.flush", 1);
                bump("store.flush.records", *records);
                bump("store.flush.bytes", *bytes);
            }
            Event::StoreRecovered { dropped, .. } => {
                bump("store.recovered", 1);
                bump("store.recovered.dropped", *dropped);
            }
            Event::StoreQuarantined { segments } => bump("store.quarantined", *segments),
            Event::StoreLock { state } => bump(&format!("store.lock.{state}"), 1),
            Event::StoreError { .. } => bump("store.error", 1),
            // Service counters carry the `service.` prefix on purpose:
            // they count connection-lifecycle traffic, which is daemon
            // state, not verification semantics — they never enter a
            // `VerifyReport`'s stable stats.
            Event::ServiceStart { .. } => bump("service.start", 1),
            Event::ServiceAccept { .. } => bump("service.accept", 1),
            Event::ServiceSubmit { .. } => bump("service.submit", 1),
            Event::ServiceBusy { .. } => bump("service.busy", 1),
            Event::ServiceDone { outcome, .. } => bump(&format!("service.done.{outcome}"), 1),
            Event::ServiceDisconnect { .. } => bump("service.disconnect", 1),
            Event::ServiceDrain { .. } => bump("service.drain", 1),
            Event::SinkError { .. } => bump("sink.error", 1),
            Event::Attempt {
                prover, outcome, ..
            } => {
                // Only governance failures are counted at the attempt
                // level; successes keep their historical `proved.*` /
                // `refuted.*` names, bumped where the verdict is made.
                if matches!(outcome.as_str(), "fuel-exhausted" | "timeout" | "panicked") {
                    bump(&format!("failure.{prover}.{outcome}"), 1);
                }
            }
            _ => {}
        }
    }

    /// Render for a human reading stderr. Indentation mirrors the span
    /// nesting so a trace reads like an outline.
    pub fn human(&self) -> String {
        match self {
            Event::RunStart { methods, workers } => {
                format!("run start: {methods} methods, {workers} workers")
            }
            Event::RunEnd {
                proved,
                refuted,
                unknown,
                micros,
            } => format!(
                "run end: {proved} proved, {refuted} refuted, {unknown} unknown ({micros}µs)"
            ),
            Event::MethodStart { name, .. } => format!("method {name}"),
            Event::MethodEnd {
                error: Some(e),
                micros,
                ..
            } => format!("method failed: {e} ({micros}µs)"),
            Event::MethodEnd {
                error: None,
                micros,
                ..
            } => format!("method done ({micros}µs)"),
            Event::ObligationStart { label, size, .. } => {
                format!("  obligation {label} (size {size})")
            }
            Event::ObligationEnd {
                verdict, micros, ..
            } => {
                format!("  => {verdict} ({micros}µs)")
            }
            Event::PieceStart {
                fingerprint: Some(fp),
                size,
            } => format!("    piece {fp:032x} (size {size})"),
            Event::PieceStart {
                fingerprint: None,
                size,
            } => format!("    piece (size {size})"),
            Event::PieceEnd { verdict } => format!("    piece => {verdict}"),
            Event::CacheLookup {
                hit, saved_fuel, ..
            } => {
                if *hit {
                    format!("      cache hit (saved fuel {saved_fuel})")
                } else {
                    "      cache miss".to_owned()
                }
            }
            Event::CacheEvict { fingerprint } => {
                format!("      cache evict {fingerprint:032x}")
            }
            Event::Attempt {
                prover,
                pass,
                outcome,
                fuel,
                micros,
            } => format!("      {prover} [{pass}]: {outcome} (fuel {fuel}, {micros}µs)"),
            Event::Breaker { prover, transition } => {
                format!("      breaker {prover}: {transition}")
            }
            Event::RetryEscalated { fuel } => format!("      retry escalated (fuel {fuel})"),
            Event::RetryRecovered => "      retry recovered".to_owned(),
            Event::ChaosInjected { site, fault } => {
                format!("      chaos {fault} @ {site}")
            }
            Event::ChaosLied { prover } => format!("      chaos liar: {prover}"),
            Event::Watchdog { outcome } => format!("      watchdog {outcome}"),
            Event::StoreOpen {
                entries,
                segments,
                lock,
            } => format!("store open: {entries} entries from {segments} segments ({lock})"),
            Event::StoreLoad { entries } => format!("store load: {entries} entries into cache"),
            Event::StoreFlush { records, bytes } => {
                format!("store flush: {records} records ({bytes} bytes)")
            }
            Event::StoreRecovered {
                dropped,
                reset: Some(why),
            } => format!("store reset ({why}), {dropped} records dropped"),
            Event::StoreRecovered {
                dropped,
                reset: None,
            } => format!("store recovered: {dropped} torn records dropped"),
            Event::StoreQuarantined { segments } => {
                format!("store quarantined {segments} segment(s)")
            }
            Event::StoreLock { state } => format!("store lock: {state}"),
            Event::StoreError { op, error } => format!("store {op} failed: {error}"),
            Event::ServiceStart { socket } => format!("service listening on {socket}"),
            Event::ServiceAccept { client } => format!("service: client {client} connected"),
            Event::ServiceSubmit { client, queued } => {
                format!("service: client {client} admitted (queue {queued})")
            }
            Event::ServiceBusy { client, queued } => {
                format!("service: client {client} shed busy (queue {queued})")
            }
            Event::ServiceDone { client, outcome } => {
                format!("service: client {client} request {outcome}")
            }
            Event::ServiceDisconnect { client } => {
                format!("service: client {client} disconnected")
            }
            Event::ServiceDrain { queued } => {
                format!("service drain: {queued} admitted request(s) to finish")
            }
            Event::SinkError { error } => format!("sink error: {error}"),
            Event::Note { text } => text.clone(),
        }
    }
}

/// Where events go. Implementations must be cheap to call from worker
/// threads; the pipeline serializes emission, a streaming [`Recorder`]
/// does not.
pub trait Sink: Send + Sync {
    fn emit(&self, event: &Event);
    /// Called once at the end of a run; file-backed sinks flush here.
    fn flush(&self) {}
}

/// Human-readable narration on stderr (the `JAHOB_TRACE=1` replacement).
#[derive(Debug, Default)]
pub struct StderrSink;

impl StderrSink {
    pub fn new() -> StderrSink {
        StderrSink
    }
}

impl Sink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("[obs] {}", event.human());
    }
}

/// One JSON object per line to any writer (usually a file).
///
/// Telemetry must never take down verification, but it must not lie by
/// omission either: the first write or flush failure is reported once —
/// best-effort as a terminal [`Event::SinkError`] line on the stream
/// itself (the error may be transient or buffered-only) and always as a
/// diagnosed line on stderr. The sink also flushes on drop, so a session
/// torn down without an explicit end-of-run flush (early return, panic
/// unwind) does not lose its buffered tail.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
    include_unstable: bool,
    failed: std::sync::atomic::AtomicBool,
}

impl JsonlSink {
    /// Create (truncate) `path` and write JSONL there, timing included.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::to_writer(Box::new(std::io::BufWriter::new(
            file,
        ))))
    }

    pub fn to_writer(out: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
            include_unstable: true,
            failed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Omit unstable (wall-clock) fields, for byte-comparable output.
    pub fn deterministic(mut self) -> JsonlSink {
        self.include_unstable = false;
        self
    }

    /// Has this sink reported a write/flush failure? The stream on disk
    /// is incomplete when so.
    pub fn failed(&self) -> bool {
        self.failed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Report the first IO failure: one `sink.error` line onto the
    /// stream (best effort) plus an unmissable stderr line. Subsequent
    /// failures are silent — one diagnosis per sink is signal, a line
    /// per lost event is noise.
    fn report_failure(&self, out: &mut dyn std::io::Write, what: &str, error: &std::io::Error) {
        if self.failed.swap(true, std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        let terminal = Event::SinkError {
            error: format!("{what}: {error}"),
        };
        let _ = writeln!(out, "{}", terminal.to_json(self.include_unstable));
        let _ = out.flush();
        eprintln!("[obs] JSONL sink {what}: {error}; stream is incomplete");
    }

    /// Lock the writer, recovering from poisoning: a panicking emitter
    /// must not cascade into aborts when the sink drops mid-unwind.
    fn writer(&self) -> std::sync::MutexGuard<'_, Box<dyn std::io::Write + Send>> {
        self.out.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = event.to_json(self.include_unstable);
        let mut out = self.writer();
        if let Err(e) = writeln!(out, "{line}") {
            self.report_failure(&mut **out, "write failed", &e);
        }
    }

    fn flush(&self) {
        let mut out = self.writer();
        if let Err(e) = out.flush() {
            self.report_failure(&mut **out, "flush failed", &e);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Collects events in memory; the test-suite sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Serialize the collected stream, one JSON line per event, omitting
    /// unstable fields — the byte-comparable form used by the
    /// determinism tests and golden files.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events.lock().unwrap().iter() {
            out.push_str(&ev.to_json(false));
            out.push('\n');
        }
        out
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Discards everything; exists so benches can measure pure event
/// construction/dispatch cost.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: &Event) {}
}

enum Mode {
    /// Accumulate; the owner drains and orders. Deterministic.
    Buffer(Mutex<Vec<Event>>),
    /// Forward immediately. Real-time, but interleaving is scheduler-
    /// dependent when multiple threads share the recorder.
    Stream(Arc<dyn Sink>),
}

/// The handle the hot path holds. Cloning shares the underlying buffer
/// or sink. A disabled recorder is `None` inside: the enabled check is a
/// single pointer test and the event-building closure never runs.
#[derive(Clone, Default)]
pub struct Recorder {
    mode: Option<Arc<Mode>>,
}

impl Recorder {
    /// The do-nothing recorder; every `record_with` is one branch.
    pub fn disabled() -> Recorder {
        Recorder { mode: None }
    }

    /// Accumulate events in memory for ordered emission by the owner.
    pub fn buffered() -> Recorder {
        Recorder {
            mode: Some(Arc::new(Mode::Buffer(Mutex::new(Vec::new())))),
        }
    }

    /// Forward each event to `sink` the moment it is recorded.
    pub fn streaming(sink: Arc<dyn Sink>) -> Recorder {
        Recorder {
            mode: Some(Arc::new(Mode::Stream(sink))),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.is_some()
    }

    /// Record the event produced by `make` — which is not called at all
    /// when the recorder is disabled, so call sites pay no formatting or
    /// allocation cost on the fast path.
    #[inline]
    pub fn record_with(&self, make: impl FnOnce() -> Event) {
        if let Some(mode) = &self.mode {
            match &**mode {
                Mode::Buffer(buf) => buf.lock().unwrap().push(make()),
                Mode::Stream(sink) => sink.emit(&make()),
            }
        }
    }

    /// Take everything a buffered recorder accumulated (streaming and
    /// disabled recorders return an empty vec).
    pub fn drain(&self) -> Vec<Event> {
        match self.mode.as_deref() {
            Some(Mode::Buffer(buf)) => std::mem::take(&mut *buf.lock().unwrap()),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.mode.as_deref() {
            None => "disabled",
            Some(Mode::Buffer(_)) => "buffered",
            Some(Mode::Stream(_)) => "streaming",
        };
        f.debug_struct("Recorder").field("mode", &mode).finish()
    }
}

// ---------------------------------------------------------------------------
// Thread-scoped recorder: lets leaf code with no dispatcher reference
// (the chaos boundaries inside prover crates) contribute events to the
// recorder of whatever obligation is running on this thread.
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPED: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously scoped recorder. Deliberately
/// `!Send`: the guard must drop on the thread that armed it.
pub struct ScopeGuard {
    prev: Option<Recorder>,
    _not_send: PhantomData<*const ()>,
}

/// Arm `recorder` as this thread's scoped recorder until the guard
/// drops. Arming a disabled recorder clears the scope (leaf events from
/// a previous scope must not leak into an unobserved obligation).
pub fn scope(recorder: &Recorder) -> ScopeGuard {
    let next = recorder.enabled().then(|| recorder.clone());
    let prev = SCOPED.with(|s| s.replace(next));
    ScopeGuard {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| *s.borrow_mut() = self.prev.take());
    }
}

/// Record into the thread's scoped recorder, if one is armed. `make` is
/// never called otherwise. Leaf call sites (chaos boundaries) use this;
/// it is only reached on already-slow paths, so the TLS access is fine.
pub fn record_scoped(make: impl FnOnce() -> Event) {
    SCOPED.with(|s| {
        if let Some(rec) = s.borrow().as_ref() {
            rec.record_with(make);
        }
    });
}

/// Rebuild the stats counters a captured event stream implies, using the
/// same [`Event::stat_increments`] mapping the dispatcher feeds its live
/// counters through. For the event-backed counter groups (`cache.*`,
/// `breaker.*`, `retry.*`, `watchdog.*`, `chaos.*`, `failure.*`) the
/// result agrees with the run report's stats map exactly — the agreement
/// the observability test suite pins.
pub fn event_tallies(events: &[Event]) -> std::collections::BTreeMap<String, u64> {
    let mut tallies = std::collections::BTreeMap::new();
    for ev in events {
        ev.stat_increments(|name, delta| {
            *tallies.entry(name.to_owned()).or_insert(0) += delta;
        });
    }
    tallies
}

// ---------------------------------------------------------------------------
// Canonicalization: schedule-independent cache attribution.
// ---------------------------------------------------------------------------

/// Rewrite a run's event stream so goal-cache attribution is a function
/// of stream position, not scheduling.
///
/// With a shared cache and several workers, *which* method physically
/// computes a shared goal first — and therefore which piece span carries
/// the miss plus the prover attempts, and which carries the hit — depends
/// on the scheduler. Everything else about a piece span is content-
/// determined (same normalized goal ⇒ same dispatch, same chaos
/// decisions, same verdict). So for each fingerprint this pass counts the
/// physical misses `M` among its lookups and reassigns span *contents* in
/// stream order: the first `M` spans get the miss contents (lookup +
/// attempts), the rest get the hit contents. Totals are preserved by
/// construction, so the stats counters — which keep physical tallies and
/// are themselves schedule-independent in aggregate — still agree with
/// the event stream.
///
/// Spans without a cache lookup (cache off, or standing down under
/// seeded chaos) are untouched.
pub fn canonicalize(events: Vec<Event>) -> Vec<Event> {
    // Locate piece spans: (start index, end index exclusive of PieceEnd),
    // plus the fingerprint of the span's cache lookup if it has one.
    // Piece spans never nest, so the next PieceEnd closes the open span.
    struct Span {
        inner_start: usize,
        inner_end: usize,
        lookup: Option<(u128, bool)>,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut open: Option<usize> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::PieceStart { .. } => open = Some(i),
            Event::PieceEnd { .. } => {
                if let Some(start) = open.take() {
                    let inner = start + 1..i;
                    let lookup = events[inner.clone()].iter().find_map(|e| match e {
                        Event::CacheLookup {
                            fingerprint, hit, ..
                        } => Some((*fingerprint, *hit)),
                        _ => None,
                    });
                    spans.push(Span {
                        inner_start: inner.start,
                        inner_end: inner.end,
                        lookup,
                    });
                }
            }
            _ => {}
        }
    }

    // Group spans by fingerprint, in stream order.
    let mut groups: Vec<(u128, Vec<usize>)> = Vec::new();
    for (si, span) in spans.iter().enumerate() {
        let Some((fp, _)) = span.lookup else { continue };
        match groups.iter_mut().find(|(g, _)| *g == fp) {
            Some((_, members)) => members.push(si),
            None => groups.push((fp, vec![si])),
        }
    }

    // For each group, permute span contents so misses come first.
    let mut replacement: Vec<Option<Vec<Event>>> = (0..spans.len()).map(|_| None).collect();
    for (_, members) in &groups {
        let misses: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&si| matches!(spans[si].lookup, Some((_, false))))
            .collect();
        let hits: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&si| matches!(spans[si].lookup, Some((_, true))))
            .collect();
        if misses.is_empty() || hits.is_empty() {
            continue; // already canonical: uniform contents
        }
        // Canonical order: the first `misses.len()` member spans carry
        // the miss contents, the rest the hit contents.
        let sources: Vec<usize> = misses.into_iter().chain(hits).collect();
        for (&dest, &src) in members.iter().zip(sources.iter()) {
            if dest != src {
                replacement[dest] =
                    Some(events[spans[src].inner_start..spans[src].inner_end].to_vec());
            }
        }
    }

    if replacement.iter().all(|r| r.is_none()) {
        return events;
    }

    // Rebuild the stream with replaced span interiors.
    let mut out = Vec::with_capacity(events.len());
    let mut i = 0;
    let mut next_span = 0;
    while i < events.len() {
        if next_span < spans.len() && i == spans[next_span].inner_start {
            let span = &spans[next_span];
            match replacement[next_span].take() {
                Some(content) => out.extend(content),
                None => out.extend_from_slice(&events[span.inner_start..span.inner_end]),
            }
            i = span.inner_end;
            next_span += 1;
        } else {
            out.push(events[i].clone());
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piece(fp: u128, hit: bool, attempts: usize) -> Vec<Event> {
        let mut v = vec![
            Event::PieceStart {
                fingerprint: Some(fp),
                size: 10,
            },
            Event::CacheLookup {
                fingerprint: fp,
                hit,
                saved_fuel: if hit { 42 } else { 0 },
            },
        ];
        for _ in 0..attempts {
            v.push(Event::Attempt {
                prover: "presburger",
                pass: "first",
                outcome: "proved".into(),
                fuel: 42,
                micros: 0,
            });
        }
        v.push(Event::PieceEnd { verdict: "proved" });
        v
    }

    #[test]
    fn disabled_recorder_never_builds_events() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.record_with(|| panic!("must not be called"));
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn buffered_recorder_accumulates_in_order() {
        let rec = Recorder::buffered();
        rec.record_with(|| Event::Note { text: "a".into() });
        rec.record_with(|| Event::Note { text: "b".into() });
        let evs = rec.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], Event::Note { text: "a".into() });
        assert!(rec.drain().is_empty(), "drain takes");
    }

    #[test]
    fn streaming_recorder_forwards_immediately() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::streaming(sink.clone());
        rec.record_with(|| Event::RetryRecovered);
        assert_eq!(sink.events(), vec![Event::RetryRecovered]);
        assert!(rec.drain().is_empty(), "streaming mode has no buffer");
    }

    #[test]
    fn scoped_recording_is_thread_local_and_restores() {
        let rec = Recorder::buffered();
        {
            let _g = scope(&rec);
            record_scoped(|| Event::Note { text: "in".into() });
            // Another thread sees no scope.
            std::thread::scope(|s| {
                s.spawn(|| record_scoped(|| panic!("not scoped here")));
            });
        }
        record_scoped(|| panic!("scope ended"));
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    fn scoping_a_disabled_recorder_clears_the_scope() {
        let outer = Recorder::buffered();
        let _g = scope(&outer);
        {
            let _inner = scope(&Recorder::disabled());
            record_scoped(|| panic!("inner scope is off"));
        }
        record_scoped(|| Event::RetryRecovered);
        assert_eq!(outer.drain().len(), 1, "outer scope restored");
    }

    #[test]
    fn canonicalize_moves_the_miss_to_stream_order() {
        // Physical order: hit first (another worker computed it), miss
        // second. Canonical order: miss first.
        let mut stream = Vec::new();
        stream.push(Event::RunStart {
            methods: 2,
            workers: 8,
        });
        stream.extend(piece(0xabc, true, 0));
        stream.extend(piece(0xabc, false, 2));
        stream.push(Event::RunEnd {
            proved: 2,
            refuted: 0,
            unknown: 0,
            micros: 7,
        });
        let out = canonicalize(stream);
        // First span now carries the miss + its two attempts.
        assert_eq!(
            out[2],
            Event::CacheLookup {
                fingerprint: 0xabc,
                hit: false,
                saved_fuel: 0
            }
        );
        assert!(matches!(out[3], Event::Attempt { .. }));
        // Second span carries the bare hit.
        assert_eq!(
            out[7],
            Event::CacheLookup {
                fingerprint: 0xabc,
                hit: true,
                saved_fuel: 42
            }
        );
        assert_eq!(out.len(), 10);
        // Totals preserved: one hit, one miss.
        let hits = out
            .iter()
            .filter(|e| matches!(e, Event::CacheLookup { hit: true, .. }))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn canonicalize_is_idempotent_and_schedule_invariant() {
        // Three spans for one fingerprint: any physical placement of the
        // single miss must canonicalize to the same stream.
        let orders = [
            [false, true, true],
            [true, false, true],
            [true, true, false],
        ];
        let mut canon: Option<Vec<Event>> = None;
        for order in orders {
            let mut stream = Vec::new();
            for hit in order {
                stream.extend(piece(0x77, hit, usize::from(!hit)));
            }
            let out = canonicalize(stream);
            let again = canonicalize(out.clone());
            assert_eq!(out, again, "idempotent");
            match &canon {
                None => canon = Some(out),
                Some(want) => assert_eq!(&out, want, "order {order:?}"),
            }
        }
    }

    #[test]
    fn canonicalize_leaves_uniform_and_lookupless_spans_alone() {
        let mut stream = Vec::new();
        stream.extend(piece(0x1, false, 1));
        stream.extend(piece(0x2, false, 1));
        // A span with no cache lookup at all (cache off).
        stream.push(Event::PieceStart {
            fingerprint: None,
            size: 3,
        });
        stream.push(Event::PieceEnd { verdict: "unknown" });
        let out = canonicalize(stream.clone());
        assert_eq!(out, stream);
    }

    #[test]
    fn jsonl_redacts_unstable_fields() {
        let ev = Event::Attempt {
            prover: "smt",
            pass: "retry",
            outcome: "timeout".into(),
            fuel: 9,
            micros: 1234,
        };
        let stable = ev.to_json(false);
        assert!(!stable.contains("micros"), "{stable}");
        let full = ev.to_json(true);
        assert!(full.contains("\"micros\":1234"), "{full}");
        assert_eq!(
            stable,
            r#"{"type":"attempt","prover":"smt","pass":"retry","outcome":"timeout","fuel":9}"#
        );
    }

    #[test]
    fn jsonl_sink_reports_first_write_error_once() {
        // A writer that accepts one full line then fails forever
        // (`writeln!` may split a line across several `write` calls).
        struct Flaky {
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl std::io::Write for Flaky {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                let mut log = self.log.lock().unwrap();
                if log.contains(&b'\n') {
                    return Err(std::io::Error::other("disk gone"));
                }
                log.extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(Flaky { log: log.clone() })).deterministic();
        assert!(!sink.failed());
        sink.emit(&Event::RetryRecovered);
        assert!(!sink.failed());
        sink.emit(&Event::RetryRecovered); // fails → reported once
        sink.emit(&Event::RetryRecovered); // still failing → silent
        assert!(sink.failed());
        let text = String::from_utf8(log.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"type\":\"retry.recovered\"}\n");
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        struct CountFlush(Arc<Mutex<u32>>);
        impl std::io::Write for CountFlush {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                *self.0.lock().unwrap() += 1;
                Ok(())
            }
        }
        let flushes = Arc::new(Mutex::new(0));
        {
            let sink = JsonlSink::to_writer(Box::new(CountFlush(flushes.clone())));
            sink.emit(&Event::RetryRecovered);
        }
        assert!(*flushes.lock().unwrap() >= 1, "drop must flush");
    }

    #[test]
    fn store_events_serialize_and_tally() {
        let ev = Event::StoreOpen {
            entries: 3,
            segments: 2,
            lock: "acquired",
        };
        assert_eq!(
            ev.to_json(false),
            r#"{"type":"store.open","entries":3,"segments":2,"lock":"acquired"}"#
        );
        let stream = vec![
            ev,
            Event::StoreLoad { entries: 3 },
            Event::StoreFlush {
                records: 4,
                bytes: 120,
            },
            Event::StoreRecovered {
                dropped: 1,
                reset: None,
            },
            Event::StoreQuarantined { segments: 2 },
            Event::StoreLock { state: "read-only" },
            Event::StoreError {
                op: "flush",
                error: "no space".into(),
            },
        ];
        let tallies = event_tallies(&stream);
        assert_eq!(tallies["store.open"], 1);
        assert_eq!(tallies["store.load.entries"], 3);
        assert_eq!(tallies["store.flush.records"], 4);
        assert_eq!(tallies["store.recovered.dropped"], 1);
        assert_eq!(tallies["store.quarantined"], 2);
        assert_eq!(tallies["store.lock.read-only"], 1);
        assert_eq!(tallies["store.error"], 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::to_writer(Box::new(Shared(buf.clone()))).deterministic();
        sink.emit(&Event::RetryRecovered);
        sink.emit(&Event::Watchdog {
            outcome: "confirmed",
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"retry.recovered\"}\n{\"type\":\"watchdog\",\"outcome\":\"confirmed\"}\n"
        );
    }
}
