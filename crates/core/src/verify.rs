//! The end-to-end verification pipeline behind the [`Verifier`] session
//! API.
//!
//! Methods are independent verification units (§3 of the paper), so the
//! pipeline fans them out through [`jahob_util::pool::run`], with the
//! calling thread among the workers, and shares one normalized-goal
//! cache across the run. The report is bit-for-bit identical at any
//! worker count: obligations keep their stable per-method indices,
//! results come back in submission order, fresh symbols are named after
//! their method's place in the run, and chaos decisions are keyed on
//! obligation *content* rather than arrival order.
//!
//! Observability: when a [`Sink`] is configured, every run emits a typed
//! event stream — run / method / obligation / piece spans with prover
//! attempts, cache consultations, chaos injections, and watchdog checks
//! inside them. Events are buffered
//! per method and assembled in submission order, then cache attribution
//! is rewritten to stream order ([`jahob_util::obs::canonicalize`]), so
//! the stream is bit-for-bit identical at any worker count. With no sink
//! configured the pipeline records nothing and each potential recording
//! site costs one pointer test.

use crate::dispatcher::{Diagnosis, DispatchConfig, Dispatcher, ProverId, Verdict};
use crate::goal_cache::GoalCache;
use jahob_javalite::{parse_program, resolve, TypedProgram};
use jahob_util::chaos::FaultPlan;
use jahob_util::json::{array, Obj};
use jahob_util::obs::{self, Event, Recorder, Sink, StderrSink};
use jahob_util::{pool, trace_enabled, FreshScope, Symbol};
use jahob_vcgen::method_obligations;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Has no effect; kept only because the benchmark harness still reads
/// it. Every prover attempt runs on the dispatching thread, guarded by
/// `catch_unwind` and its cooperative budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Isolation {
    /// The only variant.
    #[default]
    InProcess,
}

/// Pipeline configuration. Build one with [`Config::builder`] — the
/// builder is where the environment (`JAHOB_WORKERS`, `JAHOB_TRACE`) is
/// resolved, exactly once, into the explicit fields here; nothing on the
/// verification path reads an environment variable again.
#[derive(Clone)]
pub struct Config {
    pub dispatch: DispatchConfig,
    /// Worker threads for fanning methods out. Resolved by the builder
    /// (explicit value, else `JAHOB_WORKERS`, else 1 = sequential); a
    /// field value of `0` is treated as 1.
    pub workers: usize,
    /// Share a run-wide normalized-goal cache across methods, so
    /// alpha-equivalent obligations are dispatched once per run.
    pub goal_cache: bool,
    /// Directory for the crash-safe persistent proof cache (see
    /// [`jahob_util::store`]). When set — explicitly or via `JAHOB_CACHE`,
    /// resolved once by the builder — the session's goal cache shadows
    /// this directory's snapshot: its entries load on open, new proofs
    /// are saved in batches and at run end, and corruption degrades to a
    /// cold cache. Ignored when `goal_cache` is off.
    pub cache_path: Option<PathBuf>,
    /// Where the run's event stream goes. `None` disables observability
    /// entirely (the fast path: one pointer test per potential event).
    /// The builder installs a [`StderrSink`] here when `JAHOB_TRACE` is
    /// set and no sink was given, so the old tracing flag keeps working —
    /// through the typed pipeline instead of scattered `eprintln!`s.
    pub sink: Option<Arc<dyn Sink>>,
    /// Has no effect; kept only because the benchmark harness still
    /// reads it. Always [`Isolation::InProcess`].
    pub isolation: Isolation,
    /// Has no effect; kept only because the benchmark harness still
    /// reads it. The builder always leaves it `false`.
    pub adaptive: bool,
    /// Unix-domain socket path for the verification daemon
    /// (`jahob serve` / [`crate::service`]). Resolved by the builder
    /// (explicit value, else `JAHOB_SOCKET`, else none). Ignored by
    /// [`Verifier::verify`] itself — only the service layer binds it.
    pub socket: Option<PathBuf>,
    /// Admission-queue bound for the verification daemon: the maximum
    /// number of admitted-but-unfinished requests across all clients.
    /// A full queue sheds new submissions with a typed BUSY reply — an
    /// accepted request is never dropped. Resolved by the builder
    /// (explicit value, else `JAHOB_QUEUE_DEPTH`, else 32).
    pub queue_depth: usize,
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("dispatch", &self.dispatch)
            .field("workers", &self.workers)
            .field("goal_cache", &self.goal_cache)
            .field("cache_path", &self.cache_path)
            .field("sink", &self.sink.as_ref().map(|_| "Sink"))
            .field("isolation", &self.isolation)
            .field("adaptive", &self.adaptive)
            .field("socket", &self.socket)
            .field("queue_depth", &self.queue_depth)
            .finish()
    }
}

impl Default for Config {
    /// Equivalent to `Config::builder().build()`: environment resolved at
    /// construction time, not at use time.
    fn default() -> Self {
        Config::builder().build()
    }
}

impl Config {
    /// Start building a configuration. See [`ConfigBuilder`].
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::new()
    }

    /// The worker count this configuration will actually use. The
    /// environment was already resolved by the builder; this only guards
    /// against a hand-written `workers: 0`.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// Fluent construction for [`Config`], and the one place the process
/// environment is consulted:
///
/// * `workers`: explicit value, else `JAHOB_WORKERS`, else 1;
/// * sink: explicit [`ConfigBuilder::sink`], else a [`StderrSink`] when
///   `JAHOB_TRACE` is set, else none;
/// * service: socket path from [`ConfigBuilder::socket`] else
///   `JAHOB_SOCKET`, admission-queue bound from
///   [`ConfigBuilder::queue_depth`] else `JAHOB_QUEUE_DEPTH`, else 32.
///
/// ```no_run
/// use std::sync::Arc;
/// let verifier = jahob::Config::builder()
///     .workers(8)
///     .goal_cache(true)
///     .sink(Arc::new(jahob::MemorySink::new()))
///     .build_verifier();
/// let report = verifier.verify("class C { }").unwrap();
/// ```
#[derive(Default)]
pub struct ConfigBuilder {
    dispatch: DispatchConfig,
    workers: Option<usize>,
    goal_cache: bool,
    cache_path: Option<PathBuf>,
    sink: Option<Arc<dyn Sink>>,
    socket: Option<PathBuf>,
    queue_depth: Option<usize>,
}

impl ConfigBuilder {
    pub fn new() -> ConfigBuilder {
        ConfigBuilder {
            dispatch: DispatchConfig::default(),
            workers: None,
            goal_cache: true,
            cache_path: None,
            sink: None,
            socket: None,
            queue_depth: None,
        }
    }

    /// Worker threads for the method fan-out. Unset defers to
    /// `JAHOB_WORKERS` (resolved once, in [`ConfigBuilder::build`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Enable/disable the run-wide normalized-goal cache (default: on).
    pub fn goal_cache(mut self, on: bool) -> Self {
        self.goal_cache = on;
        self
    }

    /// Deterministic fault-injection plan for chaos testing.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.dispatch.fault_plan = Some(plan);
        self
    }

    /// Event sink for the run's observability stream.
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Directory for the crash-safe persistent proof cache. Unset defers
    /// to `JAHOB_CACHE` (resolved once, in [`ConfigBuilder::build`]);
    /// neither means no persistence.
    pub fn cache_path(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(dir.into());
        self
    }

    /// Replace the whole portfolio configuration (ablation knobs,
    /// budgets, fault plan, watchdog).
    pub fn dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Has no effect: the argument is ignored. Kept only because the
    /// benchmark harness still calls it.
    pub fn isolation(self, _isolation: Isolation) -> Self {
        self
    }

    /// Has no effect: the argument is ignored. Kept only because the
    /// benchmark harness still calls it.
    pub fn racing(self, _on: bool) -> Self {
        self
    }

    /// Has no effect: the argument is ignored. Kept only because the
    /// benchmark harness still calls it.
    pub fn adaptive(self, _on: bool) -> Self {
        self
    }

    /// Has no effect: the argument is ignored. Kept only because the
    /// benchmark harness still calls it.
    pub fn slicing(self, _on: bool) -> Self {
        self
    }

    /// Unix-domain socket path for the verification daemon. Unset defers
    /// to `JAHOB_SOCKET` (resolved once, in [`ConfigBuilder::build`]).
    pub fn socket(mut self, path: impl Into<PathBuf>) -> Self {
        self.socket = Some(path.into());
        self
    }

    /// Admission-queue bound for the verification daemon. Unset defers
    /// to `JAHOB_QUEUE_DEPTH`, else 32; zero is treated as 1.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Resolve the environment and produce the final [`Config`].
    pub fn build(self) -> Config {
        let workers = self.workers.unwrap_or_else(|| {
            std::env::var("JAHOB_WORKERS")
                .ok()
                .and_then(|raw| raw.trim().parse::<usize>().ok())
                .filter(|&w| w > 0)
                .unwrap_or(1)
        });
        let sink = self
            .sink
            .or_else(|| trace_enabled().then(|| Arc::new(StderrSink::new()) as Arc<dyn Sink>));
        let cache_path = self
            .cache_path
            .or_else(|| std::env::var_os("JAHOB_CACHE").map(PathBuf::from));
        let socket = self
            .socket
            .or_else(|| std::env::var_os("JAHOB_SOCKET").map(PathBuf::from));
        let queue_depth = self
            .queue_depth
            .or_else(|| {
                std::env::var("JAHOB_QUEUE_DEPTH")
                    .ok()
                    .and_then(|raw| raw.trim().parse::<usize>().ok())
                    .filter(|&d| d > 0)
            })
            .unwrap_or(32)
            .max(1);
        Config {
            dispatch: self.dispatch,
            workers: workers.max(1),
            goal_cache: self.goal_cache,
            cache_path,
            sink,
            isolation: Isolation::InProcess,
            adaptive: false,
            socket,
            queue_depth,
        }
    }

    /// Shorthand for `Verifier::new(self.build())`.
    pub fn build_verifier(self) -> Verifier {
        Verifier::new(self.build())
    }
}

/// Per-request overrides for [`Verifier::verify_with`]. Defaults to "no
/// overrides": `Verifier::verify(src)` is exactly
/// `verify_with(src, &RequestOptions::default())`.
///
/// Deliberately limited to non-semantic knobs (budget and stream
/// routing); anything that changes *what is proved* belongs in the
/// session's [`Config`], where the cache digest accounts for it.
#[derive(Clone, Default)]
pub struct RequestOptions {
    /// Per-obligation wall-clock ceiling for this request (overrides
    /// `DispatchConfig::obligation_timeout`). Deadlines are excluded
    /// from the cache digest by design, so a deadline never forks the
    /// session's warm cache.
    pub deadline: Option<Duration>,
    /// Event sink for this request's stream (overrides `Config::sink`).
    /// The daemon installs a per-client sink here so each request can
    /// stream its own JSONL while the session stays shared.
    pub sink: Option<Arc<dyn Sink>>,
}

/// A verification session: owns the configuration, the event sink, and
/// the goal cache across `verify` calls, so re-verifying after an edit
/// replays every unchanged proof (the interactive loop of §6). Worker
/// threads are spawned per call at the session's configured width — the
/// formula ASTs are deliberately `Rc`-based and thread-local, so workers
/// re-parse per run and there is no state worth pinning to live threads
/// between calls.
///
/// `Verifier` is the one front door: the `jahob` binary's one-shot
/// `verify` and the verification daemon ([`crate::service`]) both build
/// sessions here and nowhere else.
pub struct Verifier {
    config: Config,
    /// The session cache (present iff `config.goal_cache`): persistent
    /// when `config.cache_path` is set, kept alive across `verify` calls.
    cache: Option<Arc<GoalCache>>,
}

impl Verifier {
    pub fn new(config: Config) -> Verifier {
        let cache = config.goal_cache.then(|| {
            if let Some(dir) = &config.cache_path {
                // The snapshot is keyed on the semantic dispatch-config
                // digest, so one saved under another prover configuration
                // loads cold and says so instead of missing on every key.
                // A build that withdraws proofs bumps the store's
                // `FORMAT_VERSION` instead.
                Arc::new(GoalCache::open_persistent(
                    dir,
                    config.dispatch.cache_digest(),
                    config.dispatch.fault_plan.clone(),
                    config.sink.clone(),
                ))
            } else {
                Arc::new(GoalCache::new())
            }
        });
        Verifier { config, cache }
    }

    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The session's goal cache, if caching is enabled.
    pub fn goal_cache(&self) -> Option<&Arc<GoalCache>> {
        self.cache.as_ref()
    }

    /// Verify a `.javax` source: parse, resolve, generate obligations,
    /// dispatch each to the portfolio — fanning methods out across the
    /// session's worker count, the calling thread among them.
    pub fn verify(&self, src: &str) -> Result<VerifyReport, VerifyError> {
        self.verify_with(src, &RequestOptions::default())
    }

    /// [`Verifier::verify`] with per-request overrides — the service
    /// layer's entry point, public for embedders with the same needs.
    ///
    /// Only *non-semantic* knobs are overridable per request: a budget
    /// deadline (a proof found under one budget is a proof under any
    /// other, so per-request deadlines never poison the goal cache —
    /// see `DispatchConfig::cache_digest`) and the event sink (where
    /// this request's stream goes, not what it contains). The session's
    /// warm state — goal cache and persistent store — is shared
    /// untouched.
    pub fn verify_with(
        &self,
        src: &str,
        options: &RequestOptions,
    ) -> Result<VerifyReport, VerifyError> {
        let mut config;
        let config = if options.deadline.is_some() || options.sink.is_some() {
            config = self.config.clone();
            if let Some(deadline) = options.deadline {
                config.dispatch.obligation_timeout = Some(deadline);
            }
            if let Some(sink) = &options.sink {
                config.sink = Some(Arc::clone(sink));
            }
            &config
        } else {
            &self.config
        };
        run_pipeline(src, config, self.cache.as_ref())
    }
}

/// Rendering options for report JSON — the one switch shared by the
/// CLI (`--json` / `--json-timing`), the daemon's REPORT frames, and
/// the golden tests, so every consumer spells "stable vs. timed" the
/// same way and the serializations cannot drift apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReportRender {
    /// Include wall-clock fields (per-obligation `millis`) and the
    /// schedule-dependent counters. Off is the stable view: two runs of
    /// the same code serialize to identical bytes at any worker count,
    /// cold or warm.
    pub timing: bool,
}

impl ReportRender {
    /// The diffable view: no wall-clock, no schedule-dependent state.
    pub const STABLE: ReportRender = ReportRender { timing: false };
    /// Everything, wall-clock and schedule-dependent state included.
    pub const TIMING: ReportRender = ReportRender { timing: true };
}

/// Report for one obligation.
#[derive(Clone, Debug)]
pub struct ObligationReport {
    pub label: String,
    pub verdict: VerdictSummary,
    pub millis: u128,
}

/// Printable verdict. `Unknown` carries the dispatcher's failure taxonomy
/// so the report says which provers were tried and why each one stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerdictSummary {
    Proved {
        prover: ProverId,
        bound: Option<u32>,
    },
    Refuted,
    Unknown(Diagnosis),
}

impl VerdictSummary {
    /// Structured JSON: `{"kind": ..., ...}` with the prover/bound on
    /// proofs and the full failure taxonomy on unknowns. A verdict has no
    /// wall-clock field, so it renders the same in every [`ReportRender`]
    /// view.
    pub fn to_json(&self) -> String {
        match self {
            VerdictSummary::Proved { prover, bound } => Obj::new()
                .str("kind", "proved")
                .str("prover", prover.name())
                .opt_u64("bound", bound.map(u64::from))
                .finish(),
            VerdictSummary::Refuted => Obj::new().str("kind", "refuted").finish(),
            VerdictSummary::Unknown(diag) => Obj::new()
                .str("kind", "unknown")
                .raw("diagnosis", &diag.to_json())
                .finish(),
        }
    }
}

impl fmt::Display for VerdictSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictSummary::Proved {
                prover,
                bound: None,
            } => {
                write!(f, "proved [{prover}]")
            }
            VerdictSummary::Proved {
                prover,
                bound: Some(b),
            } => write!(f, "proved [{prover}, universe ≤ {b}]"),
            VerdictSummary::Refuted => write!(f, "REFUTED (counter-model)"),
            VerdictSummary::Unknown(diag) => write!(f, "unknown ({diag})"),
        }
    }
}

/// Report for one method.
#[derive(Clone, Debug)]
pub struct MethodReport {
    pub class: Symbol,
    pub method: Symbol,
    pub obligations: Vec<ObligationReport>,
    /// Set when this method's VC generation or dispatch died (error or
    /// panic). The method is reported as failed — never silently verified —
    /// while the rest of the run proceeds.
    pub error: Option<String>,
}

impl MethodReport {
    pub fn all_proved(&self) -> bool {
        self.error.is_none()
            && self
                .obligations
                .iter()
                .all(|o| matches!(o.verdict, VerdictSummary::Proved { .. }))
    }

    pub fn any_refuted(&self) -> bool {
        self.obligations
            .iter()
            .any(|o| o.verdict == VerdictSummary::Refuted)
    }

    /// The largest bound among the method's proofs: `None` when every
    /// proof holds for all universe sizes.
    pub fn bound(&self) -> Option<u32> {
        self.obligations
            .iter()
            .filter_map(|o| match o.verdict {
                VerdictSummary::Proved { bound, .. } => bound,
                _ => None,
            })
            .max()
    }

    fn status(&self) -> &'static str {
        if self.all_proved() {
            "verified"
        } else if self.any_refuted() {
            "refuted"
        } else {
            "incomplete"
        }
    }

    /// One stable JSON object per method, with the method's
    /// [`bound`](Self::bound) after its status. [`ReportRender::TIMING`]
    /// adds the per-obligation wall-clock (`millis`); the stable view
    /// omits it so two runs of the same code diff byte-for-byte.
    pub fn to_json(&self, render: ReportRender) -> String {
        let obligations = array(self.obligations.iter().map(|o| {
            let o_json = Obj::new()
                .str("label", &o.label)
                .raw("verdict", &o.verdict.to_json());
            if render.timing {
                o_json.u64("millis", o.millis as u64).finish()
            } else {
                o_json.finish()
            }
        }));
        Obj::new()
            .str("class", self.class.as_str())
            .str("method", self.method.as_str())
            .str("status", self.status())
            .opt_u64("bound", self.bound().map(u64::from))
            .opt_str("error", self.error.as_deref())
            .raw("obligations", &obligations)
            .finish()
    }
}

/// Whole-program report.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    pub methods: Vec<MethodReport>,
    /// Run-wide dispatcher counters, summed over every method's
    /// dispatcher (cache hits/misses, per-prover outcomes, chaos
    /// injections, watchdog checks, …).
    pub stats: BTreeMap<String, u64>,
}

/// A stat whose value legitimately varies run-to-run: the `time.*`
/// wall-clock tallies, and the persistence layer's `store.*`/`sink.*`
/// counters (those depend on what was on disk *before* the run, so a
/// warm report keeps its stable sections identical to a cold one). The
/// groups are named exactly: `chaos.injected.timeout` and
/// `failure.<prover>.timeout` are deterministic and stay.
fn unstable_stat(name: &str) -> bool {
    ["time.", "store.", "sink."]
        .iter()
        .any(|group| name.starts_with(group))
}

impl VerifyReport {
    pub fn all_proved(&self) -> bool {
        self.methods.iter().all(MethodReport::all_proved)
    }

    /// Schedule-independent view of the report, for asserting that two
    /// runs (sequential vs. parallel, different worker counts) agree:
    /// methods, obligations, verdicts, diagnoses, pipeline errors, and
    /// every order-free counter. Per-obligation `millis` and the
    /// `time.*`, `store.*` and `sink.*` groups legitimately vary between
    /// runs and are excluded.
    pub fn deterministic_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for m in &self.methods {
            lines.push(format!("{}.{} error={:?}", m.class, m.method, m.error));
            for o in &m.obligations {
                lines.push(format!("  {} :: {}", o.label, o.verdict));
            }
        }
        for (name, value) in &self.stats {
            if unstable_stat(name) {
                continue;
            }
            lines.push(format!("stat {name} = {value}"));
        }
        lines
    }

    pub fn method(&self, class: &str, method: &str) -> Option<&MethodReport> {
        self.methods
            .iter()
            .find(|m| m.class.as_str() == class && m.method.as_str() == method)
    }

    /// Count of (proved, refuted, unknown) obligations.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut proved = 0;
        let mut refuted = 0;
        let mut unknown = 0;
        for m in &self.methods {
            for o in &m.obligations {
                match &o.verdict {
                    VerdictSummary::Proved { .. } => proved += 1,
                    VerdictSummary::Refuted => refuted += 1,
                    VerdictSummary::Unknown(_) => unknown += 1,
                }
            }
        }
        (proved, refuted, unknown)
    }

    /// Structural JSON for CI, benches, the daemon's REPORT frames, and
    /// golden tests to diff: methods, obligations, verdicts, diagnoses,
    /// tally, and counters. With [`ReportRender::STABLE`], wall-clock
    /// fields and schedule-dependent counters are omitted, so two runs
    /// of the same code produce identical bytes at any worker count;
    /// [`ReportRender::TIMING`] includes everything.
    pub fn to_json(&self, render: ReportRender) -> String {
        let (proved, refuted, unknown) = self.tally();
        let tally = Obj::new()
            .u64("proved", proved as u64)
            .u64("refuted", refuted as u64)
            .u64("unknown", unknown as u64)
            .finish();
        let mut stats = Obj::new();
        for (name, value) in &self.stats {
            if !render.timing && unstable_stat(name) {
                continue;
            }
            stats = stats.u64(name, *value);
        }
        Obj::new()
            .raw(
                "methods",
                &array(self.methods.iter().map(|m| m.to_json(render))),
            )
            .raw("tally", &tally)
            .raw("stats", &stats.finish())
            .finish()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.methods {
            write!(f, "{}.{}: ", m.class, m.method)?;
            match (m.all_proved(), m.bound()) {
                (true, None) => writeln!(f, "VERIFIED")?,
                (true, Some(k)) => writeln!(f, "VERIFIED (bounded, universe ≤ {k})")?,
                (false, _) if m.any_refuted() => writeln!(f, "REFUTED")?,
                (false, _) => writeln!(f, "INCOMPLETE")?,
            }
            if let Some(err) = &m.error {
                writeln!(f, "    (pipeline failure: {err})")?;
            }
            for o in &m.obligations {
                writeln!(f, "    {:<55} {} ({} ms)", o.label, o.verdict, o.millis)?;
            }
            if m.obligations.is_empty() && m.error.is_none() {
                writeln!(f, "    (all obligations discharged during generation)")?;
            }
        }
        let (p, r, u) = self.tally();
        writeln!(f, "total: {p} proved, {r} refuted, {u} unknown")
    }
}

/// Pipeline errors.
#[derive(Debug)]
pub enum VerifyError {
    Frontend(jahob_javalite::FrontendError),
    Vcgen(jahob_vcgen::VcgenError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Frontend(e) => write!(f, "{e}"),
            VerifyError::Vcgen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The pipeline body behind [`Verifier::verify`] /
/// [`Verifier::verify_with`].
fn run_pipeline(
    src: &str,
    config: &Config,
    cache: Option<&Arc<GoalCache>>,
) -> Result<VerifyReport, VerifyError> {
    let run_started = Instant::now();
    let observing = config.sink.is_some();
    let program = parse_program(src).map_err(VerifyError::Frontend)?;
    let typed = resolve(&program).map_err(VerifyError::Frontend)?;

    // Stable job list: (class index, method index) in source order. The
    // pool returns results in submission order, so the report layout is
    // identical no matter which thread ran what.
    let jobs: Vec<(usize, usize)> = typed
        .classes
        .iter()
        .enumerate()
        .flat_map(|(ci, class)| {
            class
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.contract.assumed)
                .map(move |(mi, _)| (ci, mi))
        })
        .collect();
    let workers = config.effective_workers().min(jobs.len().max(1));

    // Formula ASTs are `Rc`-based and must not cross threads: the calling
    // thread works with the program it resolved, and each spawned thread
    // re-parses and re-resolves its own copy (symbols intern globally, so
    // `Symbol`s agree across threads). Only `Send` report data comes back.
    // Verdicts cannot depend on which thread ran a method: `verify_method`
    // names its fresh symbols after the method's place in the run, not
    // after the thread or the order the methods ran in.
    let results = pool::run(
        workers,
        &jobs,
        &typed,
        || {
            let program = parse_program(src).expect("parsed on the caller thread");
            resolve(&program).expect("resolved on the caller thread")
        },
        |typed, i, &(ci, mi)| verify_method(typed, ci, mi, i, config, cache, observing),
    )
    .into_iter()
    .enumerate()
    .map(|(i, outcome)| {
        outcome.unwrap_or_else(|task_panic| {
            // A method that panics past `verify_method`'s own guards
            // degrades to a diagnosed failure.
            let (ci, mi) = jobs[i];
            let m = &typed.classes[ci].methods[mi];
            let error = format!("worker panicked: {}", task_panic.message);
            let mut events = Vec::new();
            if observing {
                events.push(Event::MethodStart {
                    index: i as u64,
                    name: format!("{}.{}", m.class, m.name),
                });
                events.push(Event::MethodEnd {
                    index: i as u64,
                    error: Some(error.clone()),
                    micros: 0,
                });
            }
            (
                MethodReport {
                    class: m.class,
                    method: m.name,
                    obligations: Vec::new(),
                    error: Some(error),
                },
                Vec::new(),
                events,
            )
        })
    });

    let mut methods = Vec::new();
    let mut stats = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    if observing {
        events.push(Event::RunStart {
            methods: jobs.len() as u64,
            workers: workers as u64,
        });
    }
    for (report, method_stats, method_events) in results {
        methods.push(report);
        for (name, value) in method_stats {
            *stats.entry(name).or_insert(0) += value;
        }
        events.extend(method_events);
    }
    // Persistence counters are session-cumulative (the store outlives
    // individual runs), so they overwrite rather than accumulate; they
    // are marked unstable and never reach the stable report sections.
    if let Some(cache) = cache {
        // Make this run's proofs durable before reporting: a crash after
        // the report must not lose what the report claims was verified.
        cache.flush_persistent();
        for (name, value) in cache.persist_stats() {
            stats.insert(name, value);
        }
    }
    let report = VerifyReport { methods, stats };

    if let Some(sink) = &config.sink {
        let (proved, refuted, unknown) = report.tally();
        events.push(Event::RunEnd {
            proved: proved as u64,
            refuted: refuted as u64,
            unknown: unknown as u64,
            micros: run_started.elapsed().as_micros() as u64,
        });
        // Rewrite shared-cache hit/miss attribution to stream order so
        // the emitted stream is identical at any worker count.
        for event in obs::canonicalize(events) {
            sink.emit(&event);
        }
        sink.flush();
    }
    Ok(report)
}

/// Verify one method with its own dispatcher, sharing the run-wide goal
/// cache. Returns the method report, the dispatcher's counter snapshot
/// for run-level aggregation, and the method's buffered event stream
/// (empty when not observing).
///
/// Per-method graceful degradation: a method whose VC generation or
/// dispatch dies (error *or* panic) becomes a diagnosed failure in the
/// report while every other method still verifies. One bad method — or
/// one bug in a reasoning substrate that escapes the dispatcher's
/// per-attempt isolation — must not abort the whole run.
fn verify_method(
    typed: &TypedProgram,
    class_index: usize,
    method_index: usize,
    run_index: usize,
    config: &Config,
    cache: Option<&Arc<GoalCache>>,
    observing: bool,
) -> (MethodReport, Vec<(String, u64)>, Vec<Event>) {
    // The method's fresh symbols are scoped to its place in the run: a
    // daemon that verifies the program again names them alike, so its
    // interner stops growing with every request.
    let _fresh = FreshScope::enter(run_index as u32);
    let method_started = Instant::now();
    let m = &typed.classes[class_index].methods[method_index];
    let recorder = if observing {
        Recorder::buffered()
    } else {
        Recorder::disabled()
    };
    recorder.record_with(|| Event::MethodStart {
        index: run_index as u64,
        name: format!("{}.{}", m.class, m.name),
    });
    // The VC generator already unfolded each class's own abstraction
    // functions; clients reason abstractly about the others (unfolding
    // foreign private vardefs would both break modularity and blow up
    // client obligations).
    let mut dispatcher = Dispatcher::new(typed.sig.clone());
    dispatcher.config = config.dispatch.clone();
    dispatcher.cache = cache.map(Arc::clone);
    dispatcher.recorder = recorder.clone();

    let mut report = MethodReport {
        class: m.class,
        method: m.name,
        obligations: Vec::new(),
        error: None,
    };
    let vcs = catch_unwind(AssertUnwindSafe(|| method_obligations(typed, m)));
    let mv = match vcs {
        Ok(Ok(mv)) => Some(mv),
        Ok(Err(e)) => {
            report.error = Some(format!("VC generation failed: {e}"));
            None
        }
        Err(panic) => {
            report.error = Some(format!(
                "VC generation panicked: {}",
                pool::panic_message(&*panic)
            ));
            None
        }
    };
    if let Some(mv) = mv {
        for (oi, ob) in mv.obligations.iter().enumerate() {
            recorder.record_with(|| Event::ObligationStart {
                index: oi as u64,
                label: ob.label.clone(),
                size: ob.form.size() as u64,
            });
            let start = Instant::now();
            let verdict = catch_unwind(AssertUnwindSafe(|| dispatcher.prove(&ob.form)));
            let millis = start.elapsed().as_millis();
            let summary = match verdict {
                Ok(Verdict::Proved { prover, bound }) => VerdictSummary::Proved { prover, bound },
                Ok(Verdict::CounterModel(_)) => VerdictSummary::Refuted,
                Ok(Verdict::Unknown(diag)) => VerdictSummary::Unknown(diag),
                Err(panic) => {
                    report.error = Some(format!(
                        "dispatch panicked on `{}`: {}",
                        ob.label,
                        pool::panic_message(&*panic)
                    ));
                    VerdictSummary::Unknown(Diagnosis::default())
                }
            };
            recorder.record_with(|| Event::ObligationEnd {
                index: oi as u64,
                verdict: summary.to_string(),
                micros: start.elapsed().as_micros() as u64,
            });
            report.obligations.push(ObligationReport {
                label: ob.label.clone(),
                verdict: summary,
                millis,
            });
        }
    }
    recorder.record_with(|| Event::MethodEnd {
        index: run_index as u64,
        error: report.error.clone(),
        micros: method_started.elapsed().as_micros() as u64,
    });
    let stats = dispatcher.stats.snapshot();
    (report, stats, recorder.drain())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_util::obs::MemorySink;

    const COUNTER_OK: &str = r#"
class Counter {
  /*: public static specvar g :: int; */
  public static void bump(int limit)
  /*: requires "0 <= g & g <= limit" modifies g ensures "g <= limit + 1" */
  {
    //: g := "g + 1";
  }
}
"#;

    #[test]
    fn verifies_toy_counter() {
        let verifier = Config::builder().build_verifier();
        let report = verifier.verify(COUNTER_OK).unwrap();
        assert!(report.all_proved(), "{report}");
    }

    #[test]
    fn refutes_broken_contract() {
        let src = r#"
class Counter {
  /*: public static specvar g :: int; */
  public static void bump()
  /*: modifies g ensures "g = old g" */
  {
    //: g := "g + 1";
  }
}
"#;
        let report = Config::builder().build_verifier().verify(src).unwrap();
        assert!(!report.all_proved(), "{report}");
    }

    #[test]
    fn vcgen_failure_degrades_per_method() {
        // `broken` calls a method that does not exist, so its VC generation
        // fails — but `bump` must still verify: one bad method never aborts
        // the run.
        let src = r#"
class Counter {
  /*: public static specvar g :: int; */
  public static void bump(int limit)
  /*: requires "0 <= g & g <= limit" modifies g ensures "g <= limit + 1" */
  {
    //: g := "g + 1";
  }
  public static void broken()
  /*: modifies g ensures "g = 0" */
  {
    Counter.missing();
  }
}
"#;
        let report = Config::builder().build_verifier().verify(src).unwrap();
        assert!(!report.all_proved(), "{report}");
        let bump = report.method("Counter", "bump").unwrap();
        assert!(bump.all_proved(), "{report}");
        let broken = report.method("Counter", "broken").unwrap();
        assert!(broken.error.is_some(), "{report}");
    }

    #[test]
    fn request_options_default_matches_plain_verify() {
        let verifier = Config::builder().workers(1).build_verifier();
        let plain = verifier.verify(COUNTER_OK).unwrap();
        let with_default = verifier
            .verify_with(COUNTER_OK, &RequestOptions::default())
            .unwrap();
        // Same session, so the second run is warmer; verdict structure
        // must be identical either way.
        let methods =
            |r: &VerifyReport| array(r.methods.iter().map(|m| m.to_json(ReportRender::STABLE)));
        assert_eq!(methods(&plain), methods(&with_default));
    }

    #[test]
    fn request_sink_override_routes_one_request() {
        let session_sink = Arc::new(MemorySink::new());
        let verifier = Config::builder()
            .workers(1)
            .sink(session_sink.clone())
            .build_verifier();
        let request_sink = Arc::new(MemorySink::new());
        verifier
            .verify_with(
                COUNTER_OK,
                &RequestOptions {
                    sink: Some(request_sink.clone()),
                    ..RequestOptions::default()
                },
            )
            .unwrap();
        // The request's stream went to the override, not the session
        // sink; a later plain verify lands on the session sink again.
        assert!(session_sink.events().is_empty());
        assert!(matches!(
            request_sink.events().first(),
            Some(Event::RunStart { .. })
        ));
        verifier.verify(COUNTER_OK).unwrap();
        assert!(matches!(
            session_sink.events().first(),
            Some(Event::RunStart { .. })
        ));
    }

    #[test]
    fn session_cache_stays_warm_across_calls() {
        let verifier = Config::builder()
            .workers(1)
            .goal_cache(true)
            .build_verifier();
        let cold = verifier.verify(COUNTER_OK).unwrap();
        let warm = verifier.verify(COUNTER_OK).unwrap();
        assert!(warm.all_proved());
        let hits = |r: &VerifyReport| r.stats.get("cache.hit").copied().unwrap_or(0);
        let misses = |r: &VerifyReport| r.stats.get("cache.miss").copied().unwrap_or(0);
        assert!(
            hits(&warm) >= misses(&cold).max(1),
            "second run must replay the first run's proofs: cold {:?} warm {:?}",
            cold.stats,
            warm.stats
        );
        // Verdicts are identical either way.
        let strip_stats = |r: &VerifyReport| {
            r.deterministic_lines()
                .into_iter()
                .filter(|l| !l.starts_with("stat "))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip_stats(&cold), strip_stats(&warm));
    }

    #[test]
    fn verified_says_when_it_is_only_bounded() {
        let obligation = |label: &str, bound: Option<u32>| ObligationReport {
            label: label.to_owned(),
            verdict: VerdictSummary::Proved {
                prover: if bound.is_some() {
                    ProverId::Bmc
                } else {
                    ProverId::Hol
                },
                bound,
            },
            millis: 0,
        };
        let method = |name: &str, obligations: Vec<ObligationReport>| MethodReport {
            class: Symbol::intern("C"),
            method: Symbol::intern(name),
            obligations,
            error: None,
        };
        let report = VerifyReport {
            methods: vec![
                method("full", vec![obligation("a", None), obligation("b", None)]),
                method(
                    "bounded",
                    vec![obligation("a", None), obligation("b", Some(3))],
                ),
            ],
            stats: BTreeMap::new(),
        };
        assert_eq!(report.methods[0].bound(), None);
        assert_eq!(report.methods[1].bound(), Some(3));
        let text = report.to_string();
        assert!(text.contains("C.full: VERIFIED\n"), "{text}");
        assert!(
            text.contains("C.bounded: VERIFIED (bounded, universe ≤ 3)\n"),
            "{text}"
        );
        // The JSON status stays `verified` for both; the method-level
        // bound follows it.
        let json: Vec<String> = report
            .methods
            .iter()
            .map(|m| m.to_json(ReportRender::STABLE))
            .collect();
        assert!(
            json[0].contains(r#""status":"verified","bound":null"#),
            "{}",
            json[0]
        );
        assert!(
            json[1].contains(r#""status":"verified","bound":3"#),
            "{}",
            json[1]
        );
    }

    /// A counter whose name merely contains `time` is deterministic and
    /// belongs to both stable views: seed 0 injects timeouts into
    /// globalset.javax, and the dispatcher counts each attempt they end
    /// as `failure.<prover>.timeout`.
    #[test]
    fn timeout_counters_reach_both_stable_views() {
        let report = Config::builder()
            .workers(1)
            .fault_plan(Arc::new(FaultPlan::from_seed(0)))
            .build_verifier()
            .verify(include_str!("../../../case_studies/globalset.javax"))
            .unwrap();
        let timeouts: Vec<_> = report
            .stats
            .iter()
            .filter(|(name, _)| name.ends_with(".timeout"))
            .collect();
        let named = |prefix: &str| timeouts.iter().any(|(name, _)| name.starts_with(prefix));
        assert!(
            named("chaos.injected.") && named("failure."),
            "{timeouts:?}"
        );
        let json = report.to_json(ReportRender::STABLE);
        let lines = report.deterministic_lines();
        for (name, value) in timeouts {
            assert!(json.contains(&format!("\"{name}\":{value}")), "{json}");
            assert!(lines.contains(&format!("stat {name} = {value}")), "{name}");
        }
        assert!(!json.contains("time.micros"), "{json}");
    }

    #[test]
    fn report_json_is_stable_and_structured() {
        let sink = Arc::new(MemorySink::new());
        let verifier = Config::builder()
            .workers(1)
            .sink(sink.clone())
            .build_verifier();
        let report = verifier.verify(COUNTER_OK).unwrap();
        let json = report.to_json(ReportRender::STABLE);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""class":"Counter""#), "{json}");
        assert!(json.contains(r#""status":"verified""#), "{json}");
        assert!(json.contains(r#""kind":"proved""#), "{json}");
        assert!(!json.contains("millis"), "stable JSON has no wall-clock");
        assert!(!json.contains("time.micros"), "{json}");
        // The timed variant adds wall-clock without disturbing structure.
        let timed = report.to_json(ReportRender::TIMING);
        assert!(timed.contains("millis"), "{timed}");
        // A second identical run serializes to identical bytes.
        let again = verifier.verify(COUNTER_OK).unwrap();
        // (cache warmth changes counters; compare method structure only)
        let methods =
            |r: &VerifyReport| array(r.methods.iter().map(|m| m.to_json(ReportRender::STABLE)));
        assert_eq!(methods(&report), methods(&again));
        // The sink saw a well-formed run span.
        let events = sink.events();
        assert!(matches!(events.first(), Some(Event::RunStart { .. })));
        assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
    }
}
