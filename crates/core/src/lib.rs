//! `jahob`: the Jahob analysis system — public API.
//!
//! This crate ties the reproduction together, mirroring the architecture of
//! §2.4: "a verification condition generator that can invoke any one of a
//! number of decision procedures to discharge the proof obligations. By
//! populating Jahob with a variety of decision procedures ... Jahob can
//! effectively deploy very specialized, even unscalable, techniques."
//!
//! * [`dispatcher`] — goal decomposition ("a simple goal decomposition
//!   technique to prove different conjuncts in the goal using different
//!   decision procedures", §3) and the prover portfolio, in walk order:
//!   simplifier, HOL `auto`, Presburger (Cooper/Omega), BAPA,
//!   Nelson–Oppen SMT, the bounded model finder (counterexamples +
//!   bounded validity, one search per piece), and the first-order prover
//!   with reachability axioms. Every prover is a linked library run
//!   in-process; each attempt stops only through its cooperative
//!   [`Budget`] slice.
//! * [`goal_cache`] — the run-wide normalized-goal verdict cache:
//!   alpha-equivalent obligations are dispatched once and every later
//!   occurrence is a constant-time hit, with in-flight deduplication so
//!   parallel workers never race to prove the same goal twice.
//! * [`verify`] — the end-to-end pipeline: parse → resolve → generate VCs →
//!   dispatch → report, fanning methods out across a work-stealing pool
//!   while keeping reports bit-for-bit identical to sequential runs. The
//!   front door is a [`Verifier`] session built via [`Config::builder`];
//!   it owns the event sink and the goal cache across calls, and every
//!   run can emit a deterministic structured event stream
//!   ([`jahob_util::obs`]) plus a JSON report rendered through the
//!   shared [`ReportRender`] switch ([`verify::VerifyReport::to_json`]).
//! * [`service`] — the persistent verification daemon behind
//!   `jahob serve`: one warm [`Verifier`] session shared across a
//!   Unix-domain socket, with a bounded admission queue, typed BUSY
//!   load-shedding, round-robin client fairness, per-request obs
//!   streams, and graceful drain. Verdicts and canonical streams
//!   through the daemon are bit-for-bit identical to one-shot runs.
//! * [`cli`] — the shared front-door argument parser and exit-code
//!   ladder used by the `jahob` binary and the `verify_file` example.

pub mod cli;
pub mod dispatcher;
pub mod goal_cache;
pub mod service;
pub mod verify;

pub use dispatcher::{
    Diagnosis, DispatchConfig, Dispatcher, FailureReason, ProverId, Verdict, VerdictKind,
};
pub use goal_cache::{normalize, GoalCache, NormalGoal};
pub use jahob_util::budget::{Budget, Exhaustion, INFINITE_FUEL};
pub use jahob_util::chaos::{Fault, FaultPlan, Lie, SocketFault};
pub use jahob_util::obs::{Event, JsonlSink, MemorySink, NullSink, Recorder, Sink, StderrSink};
pub use service::{Client, Service, ServiceStatus, SubmitOptions, SubmitOutcome};
pub use verify::{
    Config, ConfigBuilder, Isolation, MethodReport, ObligationReport, ReportRender, RequestOptions,
    VerdictSummary, Verifier, VerifyError, VerifyReport,
};
