//! Shared low-level substrate for the `jahob-rs` workspace.
//!
//! This crate deliberately has no dependencies. It provides the handful of
//! data structures that almost every other crate in the workspace needs:
//!
//! * [`fxhash`] — a fast, non-cryptographic hasher (the FxHash algorithm used
//!   inside rustc) plus `HashMap`/`HashSet` aliases built on it. Hashing is on
//!   the hot path of the congruence closure, the automata library, and the
//!   interner, and SipHash is measurably slower for the short integer keys we
//!   use everywhere.
//! * [`intern`] — a global string interner producing copy-able [`intern::Symbol`]
//!   handles, so formula ASTs compare names by `u32` equality.
//! * [`union_find`] — path-compressing union-find, used by the congruence
//!   closure and by DFA minimization.
//! * [`bitset`] — a fixed-capacity bitset, used by automata subset
//!   construction and the Boolean-heap shape domain.
//! * [`counters`] — lightweight named statistics counters for the benchmark
//!   harness and the dispatcher report.
//! * [`budget`] — cooperative resource budgets (deadline + fuel) threaded
//!   through every prover so no substrate can hang a verification run.
//! * [`chaos`] — deterministic, seeded fault plans, for testing fault
//!   handling under adversarial conditions: the dispatcher decides
//!   prover faults at its `dispatch.*` sites, the store disk faults, and
//!   the daemon socket faults.
//! * [`pool`] — a small work-stealing thread pool (panic isolation per
//!   task, worker-local state) that the verification pipeline uses to
//!   fan methods out across cores.
//! * [`trace`] — the cached `JAHOB_TRACE` diagnostic flag.
//! * [`obs`] — the structured observability pipeline: typed events for
//!   run/method/obligation/attempt spans, pluggable sinks, and the
//!   recorder the dispatcher threads through the hot path.
//! * [`json`] — a tiny hand-rolled JSON writer backing [`obs`] and the
//!   verification report serialization (the workspace has no deps).
//! * [`store`] — a crash-safe, checksummed snapshot file that persists
//!   the goal cache across processes; corruption degrades to a cold
//!   cache, never a wrong answer.
//! * [`ipc`] — the length-prefixed, CRC-framed protocol spoken between
//!   the verification daemon and its clients, plus the little binary
//!   codec the frames carry.

pub mod bitset;
pub mod budget;
pub mod chaos;
pub mod counters;
pub mod fxhash;
pub mod intern;
pub mod ipc;
pub mod json;
pub mod obs;
pub mod pool;
pub mod store;
pub mod trace;
pub mod union_find;

pub use bitset::BitSet;
pub use budget::{Budget, Exhaustion, Failure};
pub use chaos::{DiskFault, Fault, FaultPlan, Lie, SocketFault};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::{FreshScope, Symbol};
pub use obs::{Event, JsonlSink, MemorySink, NullSink, Recorder, Sink, StderrSink};
pub use trace::trace_enabled;
pub use union_find::UnionFind;
