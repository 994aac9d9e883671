//! `jahob-vcgen`: the verification-condition generator.
//!
//! §2.4: "The Jahob framework is ... set up as a verification condition
//! generator that can invoke any one of a number of decision procedures to
//! discharge the proof obligations." This crate implements that generator:
//!
//! * method bodies desugar to a guarded-command IR ([`gc::GC`]): `assume`,
//!   labeled `assert`, assignment (fields update with `fieldWrite`), havoc,
//!   sequencing, and nondeterministic choice;
//! * calls are replaced by their contracts (assert precondition, update the
//!   modified state, assume postcondition) — the *modular* analysis of §1;
//! * loops are cut at their invariants (provided in the source; `jahob-shape`
//!   can infer candidates that are checked the same way — "speculative
//!   engines that may generate incorrect loop invariants ... detected and
//!   rejected");
//! * weakest preconditions are computed backwards over labeled
//!   postconditions, entirely by substitution (no function-equality
//!   snapshots); `old e` is frozen during substitution and dissolves at the
//!   method entry point;
//! * each method yields a list of labeled [`Obligation`]s: the postcondition,
//!   each class invariant re-established on `this`, every inline `assert`,
//!   and a null-dereference check per field access.

pub mod gc;
pub mod method;

pub use gc::{Obligation, GC};
pub use method::{method_obligations, MethodVcs, VcgenError};
