//! `jahob-presburger`: decision procedures for Presburger arithmetic.
//!
//! Jahob discharged arithmetic proof obligations with "a decision procedure
//! for Boolean Algebra with Presburger Arithmetic based on reduction to the
//! Omega decision procedure for Presburger arithmetic" (§3, citing Pugh's
//! Omega test). This crate supplies both halves of that story:
//!
//! * [`cooper`] — Cooper's quantifier-elimination procedure, a complete
//!   decision procedure for *full* Presburger arithmetic (arbitrary
//!   quantifier alternation). This is the engine `jahob-bapa` reduces to.
//! * [`omega`] — the Omega test (Pugh 1991): an integer-programming style
//!   satisfiability check for *existential* conjunctions of linear
//!   constraints, with real-shadow/dark-shadow reasoning and exact
//!   splintering. Faster than Cooper on the quantifier-free conjunctions the
//!   VC generator mostly emits; benchmarked against Cooper in E9.
//! * [`translate`] — mapping the linear-integer-arithmetic fragment of the
//!   specification logic (`jahob_logic::Form`) into [`cooper::PForm`].
//!
//! Each procedure has one entry, and it takes the caller's
//! [`Budget`](jahob_util::Budget): Cooper's [`cooper::valid`],
//! [`cooper::sat`] and [`decide_closed`] answer or report exhaustion, and
//! [`translate::decide_valid`], the dispatcher's entry, also answers
//! [`Failure::Unsupported`](jahob_util::Failure::Unsupported) for a goal
//! outside the fragment.

pub mod cooper;
pub mod linterm;
pub mod omega;
pub mod translate;

pub use cooper::{decide_closed, eliminate_quantifiers, PAtom, PForm};
pub use linterm::LinTerm;
pub use omega::{omega_sat, Constraint, ConstraintKind, OmegaResult};
pub use translate::form_to_pform;
