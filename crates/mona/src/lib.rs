//! `jahob-mona`: a WS1S decision procedure — the MONA substitute.
//!
//! Jahob used "monadic second-order logic over trees to reason about
//! reachability in linked data structures" via the MONA tool \[40\]. This
//! crate reimplements the automata-theoretic decision procedure for **WS1S**
//! (weak monadic second-order logic of one successor), which suffices for
//! the *list* backbones every case study in the paper uses: a singly-linked
//! list's `next` field is a function whose graph, under the `tree
//! [List.first, Node.next]` invariant, is a finite word.
//!
//! Architecture (exactly MONA's, minus the BDD-compressed transition
//! representation — we use explicit alphabets, which is fine at the track
//! counts Jahob-style obligations need):
//!
//! * [`dfa`] — deterministic automata over bit-vector alphabets `2^k`
//!   (one track per variable): product, complement, projection (via the NFA
//!   subset construction), minimization (Moore), emptiness, shortest
//!   accepting word.
//! * [`ws1s`] — the logic layer: formulas over second-order variables
//!   (finite sets of naturals) and first-order variables (singletons),
//!   compiled to automata; deciding validity/satisfiability; counter-model
//!   extraction.
//! * [`segments`] — the bridge used by the heap provers: encodings of
//!   list-segment reasoning (reachability along one functional field) as
//!   WS1S sentences, used by E7's benchmark families.
//!
//! Every automaton construction and [`ws1s::decide`],
//! [`ws1s::satisfiable`] and [`ws1s::compile_opts`] take the caller's
//! [`Budget`](jahob_util::Budget); the last three answer
//! [`Failure::Unsupported`](jahob_util::Failure::Unsupported) past the
//! track limit or, for `decide`, on a formula with free variables.

pub mod dfa;
pub mod segments;
pub mod ws1s;

pub use dfa::Dfa;
pub use ws1s::{decide, WsForm, WsVerdict};
