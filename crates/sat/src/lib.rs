//! `jahob-sat`: a CDCL SAT solver.
//!
//! Jahob-era decision procedures lean on propositional reasoning in several
//! places: the DPLL(T) core of the Nelson–Oppen combination (`jahob-smt`)
//! and the bounded model finder that substitutes for the Alloy Analyzer
//! (`jahob-models`). This crate provides the shared engine: a
//! conflict-driven clause-learning solver with two-watched-literal
//! propagation, first-UIP learning with clause minimization, VSIDS-style
//! activity decisions with phase saving, and Luby restarts.
//!
//! The solver supports incremental use — clauses added between solves,
//! assumptions ([`Solver::solve_with_assumptions`]), and a mark to roll
//! back to ([`Solver::mark`], [`Solver::rollback`]) — which the model
//! finder's sessions and spurious-model loop and the DPLL(T) theory loop
//! rely on. Both build their propositional structure through one gate
//! builder, [`CnfBuilder`], which rolls back with its solver.

pub mod cnf;
pub mod solver;

pub use cnf::{CnfBuilder, CnfMark};
pub use solver::{Lit, Mark, SolveResult, Solver, Var};
