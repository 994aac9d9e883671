//! `jahob-javalite`: the Java-subset + annotation frontend.
//!
//! Jahob programs are "written in a subset of Java" with specifications in
//! special comments (`/*: ... */`, `//: ...`) that a standard Java compiler
//! ignores (§2). This crate parses exactly the subset the paper's figures
//! use — classes, object/boolean/int fields, methods with bodies built from
//! locals, assignments, field reads/writes, `new`, `if`, `while`, `return`,
//! and method calls — together with the full annotation language:
//!
//! * `specvar` / `ghost specvar` declarations,
//! * `vardefs` abstraction functions (the formal connection between
//!   concrete state and abstract state, §2.3),
//! * class `invariant`s,
//! * method contracts (`requires` / `modifies` / `ensures`),
//! * loop invariants (`/*: inv "..." */` after `while`),
//! * ghost assignments (`//: init := "True";`),
//! * `assert` / `assume` / `noteThat` intermediate assertions (§3 "by
//!   providing intermediate assertions we have verified ..."),
//! * `claimedby` field encapsulation claims,
//! * `assuming` method-summary annotations (bodies taken as specified but
//!   not verified — how the paper's game case study is "partially
//!   verified").
//!
//! [`resolve`] typechecks the program, builds the global logical signature
//! (fields and per-instance specvars become `obj => T` functions) and
//! qualifies the names in annotations. It runs no sort inference: the
//! overloaded operators leave the frontend as parsed. `jahob-logic`'s sort
//! inference elaborates each verification condition once, in the
//! dispatcher (`jahob::Dispatcher::prepare`), and the pieces the
//! obligation splits into inherit its sorts.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod resolve;

pub use ast::*;
pub use parser::{parse_program, FrontendError};
pub use resolve::{resolve, TypedProgram};
