//! Translation from the specification logic to Presburger formulas.
//!
//! Accepts the linear-integer-arithmetic fragment: integer variables and
//! literals, `+`, `-`, unary minus, multiplication by constants, the
//! comparisons `<`, `<=`, `=`, boolean connectives, and quantifiers over
//! `int`-sorted binders. Anything else (sets, objects, fields, `card`) is a
//! [`TranslateError`] and the dispatcher routes the goal elsewhere —
//! cardinality atoms go through `jahob-bapa`, which produces [`PForm`]s
//! itself.

use crate::cooper::PForm;
use crate::linterm::LinTerm;
use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
use jahob_util::budget::{Budget, Exhaustion};
use std::fmt;

/// Why a formula is outside the LIA fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    pub message: String,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not in the Presburger fragment: {}", self.message)
    }
}

impl std::error::Error for TranslateError {}

fn err<T>(message: impl Into<String>) -> Result<T, TranslateError> {
    Err(TranslateError {
        message: message.into(),
    })
}

/// Translate an integer-sorted term to a linear term.
pub fn term_to_linterm(form: &Form) -> Result<LinTerm, TranslateError> {
    match form {
        Form::Var(name) => Ok(LinTerm::var(*name)),
        Form::IntLit(n) => Ok(LinTerm::constant(*n)),
        Form::Unop(UnOp::Neg, inner) => Ok(term_to_linterm(inner)?.scale(-1)),
        Form::Binop(BinOp::Add, lhs, rhs) => Ok(term_to_linterm(lhs)?.add(&term_to_linterm(rhs)?)),
        Form::Binop(BinOp::Sub, lhs, rhs) => Ok(term_to_linterm(lhs)?.sub(&term_to_linterm(rhs)?)),
        Form::Binop(BinOp::Mul, lhs, rhs) => {
            let l = term_to_linterm(lhs)?;
            let r = term_to_linterm(rhs)?;
            if l.is_constant() {
                Ok(r.scale(l.konst))
            } else if r.is_constant() {
                Ok(l.scale(r.konst))
            } else {
                err("nonlinear multiplication")
            }
        }
        other => err(format!("non-arithmetic term `{other}`")),
    }
}

/// Translate a boolean formula in the LIA fragment to a [`PForm`].
pub fn form_to_pform(form: &Form) -> Result<PForm, TranslateError> {
    match form {
        Form::BoolLit(true) => Ok(PForm::True),
        Form::BoolLit(false) => Ok(PForm::False),
        Form::And(parts) => Ok(PForm::and(
            parts.iter().map(form_to_pform).collect::<Result<_, _>>()?,
        )),
        Form::Or(parts) => Ok(PForm::or(
            parts.iter().map(form_to_pform).collect::<Result<_, _>>()?,
        )),
        Form::Unop(UnOp::Not, inner) => Ok(PForm::not(form_to_pform(inner)?)),
        Form::Binop(BinOp::Implies, lhs, rhs) => Ok(PForm::or(vec![
            PForm::not(form_to_pform(lhs)?),
            form_to_pform(rhs)?,
        ])),
        Form::Binop(BinOp::Iff, lhs, rhs) => {
            let l = form_to_pform(lhs)?;
            let r = form_to_pform(rhs)?;
            Ok(PForm::and(vec![
                PForm::or(vec![PForm::not(l.clone()), r.clone()]),
                PForm::or(vec![l, PForm::not(r)]),
            ]))
        }
        Form::Binop(BinOp::Lt, lhs, rhs) => {
            Ok(PForm::lt(term_to_linterm(lhs)?, term_to_linterm(rhs)?))
        }
        Form::Binop(BinOp::Le, lhs, rhs) => {
            Ok(PForm::le(term_to_linterm(lhs)?, term_to_linterm(rhs)?))
        }
        Form::Binop(BinOp::Eq, lhs, rhs) => {
            Ok(PForm::eq(term_to_linterm(lhs)?, term_to_linterm(rhs)?))
        }
        Form::Quant(kind, binders, body) => {
            let mut out = form_to_pform(body)?;
            for (name, sort) in binders.iter().rev() {
                if !matches!(sort, Sort::Int | Sort::Var(_)) {
                    return err(format!("quantifier over non-int binder `{name}`"));
                }
                out = match kind {
                    QKind::All => PForm::All(*name, Box::new(out)),
                    QKind::Ex => PForm::Ex(*name, Box::new(out)),
                };
            }
            Ok(out)
        }
        other => err(format!("non-LIA formula `{other}`")),
    }
}

/// Decide validity of a formula in the LIA fragment (free variables
/// universally quantified). `Err` means "not my fragment".
pub fn decide_valid(form: &Form) -> Result<bool, TranslateError> {
    let p = form_to_pform(form)?;
    Ok(crate::cooper::valid(&p))
}

/// Why a budgeted Presburger decision did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PresburgerFailure {
    /// The goal is outside the LIA fragment — route it elsewhere.
    Fragment(TranslateError),
    /// The budget ran out mid-elimination.
    Exhausted(Exhaustion),
}

impl fmt::Display for PresburgerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PresburgerFailure::Fragment(e) => e.fmt(f),
            PresburgerFailure::Exhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PresburgerFailure {}

/// Budgeted [`decide_valid`], separating "wrong fragment" from "ran out of
/// resources" so the dispatcher can record an honest failure reason.
pub fn decide_valid_budgeted(form: &Form, budget: &Budget) -> Result<bool, PresburgerFailure> {
    let p = form_to_pform(form).map_err(PresburgerFailure::Fragment)?;
    crate::cooper::valid_budgeted(&p, budget).map_err(PresburgerFailure::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    #[test]
    fn translates_paper_style_arithmetic() {
        assert_eq!(decide_valid(&form("x + 1 > x")), Ok(true));
        assert_eq!(decide_valid(&form("x < y --> x + 1 <= y")), Ok(true));
        assert_eq!(decide_valid(&form("x < y & y < z --> x < z")), Ok(true));
        assert_eq!(decide_valid(&form("x <= y --> x < y")), Ok(false));
        assert_eq!(decide_valid(&form("2 * x ~= 2 * y + 1")), Ok(true));
    }

    #[test]
    fn quantified() {
        assert_eq!(
            decide_valid(&form("ALL i::int. EX j::int. i < j")),
            Ok(true)
        );
        assert_eq!(
            decide_valid(&form("EX j::int. ALL i::int. i < j")),
            Ok(false)
        );
        assert_eq!(
            decide_valid(&form("ALL i::int. i = 2 * i --> i = 0")),
            Ok(true)
        );
    }

    #[test]
    fn rejects_non_lia() {
        assert!(decide_valid(&form("x : S")).is_err());
        assert!(decide_valid(&form("card S <= 3")).is_err());
        assert!(decide_valid(&form("x * y = y * x")).is_err());
        assert!(decide_valid(&form("f x = f x")).is_err());
    }

    #[test]
    fn unelaborated_binders_accepted_as_int() {
        // In the prove-CLI path, quantifiers may arrive pre-elaboration with
        // unknown binder sorts; the LIA translation takes them as int.
        assert_eq!(decide_valid(&form("ALL n. n <= n")), Ok(true));
    }
}
