//! Translation from the specification logic to Presburger formulas.
//!
//! Accepts the linear-integer-arithmetic fragment: integer variables and
//! literals, `+`, `-`, unary minus, multiplication by constants, the
//! comparisons `<`, `<=`, `=`, boolean connectives, and quantifiers over
//! `int`-sorted binders. Anything else (sets, objects, fields, `card`) is
//! [`Failure::Unsupported`] and the dispatcher routes the goal elsewhere —
//! cardinality atoms go through `jahob-bapa`, which produces [`PForm`]s
//! itself.

use crate::cooper::PForm;
use crate::linterm::LinTerm;
use jahob_logic::{BinOp, Form, QKind, Sort, UnOp};
use jahob_util::budget::{unsupported, Budget, Failure};

/// Translate an integer-sorted term to a linear term.
pub fn term_to_linterm(form: &Form) -> Result<LinTerm, Failure> {
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
                unsupported("nonlinear multiplication")
            }
        }
        other => unsupported(format!("non-arithmetic term `{other}`")),
    }
}

/// Translate a boolean formula in the LIA fragment to a [`PForm`].
pub fn form_to_pform(form: &Form) -> Result<PForm, Failure> {
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
                    return unsupported(format!("quantifier over non-int binder `{name}`"));
                }
                out = match kind {
                    QKind::All => PForm::All(*name, Box::new(out)),
                    QKind::Ex => PForm::Ex(*name, Box::new(out)),
                };
            }
            Ok(out)
        }
        other => unsupported(format!("non-LIA formula `{other}`")),
    }
}

/// Decide validity of a formula in the LIA fragment (free variables
/// universally quantified), separating "wrong fragment" from "ran out of
/// resources" so the dispatcher can record an honest failure reason.
pub fn decide_valid(form: &Form, budget: &Budget) -> Result<bool, Failure> {
    let p = form_to_pform(form)?;
    Ok(crate::cooper::valid(&p, budget)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    #[test]
    fn translates_paper_style_arithmetic() {
        assert_eq!(
            decide_valid(&form("x + 1 > x"), &Budget::unlimited()),
            Ok(true)
        );
        assert_eq!(
            decide_valid(&form("x < y --> x + 1 <= y"), &Budget::unlimited()),
            Ok(true)
        );
        assert_eq!(
            decide_valid(&form("x < y & y < z --> x < z"), &Budget::unlimited()),
            Ok(true)
        );
        assert_eq!(
            decide_valid(&form("x <= y --> x < y"), &Budget::unlimited()),
            Ok(false)
        );
        assert_eq!(
            decide_valid(&form("2 * x ~= 2 * y + 1"), &Budget::unlimited()),
            Ok(true)
        );
    }

    #[test]
    fn quantified() {
        assert_eq!(
            decide_valid(&form("ALL i::int. EX j::int. i < j"), &Budget::unlimited()),
            Ok(true)
        );
        assert_eq!(
            decide_valid(&form("EX j::int. ALL i::int. i < j"), &Budget::unlimited()),
            Ok(false)
        );
        assert_eq!(
            decide_valid(
                &form("ALL i::int. i = 2 * i --> i = 0"),
                &Budget::unlimited()
            ),
            Ok(true)
        );
    }

    #[test]
    fn rejects_non_lia() {
        assert!(decide_valid(&form("x : S"), &Budget::unlimited()).is_err());
        assert!(decide_valid(&form("card S <= 3"), &Budget::unlimited()).is_err());
        assert!(decide_valid(&form("x * y = y * x"), &Budget::unlimited()).is_err());
        assert!(decide_valid(&form("f x = f x"), &Budget::unlimited()).is_err());
    }

    #[test]
    fn unelaborated_binders_accepted_as_int() {
        // In the prove-CLI path, quantifiers may arrive pre-elaboration with
        // unknown binder sorts; the LIA translation takes them as int.
        assert_eq!(
            decide_valid(&form("ALL n. n <= n"), &Budget::unlimited()),
            Ok(true)
        );
    }
}
