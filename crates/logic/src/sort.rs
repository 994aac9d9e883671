//! The sort (type) language of the specification logic, with unification.
//!
//! Jahob's logic is simply typed. The base sorts are `bool`, `int`, and `obj`
//! (heap objects, including `null`); sets and functions are built on top.
//! The annotation surface syntax names `Set(Obj)` as `objset` and `Set(Int)`
//! as `intset`.
//!
//! Sort inference ([`crate::infer`]) works over sorts containing inference
//! variables ([`Sort::Var`]), resolved by the [`SortTable`] unifier here.

use std::fmt;

/// A sort (type) of the logic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Truth values.
    Bool,
    /// Mathematical integers.
    Int,
    /// Heap objects (including the distinguished `null`).
    Obj,
    /// Sets of elements of the given sort. Only `Set(Obj)` and `Set(Int)`
    /// appear in well-sorted Jahob programs, but the unifier is generic.
    Set(Box<Sort>),
    /// Total functions. Fields are `Fun([Obj], T)`; binary predicates passed
    /// to `rtrancl_pt` are `Fun([Obj, Obj], Bool)`.
    Fun(Vec<Sort>, Box<Sort>),
    /// A sort-inference variable (only during inference).
    Var(u32),
}

impl Sort {
    /// The sort of object sets, `objset` in the surface syntax.
    pub fn objset() -> Sort {
        Sort::Set(Box::new(Sort::Obj))
    }

    /// The sort of integer sets, `intset` in the surface syntax.
    pub fn intset() -> Sort {
        Sort::Set(Box::new(Sort::Int))
    }

    /// A field sort `obj => t`.
    pub fn field(target: Sort) -> Sort {
        Sort::Fun(vec![Sort::Obj], Box::new(target))
    }

    /// Does this sort contain any inference variables?
    pub fn is_ground(&self) -> bool {
        match self {
            Sort::Bool | Sort::Int | Sort::Obj => true,
            Sort::Set(e) => e.is_ground(),
            Sort::Fun(args, ret) => args.iter().all(Sort::is_ground) && ret.is_ground(),
            Sort::Var(_) => false,
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "bool"),
            Sort::Int => write!(f, "int"),
            Sort::Obj => write!(f, "obj"),
            Sort::Set(e) => match **e {
                Sort::Obj => write!(f, "objset"),
                Sort::Int => write!(f, "intset"),
                ref other => write!(f, "({other} set)"),
            },
            Sort::Fun(args, ret) => {
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, " => ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " => {ret})")
            }
            Sort::Var(v) => write!(f, "?s{v}"),
        }
    }
}

/// A union-find style substitution table for sort variables.
#[derive(Default, Debug, Clone)]
pub struct SortTable {
    /// `bindings[v]` is the sort bound to variable `v`, if any.
    bindings: Vec<Option<Sort>>,
}

/// A sort unification failure: the two sorts that clashed (after resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnifyError {
    pub left: Sort,
    pub right: Sort,
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sort mismatch: {} vs {}", self.left, self.right)
    }
}

impl SortTable {
    /// Fresh empty table.
    pub fn new() -> Self {
        SortTable::default()
    }

    /// Allocate a fresh inference variable.
    pub fn fresh(&mut self) -> Sort {
        let v = self.bindings.len() as u32;
        self.bindings.push(None);
        Sort::Var(v)
    }

    /// Resolve the outermost binding of `s` (shallow): the first sort
    /// along its chain of bound variables that is not a bound variable.
    pub(crate) fn shallow<'a>(&'a self, mut s: &'a Sort) -> &'a Sort {
        while let Sort::Var(v) = s {
            match &self.bindings[*v as usize] {
                Some(bound) => s = bound,
                None => break,
            }
        }
        s
    }

    /// Fully resolve `s`, substituting all bound variables recursively.
    /// Unbound variables default to `Obj` — the only sort Jahob quantifiers
    /// range over when unannotated (e.g. `ALL n. ...` over heap nodes).
    pub fn resolve_default(&self, s: &Sort) -> Sort {
        match self.shallow(s) {
            Sort::Var(_) => Sort::Obj,
            Sort::Bool => Sort::Bool,
            Sort::Int => Sort::Int,
            Sort::Obj => Sort::Obj,
            Sort::Set(e) => Sort::Set(Box::new(self.resolve_default(e))),
            Sort::Fun(args, ret) => Sort::Fun(
                args.iter().map(|a| self.resolve_default(a)).collect(),
                Box::new(self.resolve_default(ret)),
            ),
        }
    }

    /// Fully resolve `s`, keeping unbound variables as variables.
    pub fn resolve(&self, s: &Sort) -> Sort {
        match self.shallow(s) {
            Sort::Var(v) => Sort::Var(*v),
            Sort::Bool => Sort::Bool,
            Sort::Int => Sort::Int,
            Sort::Obj => Sort::Obj,
            Sort::Set(e) => Sort::Set(Box::new(self.resolve(e))),
            Sort::Fun(args, ret) => Sort::Fun(
                args.iter().map(|a| self.resolve(a)).collect(),
                Box::new(self.resolve(ret)),
            ),
        }
    }

    /// Does variable `v` occur in `s` (after resolution)? Guards against
    /// infinite sorts.
    fn occurs(&self, v: u32, s: &Sort) -> bool {
        match self.shallow(s) {
            Sort::Var(w) => *w == v,
            Sort::Bool | Sort::Int | Sort::Obj => false,
            Sort::Set(e) => self.occurs(v, e),
            Sort::Fun(args, ret) => args.iter().any(|a| self.occurs(v, a)) || self.occurs(v, ret),
        }
    }

    /// Unify two sorts, extending the binding table. Equal sorts unify by
    /// comparison and sorts of the same shape part by part, with no
    /// clones; only a variable bound to a compound sort is copied out of
    /// the table.
    pub fn unify(&mut self, a: &Sort, b: &Sort) -> Result<(), UnifyError> {
        match (a, b) {
            _ if a == b => Ok(()),
            (Sort::Var(v), _) if self.bindings[*v as usize].is_some() => {
                let bound = self.bindings[*v as usize].clone().expect("bound");
                self.unify(&bound, b)
            }
            (_, Sort::Var(w)) if self.bindings[*w as usize].is_some() => {
                let bound = self.bindings[*w as usize].clone().expect("bound");
                self.unify(a, &bound)
            }
            (Sort::Var(v), other) | (other, Sort::Var(v)) => {
                if self.occurs(*v, other) {
                    return Err(UnifyError {
                        left: Sort::Var(*v),
                        right: other.clone(),
                    });
                }
                self.bindings[*v as usize] = Some(other.clone());
                Ok(())
            }
            (Sort::Set(x), Sort::Set(y)) => self.unify(x, y),
            (Sort::Fun(a1, r1), Sort::Fun(a2, r2)) if a1.len() == a2.len() => {
                for (x, y) in a1.iter().zip(a2) {
                    self.unify(x, y)?;
                }
                self.unify(r1, r2)
            }
            (Sort::Fun(..), Sort::Fun(..)) => Err(UnifyError {
                left: a.clone(),
                right: b.clone(),
            }),
            _ => Err(UnifyError {
                left: self.resolve(a),
                right: self.resolve(b),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(Sort::objset().to_string(), "objset");
        assert_eq!(Sort::intset().to_string(), "intset");
        assert_eq!(Sort::field(Sort::Obj).to_string(), "(obj => obj)");
        assert_eq!(
            Sort::Fun(vec![Sort::Obj, Sort::Obj], Box::new(Sort::Bool)).to_string(),
            "(obj => obj => bool)"
        );
    }

    #[test]
    fn unify_base() {
        let mut t = SortTable::new();
        assert!(t.unify(&Sort::Int, &Sort::Int).is_ok());
        assert!(t.unify(&Sort::Int, &Sort::Obj).is_err());
    }

    #[test]
    fn unify_via_variable() {
        let mut t = SortTable::new();
        let v = t.fresh();
        t.unify(&v, &Sort::objset()).unwrap();
        assert_eq!(t.resolve(&v), Sort::objset());
        // Now v is objset, so unifying with intset must fail.
        assert!(t.unify(&v, &Sort::intset()).is_err());
    }

    #[test]
    fn unify_functions() {
        let mut t = SortTable::new();
        let v = t.fresh();
        let f1 = Sort::Fun(vec![Sort::Obj], Box::new(v.clone()));
        let f2 = Sort::field(Sort::Int);
        t.unify(&f1, &f2).unwrap();
        assert_eq!(t.resolve(&v), Sort::Int);
    }

    #[test]
    fn occurs_check() {
        let mut t = SortTable::new();
        let v = t.fresh();
        let s = Sort::Set(Box::new(v.clone()));
        assert!(t.unify(&v, &s).is_err());
    }

    #[test]
    fn default_resolution_is_obj() {
        let mut t = SortTable::new();
        let v = t.fresh();
        assert_eq!(t.resolve_default(&v), Sort::Obj);
        let s = Sort::Set(Box::new(v));
        assert_eq!(t.resolve_default(&s), Sort::objset());
    }

    #[test]
    fn chain_resolution() {
        let mut t = SortTable::new();
        let a = t.fresh();
        let b = t.fresh();
        t.unify(&a, &b).unwrap();
        t.unify(&b, &Sort::Int).unwrap();
        assert_eq!(t.resolve(&a), Sort::Int);
    }
}
