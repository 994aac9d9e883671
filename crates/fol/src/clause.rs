//! Clausification: specification-logic formulas → first-order clauses.
//!
//! Pipeline: NNF → skolemize existentials → drop universal prefixes
//! (clause variables are implicitly universal) → distribute ∨ over ∧
//! (bounded) → literals. Equality is a distinguished predicate `$eq`; the
//! prover adds its axioms.

use crate::term::FTerm;
use jahob_logic::{transform, BinOp, Form, QKind, UnOp};
use jahob_util::budget::{unsupported, Failure};
use jahob_util::{FxHashMap, FxHashSet, Symbol};
use std::fmt;

/// A literal: possibly negated atom `Pred(args)`. Equality uses the
/// distinguished predicate [`eq_pred`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    pub positive: bool,
    pub pred: Symbol,
    pub args: Vec<FTerm>,
}

/// The distinguished equality predicate.
pub fn eq_pred() -> Symbol {
    Symbol::intern("$eq")
}

impl Literal {
    pub fn negate(&self) -> Literal {
        Literal {
            positive: !self.positive,
            pred: self.pred,
            args: self.args.clone(),
        }
    }

    pub fn apply(&self, subst: &crate::term::Subst) -> Literal {
        Literal {
            positive: self.positive,
            pred: self.pred,
            args: self.args.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    pub fn shift(&self, offset: u32) -> Literal {
        Literal {
            positive: self.positive,
            pred: self.pred,
            args: self.args.iter().map(|a| a.shift(offset)).collect(),
        }
    }

    pub fn size(&self) -> usize {
        1 + self.args.iter().map(FTerm::size).sum::<usize>()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "~")?;
        }
        if self.pred == eq_pred() && self.args.len() == 2 {
            return write!(f, "{} = {}", self.args[0], self.args[1]);
        }
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A clause: implicit universal closure of a disjunction of literals.
/// Variables are numbered per clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    pub literals: Vec<Literal>,
}

impl Clause {
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    pub fn size(&self) -> usize {
        self.literals.iter().map(Literal::size).sum()
    }

    pub fn num_vars(&self) -> u32 {
        let mut vars = Vec::new();
        for lit in &self.literals {
            for a in &lit.args {
                a.vars(&mut vars);
            }
        }
        vars.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Normalize: sort and dedup literals; detect tautologies (both a
    /// literal and its negation, or trivial `t = t`).
    pub fn normalize(mut self) -> Option<Clause> {
        self.literals.sort();
        self.literals.dedup();
        let mut set: FxHashSet<(bool, Symbol, Vec<FTerm>)> = FxHashSet::default();
        for lit in &self.literals {
            if lit.positive && lit.pred == eq_pred() && lit.args[0] == lit.args[1] {
                return None; // t = t is valid: clause is a tautology
            }
            if set.contains(&(!lit.positive, lit.pred, lit.args.clone())) {
                return None; // P and ~P
            }
            set.insert((lit.positive, lit.pred, lit.args.clone()));
        }
        // Drop trivially false literals ~ (t = t).
        self.literals
            .retain(|lit| !(!lit.positive && lit.pred == eq_pred() && lit.args[0] == lit.args[1]));
        Some(self)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "⊥");
        }
        for (i, lit) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{lit}")?;
        }
        Ok(())
    }
}

/// Upper bound on generated clauses per input formula (CNF distribution can
/// explode; refuse rather than drown the prover).
const MAX_CLAUSES: usize = 2000;

/// Clausify a formula read as an *assertion* (satisfiability direction —
/// callers negate goals themselves).
pub fn clausify(form: &Form) -> Result<Vec<Clause>, Failure> {
    let simplified = transform::simplify(form);
    let (skolemized, _) = transform::skolemize(&simplified);
    let mut ctx = Clausifier {
        var_map: Vec::new(),
    };
    let matrix = ctx.strip_universals(&skolemized);
    let clauses = ctx.cnf(&matrix)?;
    Ok(clauses
        .into_iter()
        .filter_map(|c| Clause { literals: c }.normalize())
        .collect())
}

struct Clausifier {
    /// Bound-variable stack: symbol → clause variable id.
    var_map: Vec<Symbol>,
}

impl Clausifier {
    fn strip_universals(&mut self, form: &Form) -> Form {
        // Universal binders become free clause variables; keep a mapping by
        // *name* (skolemization already renamed binders apart via prenex
        // hoisting in transform::skolemize's NNF pass... binders may still
        // collide, so rename apart here).
        match form {
            Form::Quant(QKind::All, binders, body) => {
                let mut renamed = body.as_ref().clone();
                let mut map = FxHashMap::default();
                for (name, _) in binders {
                    let fresh = Symbol::fresh(*name);
                    map.insert(*name, Form::Var(fresh));
                    self.var_map.push(fresh);
                }
                if !map.is_empty() {
                    renamed = renamed.subst(&map);
                }
                self.strip_universals(&renamed)
            }
            Form::And(parts) => Form::and(parts.iter().map(|p| self.strip_universals(p)).collect()),
            Form::Or(parts) => Form::or(parts.iter().map(|p| self.strip_universals(p)).collect()),
            other => other.clone(),
        }
    }

    fn cnf(&mut self, form: &Form) -> Result<Vec<Vec<Literal>>, Failure> {
        match form {
            Form::BoolLit(true) => Ok(vec![]),
            Form::BoolLit(false) => Ok(vec![vec![]]),
            Form::And(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.cnf(p)?);
                    if out.len() > MAX_CLAUSES {
                        return unsupported("clause explosion");
                    }
                }
                Ok(out)
            }
            Form::Or(parts) => {
                let mut acc: Vec<Vec<Literal>> = vec![vec![]];
                for p in parts {
                    let branch = self.cnf(p)?;
                    let mut next = Vec::new();
                    for a in &acc {
                        for b in &branch {
                            let mut c = a.clone();
                            c.extend(b.iter().cloned());
                            next.push(c);
                            if next.len() > MAX_CLAUSES {
                                return unsupported("clause explosion");
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
            Form::Quant(QKind::All, _, _) => {
                // Inner universal (under a disjunction after NNF): hoist.
                let stripped = self.strip_universals(form);
                self.cnf(&stripped)
            }
            Form::Quant(QKind::Ex, _, _) => unsupported("unskolemized existential"),
            Form::Unop(UnOp::Not, inner) => {
                let lit = self.literal(inner, false)?;
                Ok(vec![vec![lit]])
            }
            atom => {
                let lit = self.literal(atom, true)?;
                Ok(vec![vec![lit]])
            }
        }
    }

    fn literal(&mut self, atom: &Form, positive: bool) -> Result<Literal, Failure> {
        match atom {
            Form::Binop(BinOp::Eq | BinOp::Iff, a, b) => Ok(Literal {
                positive,
                pred: eq_pred(),
                args: vec![self.term(a)?, self.term(b)?],
            }),
            Form::Var(_) | Form::App(_, _) => {
                let t = self.term(atom)?;
                match t {
                    FTerm::Fun(pred, args) => Ok(Literal {
                        positive,
                        pred,
                        args,
                    }),
                    FTerm::Var(_) => unsupported("variable in predicate position"),
                }
            }
            other => unsupported(format!("atom outside first-order logic: `{other}`")),
        }
    }

    fn term(&mut self, form: &Form) -> Result<FTerm, Failure> {
        match form {
            Form::Var(name) => {
                // Clause variable if bound by a stripped universal; else a
                // constant.
                match self.var_map.iter().position(|v| v == name) {
                    Some(i) => Ok(FTerm::Var(i as u32)),
                    None => Ok(FTerm::constant(*name)),
                }
            }
            Form::Null => Ok(FTerm::constant(Symbol::intern("$null"))),
            Form::BoolLit(b) => Ok(FTerm::constant(Symbol::intern(if *b {
                "$true"
            } else {
                "$false"
            }))),
            Form::IntLit(n) => Ok(FTerm::constant(Symbol::intern(&format!("$int{n}")))),
            Form::App(head, args) => {
                let f = match head.as_ref() {
                    Form::Var(name) => *name,
                    other => return unsupported(format!("higher-order head `{other}`")),
                };
                let mut ts = Vec::with_capacity(args.len());
                for a in args {
                    ts.push(self.term(a)?);
                }
                Ok(FTerm::Fun(f, ts))
            }
            other => unsupported(format!("term outside first-order logic: `{other}`")),
        }
    }
}

/// Symbols with their arities, as collected from a clause set.
pub type SymbolArities = Vec<(Symbol, usize)>;

/// Collect the function and predicate symbols of a clause set (with
/// arities) — the prover instantiates congruence axioms from this.
pub fn signature(clauses: &[Clause]) -> (SymbolArities, SymbolArities) {
    let mut funs: Vec<(Symbol, usize)> = Vec::new();
    let mut preds: Vec<(Symbol, usize)> = Vec::new();
    fn walk_term(t: &FTerm, funs: &mut Vec<(Symbol, usize)>) {
        if let FTerm::Fun(f, args) = t {
            if !args.is_empty() && !funs.contains(&(*f, args.len())) {
                funs.push((*f, args.len()));
            }
            for a in args {
                walk_term(a, funs);
            }
        }
    }
    for c in clauses {
        for lit in &c.literals {
            if lit.pred != eq_pred() && !lit.args.is_empty() {
                let entry = (lit.pred, lit.args.len());
                if !preds.contains(&entry) {
                    preds.push(entry);
                }
            }
            for a in &lit.args {
                walk_term(a, &mut funs);
            }
        }
    }
    (funs, preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::form;

    #[test]
    fn ground_facts() {
        let cs = clausify(&form("p a & q b")).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].literals.len(), 1);
    }

    #[test]
    fn disjunction_distributes() {
        let cs = clausify(&form("(p a | q b) & r c")).unwrap();
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().any(|c| c.literals.len() == 2));
    }

    #[test]
    fn universal_becomes_clause_variable() {
        let cs = clausify(&form("ALL x. p x")).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].literals[0].args[0], FTerm::Var(0));
    }

    #[test]
    fn existential_skolemized() {
        let cs = clausify(&form("EX x. p x")).unwrap();
        assert_eq!(cs.len(), 1);
        match &cs[0].literals[0].args[0] {
            FTerm::Fun(name, args) => {
                assert!(name.as_str().starts_with("sk_"));
                assert!(args.is_empty());
            }
            other => panic!("expected skolem constant, got {other:?}"),
        }
    }

    #[test]
    fn exists_under_forall_gets_function() {
        let cs = clausify(&form("ALL x. EX y. r x y")).unwrap();
        assert_eq!(cs.len(), 1);
        match &cs[0].literals[0].args[1] {
            FTerm::Fun(name, args) => {
                assert!(name.as_str().starts_with("sk_"));
                assert_eq!(args.len(), 1, "skolem function of the universal");
            }
            other => panic!("expected skolem function, got {other:?}"),
        }
    }

    #[test]
    fn tautologies_dropped() {
        let cs = clausify(&form("p a | ~(p a)")).unwrap();
        assert!(cs.is_empty());
        let cs2 = clausify(&form("a = a")).unwrap();
        assert!(cs2.is_empty());
    }

    #[test]
    fn equality_atoms() {
        let cs = clausify(&form("f a = b")).unwrap();
        assert_eq!(cs[0].literals[0].pred, eq_pred());
    }

    #[test]
    fn implication_clausal_form() {
        // p x → q x  ≡  ~p x | q x.
        let cs = clausify(&form("ALL x. p x --> q x")).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].literals.len(), 2);
        let negs: Vec<bool> = cs[0].literals.iter().map(|l| l.positive).collect();
        assert!(negs.contains(&true) && negs.contains(&false));
    }

    #[test]
    fn signature_collection() {
        let cs = clausify(&form("p (f a) & g a b = c")).unwrap();
        let (funs, preds) = signature(&cs);
        assert!(funs.iter().any(|&(f, n)| f.as_str() == "f" && n == 1));
        assert!(funs.iter().any(|&(f, n)| f.as_str() == "g" && n == 2));
        assert!(preds.iter().any(|&(p, n)| p.as_str() == "p" && n == 1));
    }

    #[test]
    fn rejects_sets() {
        assert!(clausify(&form("x : S & card S = 1")).is_err());
    }
}
