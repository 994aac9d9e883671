//! Linear integer terms: `c1*x1 + ... + cn*xn + k` with canonical form
//! (sorted variables, no zero coefficients).

use jahob_util::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// A linear term over integer variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LinTerm {
    /// Variable coefficients; never stores a zero coefficient.
    pub coeffs: BTreeMap<Symbol, i64>,
    /// Constant offset.
    pub konst: i64,
}

impl LinTerm {
    /// The constant term `k`.
    pub fn constant(k: i64) -> LinTerm {
        LinTerm {
            coeffs: BTreeMap::new(),
            konst: k,
        }
    }

    /// The variable term `x`.
    pub fn var(x: Symbol) -> LinTerm {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(x, 1);
        LinTerm { coeffs, konst: 0 }
    }

    /// Is this a constant (no variables)?
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: Symbol) -> i64 {
        self.coeffs.get(&x).copied().unwrap_or(0)
    }

    /// Add another term.
    pub fn add(&self, other: &LinTerm) -> LinTerm {
        let mut out = self.clone();
        for (&v, &c) in &other.coeffs {
            let entry = out.coeffs.entry(v).or_insert(0);
            *entry += c;
            if *entry == 0 {
                out.coeffs.remove(&v);
            }
        }
        out.konst += other.konst;
        out
    }

    /// Subtract another term.
    pub fn sub(&self, other: &LinTerm) -> LinTerm {
        self.add(&other.scale(-1))
    }

    /// Multiply by a constant.
    pub fn scale(&self, k: i64) -> LinTerm {
        if k == 0 {
            return LinTerm::constant(0);
        }
        LinTerm {
            coeffs: self.coeffs.iter().map(|(&v, &c)| (v, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// Remove `x`, returning its coefficient and the rest.
    pub fn split(&self, x: Symbol) -> (i64, LinTerm) {
        let c = self.coeff(x);
        let mut rest = self.clone();
        rest.coeffs.remove(&x);
        (c, rest)
    }

    /// Substitute `x := t` (t a linear term).
    pub fn subst(&self, x: Symbol, t: &LinTerm) -> LinTerm {
        let (c, rest) = self.split(x);
        rest.add(&t.scale(c))
    }

    /// Evaluate under an assignment (missing variables default to 0).
    pub fn eval(&self, env: &dyn Fn(Symbol) -> i64) -> i64 {
        self.konst + self.coeffs.iter().map(|(&v, &c)| c * env(v)).sum::<i64>()
    }

    /// Free variables.
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.coeffs.keys().copied()
    }
}

impl fmt::Display for LinTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                if *c == 1 {
                    write!(f, "{v}")?;
                } else if *c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if *c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, " - {}", -self.konst)?;
        }
        Ok(())
    }
}

/// Greatest common divisor (non-negative).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple (non-negative; lcm(0, x) = x by convention here).
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 {
        return b.abs();
    }
    if b == 0 {
        return a.abs();
    }
    (a / gcd(a, b) * b).abs()
}

/// Floor division (rounds toward negative infinity).
pub fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Mathematical modulo (result has the sign of `b`; here `b > 0` expected).
pub fn mod_floor(a: i64, b: i64) -> i64 {
    a - b * div_floor(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn arithmetic() {
        let x = LinTerm::var(s("x"));
        let y = LinTerm::var(s("y"));
        let t = x.scale(2).add(&y.scale(3)).add(&LinTerm::constant(5));
        assert_eq!(t.coeff(s("x")), 2);
        assert_eq!(t.coeff(s("y")), 3);
        assert_eq!(t.konst, 5);
        // 2x + 3y + 5 - 2x = 3y + 5.
        let u = t.sub(&x.scale(2));
        assert_eq!(u.coeff(s("x")), 0);
        assert!(!u.coeffs.contains_key(&s("x")), "zero coeff removed");
    }

    #[test]
    fn subst_replaces_linearly() {
        let x = s("x");
        // 2x + 1 with x := y - 3  gives 2y - 5.
        let t = LinTerm::var(x).scale(2).add(&LinTerm::constant(1));
        let replacement = LinTerm::var(s("y")).sub(&LinTerm::constant(3));
        let result = t.subst(x, &replacement);
        assert_eq!(result.coeff(s("y")), 2);
        assert_eq!(result.konst, -5);
    }

    #[test]
    fn eval_matches() {
        let t = LinTerm::var(s("x")).scale(2).add(&LinTerm::constant(7));
        let v = t.eval(&|_| 5);
        assert_eq!(v, 17);
    }

    #[test]
    fn gcd_lcm_floor() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 6);
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(mod_floor(-7, 2), 1);
        assert_eq!(mod_floor(7, 2), 1);
    }

    #[test]
    fn display_readable() {
        let t = LinTerm::var(s("x"))
            .scale(2)
            .add(&LinTerm::var(s("y")).scale(-1))
            .add(&LinTerm::constant(-3));
        assert_eq!(t.to_string(), "2*x - y - 3");
        assert_eq!(LinTerm::constant(0).to_string(), "0");
    }
}
