//! Global string interning.
//!
//! Formula terms, field names, class names, and variable names are all
//! interned into [`Symbol`]s so that the rest of the system compares and
//! hashes names as `u32`s. The interner is a process-global table behind a
//! mutex; lookups of already-interned strings take the lock briefly, and
//! `Symbol::as_str` leaks nothing because the table is append-only and stores
//! strings with a stable address for the lifetime of the process.

use crate::fxhash::FxHashMap;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare, and hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    /// Map from string contents to symbol index.
    map: FxHashMap<&'static str, u32>,
    /// Symbol index to string contents. The `&'static str`s point into
    /// intentionally-leaked boxes; the table lives for the whole process.
    strings: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            map: FxHashMap::default(),
            strings: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&idx) = self.map.get(s) {
            return Symbol(idx);
        }
        let owned: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let idx = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(owned);
        self.map.insert(owned, idx);
        Symbol(idx)
    }

    fn resolve(&self, sym: Symbol) -> &'static str {
        self.strings[sym.0 as usize]
    }
}

fn global() -> &'static Mutex<Interner> {
    static GLOBAL: OnceLock<Mutex<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Interner::new()))
}

impl Symbol {
    /// Intern `s`, returning its symbol.
    pub fn intern(s: &str) -> Symbol {
        global().lock().unwrap().intern(s)
    }

    /// The string this symbol denotes.
    pub fn as_str(self) -> &'static str {
        global().lock().unwrap().resolve(self)
    }

    /// Raw index (stable within a process run); used by tools that need a
    /// dense numbering of names.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Make a fresh symbol: `base'` and a suffix no other `fresh` call
    /// gives in the same scope. Outside a [`FreshScope`] the suffix is a
    /// process-wide count (`base'N`); inside scope `id` it is `id_k`, `k`
    /// counting that scope's calls on this thread from 0.
    ///
    /// Used for alpha-renaming and skolemization. The result is still a
    /// normal interned symbol.
    pub fn fresh(base: Symbol) -> Symbol {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let suffix = FRESH_SCOPE.with(|scope| match scope.get() {
            Some((id, k)) => {
                scope.set(Some((id, k + 1)));
                format!("{id}_{k}")
            }
            None => COUNTER.fetch_add(1, Ordering::Relaxed).to_string(),
        });
        Symbol::intern(&format!("{}'{}", base.as_str(), suffix))
    }
}

thread_local! {
    /// This thread's fresh-name scope and the next count in it.
    static FRESH_SCOPE: Cell<Option<(u32, u64)>> = const { Cell::new(None) };
}

/// While it lives, [`Symbol::fresh`] on this thread draws names from one
/// scope, numbered from 0. The same work in the same scope so names its
/// fresh symbols alike each time it runs, and a long-running process
/// interns them once instead of once per run. Names stay distinct within
/// a scope and between scopes and unscoped names, so work whose formulas
/// meet must not share a scope id. Dropping the guard restores the
/// thread's previous scope; it cannot leave its thread.
pub struct FreshScope {
    outer: Option<(u32, u64)>,
    _thread: PhantomData<*const ()>,
}

impl FreshScope {
    pub fn enter(id: u32) -> FreshScope {
        FreshScope {
            outer: FRESH_SCOPE.with(|scope| scope.replace(Some((id, 0)))),
            _thread: PhantomData,
        }
    }
}

impl Drop for FreshScope {
    fn drop(&mut self) {
        FRESH_SCOPE.with(|scope| scope.set(self.outer));
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_symbol() {
        assert_eq!(Symbol::intern("content"), Symbol::intern("content"));
    }

    #[test]
    fn different_strings_different_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn resolve_roundtrip() {
        let s = Symbol::intern("List.content");
        assert_eq!(s.as_str(), "List.content");
    }

    #[test]
    fn fresh_is_distinct() {
        let base = Symbol::intern("x");
        let f1 = Symbol::fresh(base);
        let f2 = Symbol::fresh(base);
        assert_ne!(f1, base);
        assert_ne!(f2, base);
        assert_ne!(f1, f2);
    }

    #[test]
    fn scoped_fresh_names_repeat_with_their_scope() {
        let base = Symbol::intern("y");
        let run = || {
            let _scope = FreshScope::enter(7);
            let names = [Symbol::fresh(base), Symbol::fresh(base)];
            let nested = {
                let _inner = FreshScope::enter(8);
                Symbol::fresh(base)
            };
            (names, nested, Symbol::fresh(base))
        };
        let (names, nested, after) = run();
        assert_eq!(names[0].as_str(), "y'7_0");
        assert_ne!(names[0], names[1]);
        assert_eq!(nested.as_str(), "y'8_0");
        assert_eq!(after.as_str(), "y'7_2", "the outer scope resumes its count");
        assert_eq!(
            run(),
            (names, nested, after),
            "a scope names alike each run"
        );
        let unscoped = Symbol::fresh(base);
        assert!(!unscoped.as_str().contains('_'), "{unscoped}");
    }

    #[test]
    fn empty_string_ok() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn many_symbols_stay_stable() {
        let syms: Vec<Symbol> = (0..500).map(|i| Symbol::intern(&format!("v{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("v{i}"));
        }
    }
}
