//! Cooperative resource budgets: deadlines plus fuel counters.
//!
//! Every reasoning substrate in the workspace is worst-case exponential
//! somewhere (subset construction, Cooper elimination, Venn-region
//! expansion, grounding). Every prover runs in-process as a linked
//! library, so there is no child to `kill -9` and termination is
//! cooperative: hot loops call [`Budget::check`] and bail out with a
//! structured [`Exhaustion`] reason when the deadline passes or the fuel
//! runs dry. The dispatcher then records the failure and moves on to the
//! next prover instead of hanging the whole verification run. The budget
//! is the only way an attempt stops, so a hot loop without a `check()` is
//! a bug in its prover.
//!
//! Design constraints:
//!
//! * `check()` must be cheap enough to call once per CDCL conflict, per
//!   given-clause iteration, per DFA state expansion. Fuel is a single
//!   relaxed atomic decrement; the monotonic clock is only polled every
//!   [`POLL_INTERVAL`] checks (reading `Instant::now()` is a vDSO call —
//!   cheap, but not free on a loop that runs millions of times).
//! * Budgets are shared by reference across [`std::panic::catch_unwind`]
//!   boundaries, so all interior mutability is atomic (`Cell` would poison
//!   `RefUnwindSafe`).
//! * Exhaustion is *sticky*: once a budget has expired, every later
//!   `check()` reports the same reason without touching the clock again.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many `check()` calls elapse between deadline polls.
pub const POLL_INTERVAL: u64 = 1024;

/// Fuel value treated as "unmetered" — the counter is never decremented.
pub const INFINITE_FUEL: u64 = u64::MAX;

/// Why a budget ran out. This is deliberately a two-variant enum (not the
/// dispatcher's richer failure taxonomy): at the substrate level the only
/// things that can run out are wall-clock time and fuel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Timeout,
    /// The cooperative fuel counter reached zero.
    Fuel,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhaustion::Timeout => write!(f, "timeout"),
            Exhaustion::Fuel => write!(f, "fuel-exhausted"),
        }
    }
}

impl std::error::Error for Exhaustion {}

/// Why a decision procedure returned no answer: the goal is outside its
/// fragment, or its budget ran out. Every prover entry that can meet both
/// returns this, so `budget.check()?` converts through [`From`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The goal is outside the procedure's fragment; the message says
    /// which construct put it there.
    Unsupported(String),
    /// The budget ran out.
    Exhausted(Exhaustion),
}

impl From<Exhaustion> for Failure {
    fn from(why: Exhaustion) -> Failure {
        Failure::Exhausted(why)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Unsupported(message) => write!(f, "unsupported: {message}"),
            Failure::Exhausted(why) => why.fmt(f),
        }
    }
}

impl std::error::Error for Failure {}

/// `Err(Failure::Unsupported(message))`: a fragment check's answer.
pub fn unsupported<T>(message: impl Into<String>) -> Result<T, Failure> {
    Err(Failure::Unsupported(message.into()))
}

/// A cooperative resource budget: an optional wall-clock deadline plus an
/// optional fuel counter. Passed by shared reference into prover loops;
/// all mutation is interior and atomic.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    /// Remaining fuel. `INFINITE_FUEL` means unmetered.
    fuel: AtomicU64,
    /// Countdown until the next deadline poll.
    poll: AtomicU64,
    /// Sticky exhaustion marker: 0 = live, 1 = fuel, 2 = timeout.
    spent: AtomicU64,
}

impl Budget {
    /// A budget that never expires. `check()` still costs one atomic load.
    pub const fn unlimited() -> Budget {
        Budget {
            deadline: None,
            fuel: AtomicU64::new(INFINITE_FUEL),
            poll: AtomicU64::new(POLL_INTERVAL),
            spent: AtomicU64::new(0),
        }
    }

    /// A budget with both a deadline (from now) and a fuel allowance.
    pub fn new(time: Option<Duration>, fuel: u64) -> Budget {
        Budget {
            deadline: time.map(|t| Instant::now() + t),
            fuel: AtomicU64::new(fuel),
            poll: AtomicU64::new(POLL_INTERVAL),
            spent: AtomicU64::new(0),
        }
    }

    /// Deadline only; fuel is unmetered.
    pub fn with_deadline(time: Duration) -> Budget {
        Budget::new(Some(time), INFINITE_FUEL)
    }

    /// Fuel only; no deadline.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget::new(None, fuel)
    }

    /// Remaining fuel ([`INFINITE_FUEL`] if unmetered).
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel.load(Ordering::Relaxed)
    }

    /// Has this budget already been observed to expire?
    pub fn exhausted(&self) -> Option<Exhaustion> {
        match self.spent.load(Ordering::Relaxed) {
            1 => Some(Exhaustion::Fuel),
            2 => Some(Exhaustion::Timeout),
            _ => None,
        }
    }

    fn mark(&self, why: Exhaustion) -> Exhaustion {
        let code = match why {
            Exhaustion::Fuel => 1,
            Exhaustion::Timeout => 2,
        };
        // First writer wins so the recorded reason stays stable.
        let _ = self
            .spent
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.exhausted().unwrap_or(why)
    }

    /// Burn one unit of fuel and (amortized) poll the deadline. Call this
    /// from every hot loop; return `Err` means "stop now, unwind cleanly".
    #[inline]
    pub fn check(&self) -> Result<(), Exhaustion> {
        self.charge(1)
    }

    /// Burn `n` units of fuel at once (for loops that do measurable chunks
    /// of work per iteration, e.g. one unit per DFA state expanded).
    pub fn charge(&self, n: u64) -> Result<(), Exhaustion> {
        if let Some(why) = self.exhausted() {
            return Err(why);
        }
        let fuel = self.fuel.load(Ordering::Relaxed);
        if fuel != INFINITE_FUEL {
            if fuel < n {
                self.fuel.store(0, Ordering::Relaxed);
                return Err(self.mark(Exhaustion::Fuel));
            }
            self.fuel.store(fuel - n, Ordering::Relaxed);
        }
        if self.deadline.is_some() {
            let left = self.poll.load(Ordering::Relaxed);
            if left > n {
                self.poll.store(left - n, Ordering::Relaxed);
            } else {
                self.poll.store(POLL_INTERVAL, Ordering::Relaxed);
                self.poll_deadline()?;
            }
        }
        Ok(())
    }

    /// Poll the deadline *now*, bypassing amortization. Use at phase
    /// boundaries (e.g. before starting an expensive sub-procedure).
    pub fn poll_deadline(&self) -> Result<(), Exhaustion> {
        if let Some(why) = self.exhausted() {
            return Err(why);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(self.mark(Exhaustion::Timeout));
            }
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        for _ in 0..100_000 {
            assert!(b.check().is_ok());
        }
        assert_eq!(b.fuel_remaining(), INFINITE_FUEL);
        assert!(b.exhausted().is_none());
    }

    #[test]
    fn fuel_runs_dry_and_sticks() {
        let b = Budget::with_fuel(10);
        for _ in 0..10 {
            assert!(b.check().is_ok());
        }
        assert_eq!(b.check(), Err(Exhaustion::Fuel));
        // Sticky: the same reason forever after.
        assert_eq!(b.check(), Err(Exhaustion::Fuel));
        assert_eq!(b.exhausted(), Some(Exhaustion::Fuel));
    }

    #[test]
    fn charge_consumes_in_chunks() {
        let b = Budget::with_fuel(100);
        assert!(b.charge(60).is_ok());
        assert!(b.charge(40).is_ok());
        assert_eq!(b.charge(1), Err(Exhaustion::Fuel));
    }

    #[test]
    fn zero_deadline_times_out() {
        let b = Budget::with_deadline(Duration::from_secs(0));
        assert_eq!(b.poll_deadline(), Err(Exhaustion::Timeout));
        // check() reports the sticky timeout even without a fresh poll.
        assert_eq!(b.check(), Err(Exhaustion::Timeout));
    }

    #[test]
    fn deadline_polled_within_interval() {
        let b = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let mut saw_timeout = false;
        for _ in 0..=POLL_INTERVAL {
            if b.check() == Err(Exhaustion::Timeout) {
                saw_timeout = true;
                break;
            }
        }
        assert!(saw_timeout, "timeout must surface within one poll interval");
    }

    #[test]
    fn budget_is_ref_unwind_safe() {
        fn assert_refs<T: std::panic::RefUnwindSafe + Sync>() {}
        assert_refs::<Budget>();
    }
}
