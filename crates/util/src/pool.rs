//! A small work-stealing thread pool for fanning independent tasks out
//! across worker threads.
//!
//! Jahob's architectural bet (§3 of the paper) is that each proof
//! obligation is independent, so the portfolio can be thrown at all of
//! them at once. This pool is the substrate for that fan-out. It is
//! deliberately tiny and deterministic-friendly:
//!
//! * **Indexed tasks, indexed results.** Every task carries its index in
//!   the submitted item list and writes its result into the slot with the
//!   same index, so callers get results back in submission order no matter
//!   which worker ran what. Parallel callers that need bit-for-bit
//!   reproducible output (the verification pipeline does) re-sort for
//!   free.
//! * **Work stealing.** Items are dealt into per-worker deques in
//!   contiguous chunks; a worker drains its own deque from the front and,
//!   when empty, steals from the *back* of a victim's deque. No task is
//!   ever spawned from inside a task, so "all deques empty" means "no more
//!   work will appear" and idle workers simply exit — there is no parked
//!   thread to wake and no spin loop.
//! * **Panic isolation per task.** A panicking task is caught and reported
//!   as [`TaskPanic`] in its own result slot; the worker carries on with
//!   the next task. One poisoned obligation must never take down the other
//!   N-1.
//! * **Worker-local state.** [`run_with_local`] gives every worker thread
//!   a locally constructed value (e.g. a parsed program full of un-`Send`
//!   `Rc`s) built once per worker and reused across its tasks. The local
//!   value never crosses a thread boundary, so it needs no `Send` bound.

use crate::counters::Stats;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A task panicked; the payload message stands in for its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose task panicked.
    pub index: usize,
    /// Panic payload rendered as a string (`"non-string panic payload"`
    /// when the payload was neither `&str` nor `String`).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

/// Per-task context handed to the task body.
pub struct TaskCtx {
    /// Which worker thread is running this task.
    pub worker: usize,
    /// The task's index in the submitted item list.
    pub index: usize,
}

/// Run `f` over `items` on `workers` threads. Results come back in
/// submission order; a panicking task yields `Err(TaskPanic)` in its slot.
pub fn run<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    F: Fn(&TaskCtx, T) -> R + Sync,
{
    run_with_local(workers, items, |_| (), |(), cx, item| f(cx, item))
}

/// The full-featured entry point: like [`run`], but every worker
/// thread first builds a local value with `init(worker_id)` and hands a
/// mutable reference to it to each task it runs. The local value is
/// constructed *on* the worker thread and never leaves it, so it may
/// contain non-`Send` data (`Rc`-heavy ASTs, caches, scratch buffers).
pub fn run_with_local<L, T, R, I, F>(
    workers: usize,
    items: Vec<T>,
    init: I,
    f: F,
) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> L + Sync,
    F: Fn(&mut L, &TaskCtx, T) -> R + Sync,
{
    run_with_local_observed(workers, None, items, init, f)
}

/// [`run_with_local`] plus pool-level telemetry: when `stats` is given,
/// the pool records `pool.tasks` (one per task executed) and
/// `pool.steals` (tasks a worker pulled from a victim's deque instead of
/// its own). `pool.steals` is inherently schedule-dependent — consumers
/// comparing runs must exclude the `pool.` group, as the verification
/// pipeline's `deterministic_lines` does.
pub fn run_with_local_observed<L, T, R, I, F>(
    workers: usize,
    stats: Option<&Stats>,
    items: Vec<T>,
    init: I,
    f: F,
) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> L + Sync,
    F: Fn(&mut L, &TaskCtx, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    // Deal items into per-worker deques in contiguous chunks so each
    // worker starts on its own run of indices and steals only when idle.
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let chunk = n.div_ceil(workers);
    {
        let mut qs: Vec<_> = queues.iter_mut().map(|q| q.get_mut().unwrap()).collect();
        for (i, item) in items.into_iter().enumerate() {
            qs[(i / chunk).min(workers - 1)].push_back((i, item));
        }
    }

    let results: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut local = init(w);
                loop {
                    // Own deque first (front), then steal from a victim's
                    // back; all deques empty means no work will ever
                    // appear again (tasks do not spawn tasks), so exit.
                    // The own-queue guard must drop before stealing: a
                    // guard held across the victim locks deadlocks two
                    // idle workers stealing from each other (ABBA).
                    let mut stolen = false;
                    let own = queues[w].lock().unwrap().pop_front();
                    let next = own.or_else(|| {
                        (1..workers)
                            .map(|d| (w + d) % workers)
                            .find_map(|v| queues[v].lock().unwrap().pop_back())
                            .inspect(|_| stolen = true)
                    });
                    let Some((index, item)) = next else { break };
                    if let Some(stats) = stats {
                        stats.bump("pool.tasks");
                        if stolen {
                            stats.bump("pool.steals");
                        }
                    }
                    let cx = TaskCtx { worker: w, index };
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut local, &cx, item))).map_err(
                        |payload| TaskPanic {
                            index,
                            message: panic_message(payload.as_ref()).to_owned(),
                        },
                    );
                    *results[index].lock().unwrap() = Some(out);
                }
            });
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner().unwrap().unwrap_or(Err(TaskPanic {
                index: i,
                message: "task was never run".to_owned(),
            }))
        })
        .collect()
}

/// Render a caught panic payload as a message string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 4, 9] {
            let out = run(workers, (0..50).collect(), |_cx, i: u64| i * 2);
            let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out = run(4, Vec::<u32>::new(), |_cx, i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = run(16, vec![1u32, 2], |_cx, i| i + 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Ok(2));
        assert_eq!(out[1], Ok(3));
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let out = run(3, (0..10).collect(), |_cx, i: u32| {
            if i == 4 {
                panic!("boom on {i}");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 4 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.index, 4);
                assert!(err.message.contains("boom on 4"), "{err}");
            } else {
                assert_eq!(*r, Ok(i as u32));
            }
        }
    }

    #[test]
    fn idle_workers_steal_from_busy_ones() {
        // Two workers, all heavy items dealt to worker 0's chunk. If
        // stealing works, worker 1 picks up part of the chunk and more
        // than one distinct worker id shows up.
        let seen: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        let out = run(2, (0..64).collect(), |cx, i: u64| {
            seen[cx.worker].fetch_add(1, Ordering::Relaxed);
            // Give the scheduler a chance to interleave.
            std::thread::yield_now();
            i
        });
        assert!(out.iter().all(|r| r.is_ok()));
        let counts: Vec<u64> = seen.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts.iter().sum::<u64>(), 64);
        // Stealing is scheduler-dependent; on a single-core box worker 0
        // may legitimately finish everything. Only require that no task
        // was lost and the distribution sums up — the determinism tests
        // pin the interesting property (identical results either way).
    }

    #[test]
    fn concurrent_stealing_does_not_deadlock() {
        // Regression: the own-queue guard was once held across the victim
        // locks (one statement, one temporary), so two workers that went
        // idle together and stole from each other deadlocked ABBA-style.
        // Small batches with more workers than items force every worker
        // into the steal path at once, repeatedly.
        for round in 0..64 {
            let out = run(8, (0..3u64).collect(), |_cx, i| {
                std::thread::yield_now();
                i
            });
            assert_eq!(out.len(), 3, "round {round}");
            assert!(out.iter().all(|r| r.is_ok()), "round {round}");
        }
    }

    #[test]
    fn observed_pool_counts_every_task() {
        let stats = Stats::new();
        let out = run_with_local_observed(
            3,
            Some(&stats),
            (0..40).collect(),
            |_| (),
            |(), _cx, i: u64| i,
        );
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(stats.get("pool.tasks"), 40);
        // Steals are scheduler-dependent; they can only be bounded.
        assert!(stats.get("pool.steals") <= 40);
    }

    #[test]
    fn worker_local_state_is_built_once_per_worker() {
        let inits = AtomicU64::new(0);
        let out = run_with_local(
            3,
            (0..30).collect(),
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                // Worker-local scratch: (worker id, tasks run so far).
                (w, 0u64)
            },
            |local, cx, i: u64| {
                local.1 += 1;
                assert_eq!(local.0, cx.worker);
                i
            },
        );
        assert!(out.iter().all(|r| r.is_ok()));
        let built = inits.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&built),
            "one local per spawned worker, got {built}"
        );
    }
}
