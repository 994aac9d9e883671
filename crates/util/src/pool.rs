//! Fan independent tasks out across threads.
//!
//! Jahob's architectural bet (§3 of the paper) is that each method is an
//! independent verification unit, so the pipeline verifies them at once
//! through [`run`]:
//!
//! * **One shared counter.** Every thread, the calling thread among
//!   them, takes the next item index from one atomic counter until the
//!   items run out. At one worker, or with one item, nothing is spawned.
//! * **Indexed results.** Each result lands in its item's slot, so
//!   results come back in submission order whichever thread ran what.
//! * **Panic isolation per task.** A panicking task is caught and
//!   reported as [`TaskPanic`] in its own slot; its thread carries on.
//! * **Thread-local state.** The caller hands in the local it works with;
//!   each spawned thread builds its own with `init`. A local never
//!   crosses a thread boundary, so it needs no `Send` bound (the pipeline
//!   hands out `Rc`-heavy programs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Run `task(local, index, item)` for every item on `workers` threads,
/// the calling thread among them: it works with `local`, and each of the
/// `workers - 1` threads it spawns (none when there is one item) with a
/// local of its own from `init`. Results come back in submission order;
/// a panicking task yields `Err(TaskPanic)` in its slot.
pub fn run<L, T, R>(
    workers: usize,
    items: &[T],
    local: &L,
    init: impl Fn() -> L + Sync,
    task: impl Fn(&L, usize, &T) -> R + Sync,
) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
{
    // Relaxed: the counter publishes no data; results pass through the
    // slots' mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let drain = |local: &L| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(index) else { break };
        let out = catch_unwind(AssertUnwindSafe(|| task(local, index, item))).map_err(|payload| {
            TaskPanic {
                index,
                message: panic_message(payload.as_ref()).to_owned(),
            }
        });
        *slots[index]
            .lock()
            .expect("no thread panics holding a slot") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(items.len()) {
            scope.spawn(|| drain(&init()));
        }
        drain(local);
    });
    // The calling thread drained the counter, so every slot is filled.
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok().flatten().expect("slot filled"))
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
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    /// `run` with no local state.
    fn plain<T: Sync, R: Send>(
        workers: usize,
        items: &[T],
        task: impl Fn(&T) -> R + Sync,
    ) -> Vec<Result<R, TaskPanic>> {
        run(workers, items, &(), || (), |(), _, item| task(item))
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 4, 9] {
            let out = plain(workers, &items, |i| i * 2);
            let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out = plain(4, &Vec::<u32>::new(), |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = plain(16, &[1u32, 2], |i| i + 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Ok(2));
        assert_eq!(out[1], Ok(3));
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let items: Vec<u32> = (0..10).collect();
        let out = plain(3, &items, |&i| {
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

    /// Every thread draws from the one counter, so each index is run
    /// exactly once whichever threads run it; how the items split among
    /// threads is the scheduler's business.
    #[test]
    fn idle_workers_steal_from_busy_ones() {
        let runs: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        let out = run(
            2,
            &items,
            &(),
            || (),
            |(), index, &i| {
                assert_eq!(index, i);
                runs[i].fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                i
            },
        );
        assert!(out.iter().all(|r| r.is_ok()));
        assert!(runs.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// More workers than items, over many rounds: every thread races for
    /// the counter at once and finds it spent, and no round hangs. (The
    /// work-stealing pool this replaced once deadlocked here.)
    #[test]
    fn concurrent_stealing_does_not_deadlock() {
        let items: Vec<u64> = (0..3).collect();
        for round in 0..64 {
            let out = plain(8, &items, |&i| {
                std::thread::yield_now();
                i
            });
            assert_eq!(out.len(), 3, "round {round}");
            assert!(out.iter().all(|r| r.is_ok()), "round {round}");
        }
    }

    /// Every task runs with the local of the thread that runs it: the
    /// caller's own on the calling thread, the one its `init` built on a
    /// spawned thread.
    #[test]
    fn worker_local_state_is_built_once_per_worker() {
        let items: Vec<u64> = (0..30).collect();
        let out = run(
            3,
            &items,
            &std::thread::current().id(),
            || std::thread::current().id(),
            |local: &ThreadId, _, &i| {
                assert_eq!(*local, std::thread::current().id());
                i
            },
        );
        assert!(out.iter().all(|r| r.is_ok()));
    }

    /// `init` runs exactly once on each spawned thread, also on one that
    /// finds no item left, and never on the calling thread.
    #[test]
    fn each_spawned_thread_builds_exactly_one_local() {
        let caller = std::thread::current().id();
        for (workers, n, spawned) in [(3, 30, 2), (8, 3, 2), (4, 64, 3)] {
            let inits = Mutex::new(Vec::new());
            let items: Vec<u64> = (0..n).collect();
            let out = run(
                workers,
                &items,
                &(),
                || inits.lock().unwrap().push(std::thread::current().id()),
                |(), _, &i| i,
            );
            assert!(out.iter().all(|r| r.is_ok()));
            let mut built = inits.into_inner().unwrap();
            assert_eq!(built.len(), spawned, "{workers} workers, {n} items");
            built.sort_by_key(|id| format!("{id:?}"));
            built.dedup();
            assert_eq!(built.len(), spawned, "no thread builds two");
            assert!(!built.contains(&caller), "the caller builds none");
        }
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..20).collect();
        for (workers, items) in [(1, &items[..]), (8, &items[..1])] {
            let out = run(
                workers,
                items,
                &(),
                || panic!("nothing is spawned"),
                |(), _, &i| {
                    assert_eq!(std::thread::current().id(), caller);
                    i
                },
            );
            assert_eq!(out.len(), items.len());
            assert!(out.iter().all(|r| r.is_ok()));
        }
    }
}
