//! # commchar-pool
//!
//! The workspace's two thread primitives, both scoped:
//!
//! - [`run_indexed`], the work-claiming fan-out used everywhere the
//!   workspace parallelizes independent index-addressed work: suite cells
//!   (`commchar-core::suite`), packed-trace block decode
//!   (`commchar-tracestore`), and per-source distribution fitting
//!   (`commchar-core::characterize`);
//! - [`run_each`], one thread per participant, all live at once, for
//!   work whose participants wait on each other: the sharded flit router
//!   (`commchar-mesh`), the sharded spasm machine (`commchar-spasm`) and
//!   the connection workers of `commchar-serve`. Its waiters share
//!   [`Backoff`]/[`spin_wait`] and exit through a [`FenceGuard`].
//!
//! The fan-out scheme is deliberately tiny — scoped threads, no
//! dependencies, no unsafe:
//!
//! - workers claim indices `0..count` from a shared atomic cursor
//!   (whichever worker is free takes the next item — cheap work stealing
//!   that tolerates wildly uneven item costs);
//! - each result is written to its input-indexed slot, so the returned
//!   `Vec` is in input order **regardless of worker count or completion
//!   order** — callers get determinism for free;
//! - `jobs <= 1` (or a single item) short-circuits to a plain sequential
//!   loop on the calling thread, so the sequential path is exactly the
//!   parallel path minus threads.
//!
//! # Example
//!
//! ```
//! let squares = commchar_pool::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` knob: `0` means one worker per available hardware
/// thread, anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Resolves a `--jobs` knob against an item count: the result never
/// exceeds `items` (no point spawning workers with nothing to claim) and
/// is always at least 1 so it can be used directly as a divisor or
/// worker count.
pub fn resolve_jobs_for(jobs: usize, items: usize) -> usize {
    resolve_jobs(jobs).min(items).max(1)
}

/// Runs `f(0), f(1), …, f(count - 1)` across at most `jobs` scoped worker
/// threads (`0` = one per hardware thread) and returns the results in
/// index order.
///
/// Work distribution is a shared atomic cursor; result ordering never
/// depends on the worker count, so output built from the returned `Vec`
/// is byte-identical for any `jobs` value as long as `f` itself is
/// deterministic per index.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (a panicking item fails
/// the whole fan-out rather than silently dropping a slot).
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_jobs(jobs).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = f(i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload surfaces verbatim
        // (the scope's implicit join would replace it with its own
        // generic message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scope joined, so every slot is filled")
        })
        .collect()
}

/// Runs `f(i, &mut states[i])` for every state at once, one scoped thread
/// per state, and returns when all have finished.
///
/// Unlike [`run_indexed`], which lets a few workers claim items one after
/// another, every participant here is live at the same time: simulation
/// shards spin on each other's fences, so a participant left waiting for
/// a free worker would deadlock its siblings. A single state runs inline
/// on the calling thread.
///
/// # Panics
///
/// After joining every thread, rethrows the first panic payload (in
/// state order) unchanged. Participants that wait on a sibling should
/// hold a [`FenceGuard`] so a panicking sibling releases them instead of
/// hanging the join.
pub fn run_each<S, F>(states: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    if let [only] = states {
        f(0, only);
        return;
    }
    let f = &f;
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| scope.spawn(move || f(i, state)))
            .collect();
        handles.into_iter().filter_map(|h| h.join().err()).reduce(|first, _| first)
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Spin-then-yield backoff for a thread waiting on a sibling's progress:
/// the first 63 [`snooze`](Backoff::snooze)s spin, later ones yield the
/// core.
#[derive(Debug, Default)]
pub struct Backoff(u32);

impl Backoff {
    /// Waits a little, longer the more often it has been called since the
    /// last [`reset`](Backoff::reset).
    pub fn snooze(&mut self) {
        self.0 = self.0.saturating_add(1);
        if self.0 < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Restarts the backoff after the waiter made progress.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

/// Waits with a [`Backoff`] until `probe` returns true.
pub fn spin_wait(mut probe: impl FnMut() -> bool) {
    let mut backoff = Backoff::default();
    while !probe() {
        backoff.snooze();
    }
}

/// A participant's exit fence: when dropped, on a normal exit or during a
/// panic alike, it publishes `u64::MAX` on `fence` so no sibling waits on
/// a participant that is gone. On unwind it first raises `abort`, so a
/// sibling that reads the final fence (with `Acquire`) also sees the
/// abort and can stop instead of running on.
#[derive(Debug)]
pub struct FenceGuard<'a> {
    fence: &'a AtomicU64,
    abort: &'a AtomicBool,
}

impl<'a> FenceGuard<'a> {
    /// Guards `fence`, raising `abort` if the holder unwinds.
    pub fn new(fence: &'a AtomicU64, abort: &'a AtomicBool) -> Self {
        FenceGuard { fence, abort }
    }
}

impl Drop for FenceGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Relaxed);
        }
        self.fence.store(u64::MAX, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        // Uneven per-item cost: later items finish first on any pool, but
        // the output order must still be the input order.
        let out = run_indexed(4, 32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 10
        });
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run_indexed(1, 100, |i| i as u64 * i as u64 % 97);
        let par = run_indexed(8, 100, |i| i as u64 * i as u64 % 97);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_count_is_empty() {
        let out: Vec<u32> = run_indexed(4, 0, |_| unreachable!("no items to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_resolves_to_hardware_threads() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let out = run_indexed(0, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = run_indexed(2, 8, |i| {
            assert!(i != 5, "boom");
            i
        });
    }

    #[test]
    fn resolve_jobs_for_caps_at_item_count() {
        // `0` resolves to hardware threads but never exceeds the items.
        assert_eq!(resolve_jobs_for(0, 2), resolve_jobs(0).min(2));
        assert_eq!(resolve_jobs_for(16, 3), 3);
        assert_eq!(resolve_jobs_for(2, 100), 2);
        // Degenerate inputs still give a usable worker count.
        assert_eq!(resolve_jobs_for(0, 0), 1);
        assert_eq!(resolve_jobs_for(4, 1), 1);
    }

    #[test]
    fn run_each_gives_every_participant_its_own_thread() {
        // All participants must be live at once to pass the barrier.
        let n = 4;
        let barrier = std::sync::Barrier::new(n);
        let mut states = vec![0usize; n];
        run_each(&mut states, |i, s| {
            barrier.wait();
            *s = i + 1;
        });
        assert_eq!(states, vec![1, 2, 3, 4]);
    }

    #[test]
    fn run_each_runs_a_single_state_inline() {
        let caller = std::thread::current().id();
        let mut states = [None];
        run_each(&mut states, |_, s| *s = Some(std::thread::current().id()));
        assert_eq!(states[0], Some(caller));
    }

    #[test]
    fn run_each_rethrows_a_panic_that_a_sibling_waits_on() {
        let fences = [AtomicU64::new(0), AtomicU64::new(0)];
        let abort = AtomicBool::new(false);
        let mut states = [(), ()];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_each(&mut states, |i, _| {
                let _guard = FenceGuard::new(&fences[i], &abort);
                if i == 0 {
                    panic!("participant 0 blew up");
                }
                // Participant 1 waits for a fence participant 0 never
                // advances; only the guard's exit fence releases it.
                spin_wait(|| fences[0].load(Ordering::Acquire) > 0);
            });
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"participant 0 blew up"));
        assert!(abort.load(Ordering::Relaxed), "an unwinding guard raises the abort flag");
        assert!(fences.iter().all(|f| f.load(Ordering::Relaxed) == u64::MAX));
    }
}
