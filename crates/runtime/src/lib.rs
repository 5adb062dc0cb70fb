//! Dependency-free parallel execution layer for the FASTFT workspace.
//!
//! The paper's central claim is *wall-clock acceleration* of reinforced
//! feature transformation; this crate supplies the substrate: a persistent
//! worker pool built on `std::thread` + channels that the hot paths
//! (per-tree forest fitting, per-fold cross-validation, the pairwise
//! mutual-information distance matrix and the benchmark fan-out) use for
//! data parallelism.
//!
//! # Design
//!
//! - **Handle, not global.** A [`Runtime`] is an explicit value threaded
//!   through APIs (`fit_with(&rt, …)`). Thread count is chosen at
//!   construction ([`Runtime::new`]) or from the `FASTFT_THREADS`
//!   environment variable ([`Runtime::from_env`]). `Runtime::new(1)` (or an
//!   unset/`1` env) executes inline on the caller's thread with zero
//!   synchronisation overhead.
//! - **Determinism.** [`Runtime::par_map`] preserves input order in its
//!   output, and callers derive any randomness from a *per-item* RNG stream
//!   (`rngx::StdRng::stream(seed, item_index)`), so results are
//!   byte-identical for a given seed regardless of worker count.
//! - **No deadlock under nesting.** While waiting for a batch, the
//!   submitting thread *helps*: it pops jobs off the shared queue and runs
//!   them. Nested `par_map` calls therefore make progress even when every
//!   worker is blocked inside an outer batch.
//! - **Panic transparency.** A panicking job is caught on the worker and
//!   re-raised on the submitting thread once the batch completes, so
//!   `par_map` panics exactly like the equivalent serial loop would.
//! - **Poison recovery.** Every pool lock is acquired with
//!   `unwrap_or_else(|e| e.into_inner())`: the queue and batch mutexes only
//!   guard data that stays consistent across an unwind (a `VecDeque` of
//!   jobs, a panic payload slot), so a panic that poisons one must not wedge
//!   every subsequent batch.
//!
//! The pool joins its workers on `Drop`, so a `Runtime` can be created and
//! discarded freely (though reusing one across calls is what makes the pool
//! "persistent" and amortises thread spawn cost).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The environment variable [`Runtime::from_env`] reads its lane count from.
pub const THREADS_ENV: &str = "FASTFT_THREADS";

/// A unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pop one job, or `None` immediately if the queue is empty.
    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front()
    }

    /// Worker loop: block until a job or shutdown arrives.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            job();
        }
    }
}

/// Tracks completion of one submitted batch and carries the first panic.
struct Batch {
    remaining: AtomicUsize,
    done: Condvar,
    done_lock: Mutex<()>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Batch {
            remaining: AtomicUsize::new(n),
            done: Condvar::new(),
            done_lock: Mutex::new(()),
            panic: Mutex::new(None),
        })
    }

    /// Record one finished item (optionally with a payload from a panic).
    fn complete_one(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(p);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// A persistent worker pool; the workspace's parallel execution handle.
///
/// See the [crate docs](crate) for the design. Cloning is not supported —
/// share a `Runtime` by reference (`&Runtime`), which every method takes.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime").field("threads", &self.threads).finish()
    }
}

impl Default for Runtime {
    /// Equivalent to [`Runtime::from_env`].
    fn default() -> Self {
        Runtime::from_env()
    }
}

impl Runtime {
    /// A pool with `threads` total execution lanes (the submitting thread
    /// counts as one: `new(4)` spawns 3 workers). `new(0)` is treated as
    /// `new(1)`; `new(1)` runs everything inline and spawns nothing.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fastft-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        Runtime { shared, workers, threads }
    }

    /// A pool sized from the [`THREADS_ENV`] environment variable, falling
    /// back to [`std::thread::available_parallelism`] when unset or invalid.
    pub fn from_env() -> Self {
        Runtime::new(Runtime::env_threads(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// The lane count [`Runtime::from_env`] resolves a [`THREADS_ENV`]
    /// value (`None` if unset) to: the value if it parses as a positive
    /// integer, else [`std::thread::available_parallelism`]. Spawns nothing,
    /// so a caller can bound the count before building the pool.
    pub fn env_threads(var: Option<&str>) -> usize {
        var.and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Total execution lanes (submitting thread included). Always ≥ 1.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, in parallel, preserving input order.
    ///
    /// With one lane this is exactly `items.into_iter().map(f).collect()`.
    /// `f` receives each item by value; pair with
    /// `StdRng::stream(seed, index)` via [`Runtime::par_map_indexed`] when
    /// the work is randomized.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// [`Runtime::par_map`] where `f` also receives the item's index —
    /// the hook for deriving per-item RNG streams.
    pub fn par_map_indexed<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let slots = SharedSlots::new(&mut out);
            let f = &f;
            self.run_batch(items.into_iter().enumerate().map(move |(i, item)| {
                move || {
                    // SAFETY: each closure writes exactly one distinct index.
                    unsafe { slots.write(i, f(i, item)) };
                }
            }));
        }
        out.into_iter().map(|slot| slot.expect("runtime batch lost an item")).collect()
    }

    /// Process `0..len` in contiguous chunks, one chunk per lane, calling
    /// `f(chunk_index, start..end)` in parallel. This is the `scope`-style
    /// primitive for callers that update disjoint slices of a shared buffer
    /// (e.g. rows of a distance matrix) without materialising per-item jobs.
    ///
    /// Chunks are split evenly; the number of chunks equals
    /// `min(len, threads)`, so `f`'s `chunk_index` is also a valid RNG
    /// stream id *only* when determinism across thread counts is not
    /// required — derive streams from item indices inside the range instead.
    pub fn par_chunks<F>(&self, len: usize, f: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        if len == 0 {
            return;
        }
        let chunks = self.threads.min(len);
        if chunks == 1 {
            f(0, 0..len);
            return;
        }
        let base = len / chunks;
        let extra = len % chunks;
        let f = &f;
        let mut start = 0;
        self.run_batch((0..chunks).map(move |c| {
            let size = base + usize::from(c < extra);
            let range = start..start + size;
            start += size;
            move || f(c, range)
        }));
    }

    /// Queue every job in `jobs`, help drain the queue until the batch
    /// completes, then propagate the first panic (if any).
    ///
    /// The scoped-lifetime trick: jobs borrow from the caller's stack frame
    /// (`f`, output slots), which is safe because this function does not
    /// return until every job has run — mirroring `std::thread::scope`.
    fn run_batch<'scope, I, J>(&self, jobs: I)
    where
        I: Iterator<Item = J>,
        J: FnOnce() + Send + 'scope,
    {
        let staged: Vec<J> = jobs.collect();
        let batch = Batch::new(staged.len());
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for job in staged {
                let batch = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let res = catch_unwind(AssertUnwindSafe(job));
                    batch.complete_one(res.err());
                });
                // SAFETY: extend the job's lifetime to 'static for storage in
                // the queue. `run_batch` blocks until `batch` reports all jobs
                // complete, so no job outlives the borrows it captures.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'scope>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(wrapped)
                };
                q.push_back(job);
            }
            self.shared.work_ready.notify_all();
        }
        // Help: run queued jobs (ours or a nested batch's) while waiting.
        while !batch.is_done() {
            if let Some(job) = self.shared.try_pop() {
                job();
            } else {
                let guard = batch.done_lock.lock().unwrap_or_else(|e| e.into_inner());
                if !batch.is_done() {
                    // Re-check with a timeout: a job may land between the
                    // try_pop and the wait, and workers only signal `done`.
                    let _ = batch
                        .done
                        .wait_timeout(guard, std::time::Duration::from_millis(1))
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        let panic = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake all workers so they observe the flag.
        {
            let _q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A `*mut` view of the output slots that jobs write through, one index each.
struct SharedSlots<U> {
    ptr: *mut Option<U>,
}

impl<U> Clone for SharedSlots<U> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<U> Copy for SharedSlots<U> {}

impl<U> SharedSlots<U> {
    fn new(slots: &mut [Option<U>]) -> Self {
        SharedSlots { ptr: slots.as_mut_ptr() }
    }

    /// # Safety
    /// Each index must be written by at most one job, and the backing slice
    /// must outlive the batch (guaranteed by `run_batch` blocking).
    unsafe fn write(&self, i: usize, value: U) {
        unsafe { self.ptr.add(i).write(Some(value)) };
    }
}

// SAFETY: jobs write disjoint indices; the raw pointer is only dereferenced
// while `run_batch` keeps the owning Vec alive.
unsafe impl<U: Send> Send for SharedSlots<U> {}
unsafe impl<U: Send> Sync for SharedSlots<U> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let rt = Runtime::new(4);
        let out = rt.par_map((0..100).collect(), |x: u64| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn inline_runtime_matches_pool() {
        let serial = Runtime::new(1);
        let pooled = Runtime::new(4);
        let items: Vec<u64> = (0..57).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        assert_eq!(serial.par_map_indexed(items.clone(), f), pooled.par_map_indexed(items, f));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let rt = Runtime::new(0);
        assert_eq!(rt.threads(), 1);
        assert_eq!(rt.par_map(vec![1, 2, 3], |x: i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let rt = Runtime::new(3);
        let out: Vec<i32> = rt.par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        rt.par_chunks(0, |_, _| panic!("must not be called"));
    }

    #[test]
    fn par_chunks_covers_range_exactly_once() {
        let rt = Runtime::new(4);
        let n = 103;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.par_chunks(n, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let rt = Runtime::new(2);
        let out = rt.par_map((0..8).collect(), |x: u64| {
            rt.par_map((0..4).collect(), |y: u64| x * 10 + y).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|x| (0..4).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate() {
        let rt = Runtime::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.par_map((0..16).collect(), |x: i32| {
                if x == 7 {
                    panic!("boom at 7");
                }
                x
            });
        }));
        assert!(caught.is_err());
        // Pool still usable after a panicking batch.
        assert_eq!(rt.par_map(vec![1, 2], |x: i32| x * 2), vec![2, 4]);
    }

    #[test]
    fn panicking_batch_then_normal_batch() {
        // The ISSUE-4 regression: a batch full of panicking jobs must not
        // wedge the pool for the next, well-behaved batch.
        let rt = Runtime::new(4);
        for round in 0..3 {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                rt.par_map((0..16).collect(), |x: i32| -> i32 { panic!("boom {x}") });
            }));
            assert!(caught.is_err(), "round {round}");
            assert_eq!(
                rt.par_map((0..8).collect(), |x: i32| x + round),
                (0..8).map(|x| x + round).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn poisoned_queue_mutex_is_recovered() {
        let rt = Runtime::new(2);
        // Poison the queue lock directly: panic on a helper thread while
        // holding it, as a job landing mid-push would.
        let shared = Arc::clone(&rt.shared);
        let _ = std::thread::spawn(move || {
            let _g = shared.queue.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(rt.shared.queue.lock().is_err(), "lock should be poisoned");
        assert_eq!(rt.par_map(vec![1, 2, 3], |x: i32| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn from_env_reads_fastft_threads() {
        // Note: set/remove env var is process-global; keep this the only
        // test that touches it.
        std::env::set_var("FASTFT_THREADS", "3");
        let rt = Runtime::from_env();
        assert_eq!(rt.threads(), 3);
        std::env::remove_var("FASTFT_THREADS");
        let rt = Runtime::from_env();
        assert!(rt.threads() >= 1);
    }

    #[test]
    fn many_small_batches_reuse_pool() {
        let rt = Runtime::new(4);
        for round in 0..50u64 {
            let out = rt.par_map((0..10).collect(), move |x: u64| x + round);
            assert_eq!(out[9], 9 + round);
        }
    }
}
