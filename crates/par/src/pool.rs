//! Persistent scoped thread pool for data-parallel codec stages.
//!
//! Design constraints, in order:
//!
//! 1. **Scoped borrows.** Codec stages parallelize over borrowed image
//!    rows; tasks must be able to capture non-`'static` references. The
//!    pool therefore erases the closure lifetime internally and proves
//!    completion before `run` returns (see the safety argument on
//!    [`Pool::run`]).
//! 2. **One job at a time.** The codec runs stages back to back; there is
//!    no work-stealing DAG. A single posted job with an atomic task
//!    counter is enough, and keeps the whole pool under ~200 lines.
//! 3. **Caller participates.** `threads = N` means N executors total
//!    (N−1 workers plus the calling thread), so a 1-thread pool does the
//!    work inline with no atomics, locks, or wakeups at all — the scalar
//!    baseline measured by benches is untouched by pool plumbing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One posted job: a lifetime-erased task closure plus claim/completion
/// counters. Lives in an `Arc` so a worker that wakes late can still
/// observe a consistent (finished) job rather than a dangling pointer.
struct Job {
    /// Erased `&dyn Fn(usize) + Sync` valid until `done == total`
    /// (enforced by `Pool::run` blocking on exactly that condition).
    func: *const (dyn Fn(usize) + Sync),
    /// Next task index to claim.
    next: AtomicUsize,
    /// Tasks fully executed.
    done: AtomicUsize,
    /// Total task count.
    total: usize,
    /// Completion latch for the posting thread.
    finished: Mutex<bool>,
    cv: Condvar,
}

// SAFETY: `func` is only dereferenced by `Job::work`, which first claims a
// task index below `total`; `Pool::run` keeps the referent alive until
// `done == total`, i.e. until no such claim can succeed again.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and execute tasks until the index counter runs out. Both
    /// workers and the posting thread run this same loop.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            // SAFETY: `i < total`, so the closure is still alive (see the
            // struct-level invariant); the AcqRel counter chain below
            // publishes this call's writes to whoever observes completion.
            (unsafe { &*self.func })(i);
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                *self.finished.lock().unwrap() = true;
                self.cv.notify_all();
            }
        }
    }
}

struct Slot {
    /// Monotonic job id so a worker never re-scans a job it already
    /// drained (it would just claim an out-of-range index, but skipping
    /// the wakeup round-trip keeps idle churn down).
    seq: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
}

/// A persistent scoped thread pool. See the module docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pool {{ threads: {} }}", self.threads())
    }
}

impl Pool {
    /// Create a pool with `threads` total executors (the calling thread
    /// counts as one, so this spawns `threads - 1` workers). `threads`
    /// of 0 or 1 both mean "inline, no workers".
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { seq: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("p3-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Total executors (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `f(0..tasks)` across the pool, returning when every call has
    /// completed. Tasks are claimed dynamically (an atomic counter), so
    /// uneven task costs balance themselves. The closure may capture
    /// borrowed data: the pool guarantees no task runs after `run`
    /// returns.
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // Erase the closure's lifetime. SAFETY: the job only dereferences
        // `func` for claimed indices `< tasks`; every such call completes
        // before `done == total`, and this function does not return (so
        // `f` stays alive) until it observes that condition.
        let func: &(dyn Fn(usize) + Sync) = &f;
        let func = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(func)
        };
        let job = Arc::new(Job {
            func,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            total: tasks,
            finished: Mutex::new(false),
            cv: Condvar::new(),
        });
        let seq = {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.seq += 1;
            slot.job = Some(Arc::clone(&job));
            self.shared.work_cv.notify_all();
            slot.seq
        };
        job.work();
        let mut finished = job.finished.lock().unwrap();
        while !*finished {
            finished = job.cv.wait(finished).unwrap();
        }
        drop(finished);
        // Clear the slot (if a later job hasn't replaced it already) so
        // idle workers drop their reference promptly.
        let mut slot = self.shared.slot.lock().unwrap();
        if slot.seq == seq {
            slot.job = None;
        }
    }

    /// Run one task per element of `parts`, handing each task ownership
    /// of its part. This is the safe fan-out primitive for stages that
    /// write disjoint output regions: pre-split the output with
    /// `split_at_mut`/`chunks_mut`, collect the pieces, and let each task
    /// consume its own.
    pub fn run_parts<A: Send, F: Fn(usize, A) + Sync>(&self, parts: Vec<A>, f: F) {
        if self.handles.is_empty() || parts.len() <= 1 {
            for (i, part) in parts.into_iter().enumerate() {
                f(i, part);
            }
            return;
        }
        let slots: Vec<Mutex<Option<A>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.run(slots.len(), |i| {
            let part = slots[i].lock().unwrap().take().expect("part claimed once");
            f(i, part);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.seq != last_seq {
                    if let Some(job) = &slot.job {
                        last_seq = slot.seq;
                        break Arc::clone(job);
                    }
                }
                slot = shared.work_cv.wait(slot).unwrap();
            }
        };
        job.work();
    }
}

/// Process-wide pool used by the codec stages. Replaced wholesale by
/// [`set_global_threads`]; stages grab an `Arc` per stage call, so a
/// resize never pulls a pool out from under a running job.
static GLOBAL: OnceLock<Mutex<Arc<Pool>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Arc<Pool>> {
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(Pool::new(default_threads()))))
}

/// Default executor count: every available core, capped at 16 (the codec
/// fans out over ~48 block rows; beyond 16 executors the per-row tasks
/// are too short to amortize wakeups).
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// The process-wide codec pool.
pub fn global() -> Arc<Pool> {
    Arc::clone(&global_slot().lock().unwrap())
}

/// Resize the process-wide codec pool. `0` restores the default sizing
/// (every core, capped at 16).
pub fn set_global_threads(threads: usize) {
    let threads = if threads == 0 { default_threads() } else { threads };
    let mut slot = global_slot().lock().unwrap();
    if slot.threads() != threads {
        *slot = Arc::new(Pool::new(threads));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_pool_runs_everything() {
        let pool = Pool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(17, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let n = 1 + (round * 7) % 97;
            let mask: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, |i| {
                mask[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, m) in mask.iter().enumerate() {
                assert_eq!(m.load(Ordering::Relaxed), 1, "round {round} task {i}");
            }
        }
    }

    #[test]
    fn borrowed_output_is_visible_after_run() {
        // The whole point of the scoped design: tasks write through
        // borrowed slices and the writes are visible when `run` returns.
        let pool = Pool::new(3);
        let mut out = vec![0u64; 1000];
        let parts: Vec<&mut [u64]> = out.chunks_mut(64).collect();
        pool.run_parts(parts, |idx, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 1000 + j) as u64;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, ((i / 64) * 1000 + i % 64) as u64, "element {i}");
        }
    }

    #[test]
    fn uneven_tasks_all_complete() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        pool.run(40, |i| {
            // Task cost varies 40x; dynamic claiming must still cover all.
            let spin = (i % 5) * 10_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (1..=40).sum::<u64>());
    }

    #[test]
    fn pool_survives_many_sequential_jobs() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(8, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn global_pool_resizes() {
        set_global_threads(2);
        assert_eq!(global().threads(), 2);
        set_global_threads(1);
        assert_eq!(global().threads(), 1);
        set_global_threads(0);
        assert_eq!(global().threads(), default_threads());
    }
}
