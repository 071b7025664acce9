//! The persistent thread pool every CPU scoring kernel runs on.
//!
//! # Design
//!
//! * **Spawn once.** [`ExecPool::new`] spawns `threads - 1` OS threads that
//!   park on a condvar between jobs; the caller of [`ExecPool::run`] acts
//!   as worker 0, so a single-threaded pool spawns nothing and runs
//!   inline. [`ExecPool::global`] lazily builds one pool sized to the
//!   host's available parallelism and reuses it for every scoring call in
//!   the process — the per-call thread-spawn cost the seed backends paid
//!   is gone.
//!
//! * **One block cursor.** Participants claim [`RunConfig::record_block`]
//!   rows at a time with one `fetch_add` on a job-wide cursor, the pattern
//!   the analyzer's file fan-out uses. A participant that finishes early
//!   claims the next block, so a slow block (deeper trees, a preempted
//!   worker on a busy host) holds up only itself.
//!
//! * **Everyone leaves before `run` does.** Each block runs under
//!   `catch_unwind`. A participant that finds the cursor past the end, or
//!   whose block panicked, records its counters and leaves under the one
//!   mutex `run` waits on. `run` returns — or re-raises the first panic
//!   payload — only once every participant has left. That is what makes
//!   lending the task closure (and, inside the kernels, the output slice)
//!   to the persistent workers sound, and it means no pool thread dies of
//!   a task's panic; see the safety notes on the two `unsafe` items below
//!   — the only `unsafe` in the crate.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::report::{RunReport, WorkerReport};

/// Default rows per claimed block: small enough to load-balance, large
/// enough that a block's features and votes stay L1-resident while a
/// tree's nodes are walked.
pub const DEFAULT_RECORD_BLOCK: usize = 64;

/// Default trees per tile in the blocked kernels.
pub const DEFAULT_TREE_BLOCK: usize = 16;

/// Per-run execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker cap for this run (clamped to the pool's size; the pool never
    /// uses more workers than there are record blocks).
    pub threads: usize,
    /// Rows per claimed block.
    pub record_block: usize,
    /// Trees per tile in the blocked kernels (record×tree tiling).
    pub tree_block: usize,
}

impl RunConfig {
    /// A config using `threads` workers and the default block shape.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            record_block: DEFAULT_RECORD_BLOCK,
            tree_block: DEFAULT_TREE_BLOCK,
        }
    }

    /// Overrides the record block size (values are clamped to at least 1).
    pub fn with_record_block(mut self, rows: usize) -> Self {
        self.record_block = rows.max(1);
        self
    }

    /// Overrides the tree tile size (values are clamped to at least 1).
    pub fn with_tree_block(mut self, trees: usize) -> Self {
        self.tree_block = trees.max(1);
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::for_threads(default_threads())
    }
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Locks `m`, recovering the guard from a poisoned mutex. A panic that
/// [`ExecPool::run`] re-raises unwinds through its `run_lock` guard; every
/// mutex here guards data that stays valid at every step, so a caller's
/// panic must not wedge every later scoring call on the shared pool.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A borrowed task callable with its lifetime erased, so parked workers
/// can hold it inside the job. Kept as a raw pointer — a job object can
/// outlive one `run` call (the pool state keeps its `Arc` until the next
/// job replaces it), and a raw pointer is allowed to dangle as long as it
/// is never dereferenced again.
///
/// # Safety
///
/// The pointee only lives for the duration of one [`ExecPool::run`] call.
/// Soundness rests on `run` neither returning nor unwinding before every
/// participant has left the job: participants invoke the task only before
/// they leave.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize, Range<usize>) + Sync + 'static));

#[allow(unsafe_code)]
// SAFETY: the erased closure is `Sync` and only ever shared by reference.
unsafe impl Send for TaskRef {}
#[allow(unsafe_code)]
// SAFETY: as above; `call` invokes a `Sync` pointee through `&self`.
unsafe impl Sync for TaskRef {}

impl TaskRef {
    /// Erases the closure's lifetime.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `call` is never invoked after the borrow
    /// of `task` ends. [`ExecPool::run`] upholds this by waiting, before it
    /// returns or unwinds, until every participant has left the job.
    #[allow(unsafe_code)]
    unsafe fn erase<'a>(task: &'a (dyn Fn(usize, Range<usize>) + Sync + 'a)) -> Self {
        // SAFETY: fat-pointer lifetime erasure only; see above.
        TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, Range<usize>) + Sync + 'a),
                *const (dyn Fn(usize, Range<usize>) + Sync + 'static),
            >(task as *const _)
        })
    }

    #[allow(unsafe_code)]
    fn call(&self, worker: usize, range: Range<usize>) {
        // SAFETY: invoked only by a participant that has not left its job
        // yet, and `ExecPool::run` keeps the borrowed closure alive until
        // every participant has left.
        let task = unsafe { &*self.0 };
        task(worker, range)
    }
}

/// One in-flight job: the erased task, the block cursor and the exit
/// rendezvous.
struct Job {
    task: TaskRef,
    /// Rows in the job.
    n_items: usize,
    /// Rows per claimed block.
    block: usize,
    /// Workers taking part: ids `0..participants`.
    participants: usize,
    /// The first row no participant has claimed. Relaxed: the cursor only
    /// hands out disjoint ranges; what the task writes reaches the caller
    /// through `exit`'s mutex, which every participant takes on leaving.
    next: AtomicUsize,
    /// Wall-clock epoch of the job, for worker span offsets.
    started: Instant,
    exit: Mutex<Exit>,
    /// Signalled when the last participant leaves.
    all_left: Condvar,
}

/// What participants hand back as they leave a job.
struct Exit {
    /// Participants that have not left yet.
    inside: usize,
    /// Per-participant counters, indexed by worker id.
    workers: Vec<WorkerReport>,
    /// The first panic payload a block raised.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Claims and runs blocks until the cursor passes the end or a block
    /// panics, then leaves. `me` is this participant's worker id.
    fn work(&self, me: usize) {
        let mut stats = WorkerReport::default();
        let mut panicked = None;
        loop {
            let start = self.next.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.n_items {
                break;
            }
            let range = start..start + self.block.min(self.n_items - start);
            let len = range.len();
            let t0 = self.started.elapsed();
            // The payload is re-raised to the caller of `run`, which then
            // sees the unwind just as if the closure had panicked inline.
            let result = panic::catch_unwind(AssertUnwindSafe(|| self.task.call(me, range)));
            let t1 = self.started.elapsed();
            stats.rows += len;
            stats.chunks += 1;
            stats.busy += t1 - t0;
            stats.first_start.get_or_insert(t0);
            stats.last_end = t1;
            if let Err(payload) = result {
                // The call fails as a whole: nobody claims another block.
                self.next.store(self.n_items, Ordering::Relaxed);
                panicked = Some(payload);
                break;
            }
        }
        let mut exit = lock_recover(&self.exit);
        exit.workers[me] = stats;
        if exit.panic.is_none() {
            exit.panic = panicked;
        }
        exit.inside -= 1;
        if exit.inside == 0 {
            self.all_left.notify_all();
        }
    }
}

/// Shared pool state the parked workers wait on.
struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
}

struct PoolState {
    /// Bumped once per job; workers run a job exactly once per epoch.
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

/// A persistent batch-executor thread pool.
///
/// Cloning is not supported; share the pool by reference (or use the
/// process-wide [`ExecPool::global`]). Concurrent `run` calls from
/// different threads serialize on an internal lock — the pool is a batch
/// executor, not a general task scheduler.
pub struct ExecPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Maximum participants per job (spawned workers + the caller).
    max_workers: usize,
    /// Serializes `run` calls.
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("max_workers", &self.max_workers)
            .finish()
    }
}

static GLOBAL: OnceLock<ExecPool> = OnceLock::new();

impl ExecPool {
    /// Builds a pool with `threads` total workers (the calling thread
    /// counts as one, so `threads - 1` OS threads are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mlscore-exec-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    // analyze: allow(P001, reason="a host that cannot spawn threads cannot run the pool at all; failing construction loudly is the contract")
                    .expect("spawning executor worker")
            })
            .collect();
        Self {
            shared,
            handles,
            max_workers: threads,
            run_lock: Mutex::new(()),
        }
    }

    /// The process-wide pool, built on first use with one worker per
    /// available hardware thread.
    pub fn global() -> &'static ExecPool {
        GLOBAL.get_or_init(|| ExecPool::new(default_threads()))
    }

    /// Runs `task` over `0..n_items`, blocking until every item has been
    /// executed. The task receives `(worker_index, row_range)` and is
    /// invoked once per claimed block; distinct invocations receive
    /// disjoint ranges covering `0..n_items` exactly once.
    ///
    /// Worker occupancy and block counts are returned in the
    /// [`RunReport`].
    ///
    /// # Panics
    ///
    /// If `task` panics, no further block is claimed, and `run` re-raises
    /// the first panic's original payload once every participant has left
    /// the job. The pool's threads survive and serve later calls.
    #[allow(unsafe_code)]
    pub fn run(
        &self,
        n_items: usize,
        cfg: &RunConfig,
        task: &(dyn Fn(usize, Range<usize>) + Sync),
    ) -> RunReport {
        let block = cfg.record_block.max(1);
        let participants = cfg
            .threads
            .clamp(1, self.max_workers)
            .min(n_items.div_ceil(block).max(1));
        // analyze: allow(D001, reason="the executor measures real host occupancy; wall-clock worker spans are the product here, not a determinism hazard")
        let started = Instant::now();
        if n_items == 0 {
            return RunReport::empty();
        }
        if participants == 1 {
            // Inline fast path: no cross-thread handoff at all.
            task(0, 0..n_items);
            let elapsed = started.elapsed();
            return RunReport::single(n_items, elapsed);
        }

        let _serial = lock_recover(&self.run_lock);
        // SAFETY: `run` waits below until every participant has left the
        // job — and participants call the task only before leaving — so
        // the erased borrow outlives every call through it, whether `run`
        // then returns or re-raises a panic.
        let task = unsafe { TaskRef::erase(task) };
        let job = Arc::new(Job {
            task,
            n_items,
            block,
            participants,
            next: AtomicUsize::new(0),
            started,
            exit: Mutex::new(Exit {
                inside: participants,
                workers: vec![WorkerReport::default(); participants],
                panic: None,
            }),
            all_left: Condvar::new(),
        });
        {
            let mut state = lock_recover(&self.shared.state);
            state.epoch += 1;
            state.job = Some(Arc::clone(&job));
            self.shared.wake.notify_all();
        }
        // The caller is worker 0.
        job.work(0);
        let mut exit = lock_recover(&job.exit);
        while exit.inside > 0 {
            exit = job
                .all_left
                .wait(exit)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = exit.panic.take() {
            panic::resume_unwind(payload);
        }
        RunReport::new(
            n_items,
            started.elapsed(),
            std::mem::take(&mut exit.workers),
        )
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.shutdown = true;
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock_recover(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    if let Some(job) = state.job.clone() {
                        break job;
                    }
                }
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Workers beyond the job's participant count sit this one out.
        if id < job.participants {
            job.work(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// Runs `body` on its own thread and fails the test if it has not
    /// finished within 10 s, so a wedged pool fails the suite instead of
    /// hanging it.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let handle = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(10))
        {
            panic!("the pool did not return within 10 s");
        }
        if let Err(payload) = handle.join() {
            panic::resume_unwind(payload);
        }
    }

    /// Runs `task` on `pool` over `n` one-row blocks with the first
    /// `participants` blocks held at a barrier until each participant has
    /// claimed one of them, so every participant takes part whatever the
    /// scheduler does.
    fn spread(
        pool: &ExecPool,
        n: usize,
        threads: usize,
        task: impl Fn(usize, Range<usize>) + Sync,
    ) -> RunReport {
        let participants = threads.clamp(1, pool.max_workers).min(n);
        let all_in = Barrier::new(participants);
        let cfg = RunConfig::for_threads(threads).with_record_block(1);
        pool.run(n, &cfg, &|w, range| {
            if range.start < participants {
                all_in.wait();
            }
            task(w, range)
        })
    }

    /// The panic message `run` re-raised, or `None` if it returned.
    fn raised(run: impl FnOnce()) -> Option<String> {
        let payload = panic::catch_unwind(AssertUnwindSafe(run)).err()?;
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        )
    }

    fn assert_covers_every_index_once(pool: &ExecPool, threads: usize) {
        for n in [0usize, 1, 7, 64, 65, 1000] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let cfg = RunConfig::for_threads(threads).with_record_block(16);
            let report = pool.run(n, &cfg, &|_w, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n}");
            assert_eq!(report.rows(), n);
        }
    }

    #[test]
    fn covers_every_index_exactly_once() {
        assert_covers_every_index_once(&ExecPool::new(4), 4);
    }

    #[test]
    fn reuses_workers_across_runs() {
        let pool = ExecPool::new(3);
        let count = AtomicU64::new(0);
        let cfg = RunConfig::for_threads(3).with_record_block(8);
        for _ in 0..50 {
            pool.run(100, &cfg, &|_w, range| {
                count.fetch_add(range.len() as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ExecPool::new(1);
        let caller = thread::current().id();
        let cfg = RunConfig::for_threads(1);
        pool.run(10, &cfg, &|w, _range| {
            assert_eq!(w, 0);
            assert_eq!(thread::current().id(), caller);
        });
    }

    #[test]
    fn every_participant_claims_blocks() {
        let pool = ExecPool::new(4);
        let report = spread(&pool, 256, 4, |_w, _range| {});
        assert_eq!(report.workers().len(), 4);
        assert!(
            report.workers().iter().all(|w| w.chunks >= 1),
            "report {report:?}"
        );
        assert_eq!(report.workers().iter().map(|w| w.rows).sum::<usize>(), 256);
        assert_eq!(report.rows(), 256);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller() {
        within_watchdog(|| {
            let pool = ExecPool::new(4);
            let caller = thread::current().id();
            let msg = raised(|| {
                spread(&pool, 64, 4, |_w, range| {
                    if thread::current().id() != caller {
                        panic!("helper block {}", range.start);
                    }
                });
            });
            let msg = msg.expect("run returned despite a helper panic");
            assert!(msg.starts_with("helper block "), "{msg:?}");
            assert_covers_every_index_once(&pool, 4);
        });
    }

    #[test]
    fn a_caller_panic_waits_for_the_helpers() {
        within_watchdog(|| {
            let pool = ExecPool::new(4);
            let caller = thread::current().id();
            let in_flight = AtomicUsize::new(0);
            let msg = raised(|| {
                spread(&pool, 4, 4, |w, _range| {
                    if thread::current().id() == caller {
                        panic!("worker {w} failed");
                    }
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(50));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            });
            assert_eq!(msg.as_deref(), Some("worker 0 failed"));
            // `run` unwound only after every helper's block had returned.
            assert_eq!(in_flight.load(Ordering::SeqCst), 0);
            assert_covers_every_index_once(&pool, 4);
        });
    }

    #[test]
    fn the_global_pool_scores_bit_exactly_after_a_panic() {
        use crate::kernel_simd::{score_simd_batch, FlatImage, SimdLevel};
        use mlscore_data::Dataset;
        use mlscore_forest::{ForestConfig, RandomForest};

        within_watchdog(|| {
            let pool = ExecPool::global();
            let threads = pool.max_workers;
            let msg = raised(|| {
                spread(pool, 64, threads, |_w, range| {
                    panic!("block {}", range.start);
                });
            });
            assert!(msg.expect("run returned").starts_with("block "));
            let forest = RandomForest::synthetic_full(
                &ForestConfig::classification(8, 4, 3).with_depth(6),
                5,
            );
            let image = FlatImage::from_forest(&forest, 6).unwrap();
            let data = Dataset::iris(300, 2).normalized();
            let cfg = RunConfig::for_threads(threads).with_record_block(16);
            let (preds, report) =
                score_simd_batch(&image, data.frame(), pool, &cfg, SimdLevel::detect());
            assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
            assert_eq!(report.rows(), 300);
        });
    }

    #[test]
    fn run_caps_workers_at_block_count() {
        let pool = ExecPool::new(8);
        let cfg = RunConfig::for_threads(8).with_record_block(64);
        // 100 rows / 64-row blocks => at most 2 participants.
        let report = pool.run(100, &cfg, &|_w, _r| {});
        assert!(report.workers().len() <= 2, "report {report:?}");
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ExecPool::global() as *const _;
        let b = ExecPool::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn config_builders_clamp() {
        let cfg = RunConfig::for_threads(0)
            .with_record_block(0)
            .with_tree_block(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.record_block, 1);
        assert_eq!(cfg.tree_block, 1);
    }
}
