//! The persistent work-stealing thread pool.
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
//! * **Chunk-stealing deques over row ranges.** A job over `n` items seeds
//!   one contiguous shard per participating worker. Owners split blocks of
//!   [`RunConfig::record_block`] rows off the *front* of their own shard;
//!   a worker whose deque runs dry steals the *back half* of a victim's
//!   largest remaining range. Imbalance (one worker's rows traversing
//!   deeper trees, or a preempted worker on a busy host) therefore migrates
//!   work at range granularity instead of leaving static `div_ceil` chunks
//!   stranded.
//!
//! * **Blocking completion.** `run` does not return until every row of the
//!   job has been executed, which is what makes lending the task closure
//!   (and, inside the kernels, the output slice) to the persistent workers
//!   sound; see the safety notes on the two `unsafe` items below — the
//!   only `unsafe` in the crate.

use std::collections::VecDeque;
use std::ops::Range;
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

/// Locks `m`, recovering the guard from a poisoned mutex. The pool's
/// mutexes only guard deques and counters — a panic in a caller's task
/// closure must not wedge every later scoring call on the shared pool.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A borrowed task callable with its lifetime erased, so parked workers
/// can hold it inside the job. Kept as a raw pointer — a job object can
/// outlive one `run` call (a parked worker may still hold its `Arc` while
/// re-checking for new epochs), and a raw pointer is allowed to dangle as
/// long as it is never dereferenced again.
///
/// # Safety
///
/// The pointee only lives for the duration of one [`ExecPool::run`] call.
/// Soundness rests on `run` blocking until `remaining == 0`: workers
/// invoke the task only while holding a claimed row range, and ranges
/// cannot exist after the job's row count drains to zero.
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
    /// of `task` ends. [`ExecPool::run`] upholds this by joining the job
    /// (waiting for `remaining == 0`) before returning.
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
        // SAFETY: invoked only while the worker holds a claimed range of a
        // live job, which `ExecPool::run`'s join guarantees implies the
        // borrowed closure is still alive.
        let task = unsafe { &*self.0 };
        task(worker, range)
    }
}

/// Accumulated per-worker counters for one job.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    rows: usize,
    chunks: usize,
    steals: usize,
    busy_nanos: u128,
    first_start_nanos: Option<u128>,
    last_end_nanos: u128,
}

/// One in-flight job: the erased task plus the stealing state.
struct Job {
    task: TaskRef,
    /// One deque of pending row ranges per participating worker.
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Rows not yet executed. The job is complete when this reaches zero.
    remaining: AtomicUsize,
    /// Rows per claimed block.
    block: usize,
    /// Wall-clock epoch of the job, for worker span offsets.
    started: Instant,
    /// Per-worker counters, written once by each participant on exit.
    stats: Vec<Mutex<WorkerStats>>,
    /// Participants that have flushed their counters; the caller waits for
    /// all of them before assembling the report.
    stats_written: AtomicUsize,
    /// Completion rendezvous: the finishing worker notifies the caller.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims the next block: pop from the own deque front, else steal the
    /// back half of a victim's range.
    fn claim(&self, me: usize, stats: &mut WorkerStats) -> Option<Range<usize>> {
        if let Some(range) = self.pop_front_block(me) {
            return Some(range);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (me + step) % n;
            if let Some(stolen) = self.steal_back_half(victim) {
                stats.steals += 1;
                // Keep the back of the stolen range for future pops and
                // claim its first block now.
                let take = stolen.len().min(self.block);
                let (now, later) = (
                    stolen.start..stolen.start + take,
                    stolen.start + take..stolen.end,
                );
                if !later.is_empty() {
                    lock_recover(&self.queues[me]).push_front(later);
                }
                return Some(now);
            }
        }
        None
    }

    fn pop_front_block(&self, me: usize) -> Option<Range<usize>> {
        let mut q = lock_recover(&self.queues[me]);
        let range = q.pop_front()?;
        if range.len() > self.block {
            q.push_front(range.start + self.block..range.end);
            Some(range.start..range.start + self.block)
        } else {
            Some(range)
        }
    }

    /// Steals the back half of the victim's last (largest-remaining) range.
    fn steal_back_half(&self, victim: usize) -> Option<Range<usize>> {
        let mut q = lock_recover(&self.queues[victim]);
        let range = q.pop_back()?;
        if range.len() <= self.block {
            return Some(range);
        }
        let mid = range.start + range.len() / 2;
        q.push_back(range.start..mid);
        Some(mid..range.end)
    }

    /// Executes until the job drains. `me` indexes this participant's deque.
    fn work(&self, me: usize) {
        let mut local = WorkerStats::default();
        loop {
            match self.claim(me, &mut local) {
                Some(range) => {
                    let len = range.len();
                    let t0 = self.started.elapsed().as_nanos();
                    self.task.call(me, range);
                    let t1 = self.started.elapsed().as_nanos();
                    local.rows += len;
                    local.chunks += 1;
                    local.busy_nanos += t1 - t0;
                    local.first_start_nanos.get_or_insert(t0);
                    local.last_end_nanos = t1;
                    if self.remaining.fetch_sub(len, Ordering::AcqRel) == len {
                        // Last rows executed: wake the caller. Locking the
                        // mutex orders this notify against the caller's
                        // check-then-wait.
                        let mut done = lock_recover(&self.done);
                        *done = true;
                        self.done_cv.notify_all();
                    }
                }
                None => {
                    if self.remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Every pending row is inside another worker's
                    // in-flight block; nothing to steal, so yield until the
                    // job drains.
                    std::thread::yield_now();
                }
            }
        }
        *lock_recover(&self.stats[me]) = local;
        self.stats_written.fetch_add(1, Ordering::AcqRel);
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

/// A persistent work-stealing thread pool.
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
    /// Worker occupancy, block, and steal counts are returned in the
    /// [`RunReport`].
    #[allow(unsafe_code)]
    pub fn run(
        &self,
        n_items: usize,
        cfg: &RunConfig,
        task: &(dyn Fn(usize, Range<usize>) + Sync),
    ) -> RunReport {
        let block = cfg.record_block.max(1);
        let shards = cfg
            .threads
            .clamp(1, self.max_workers)
            .min(n_items.div_ceil(block).max(1));
        // analyze: allow(D001, reason="the executor measures real host occupancy; wall-clock worker spans are the product here, not a determinism hazard")
        let started = Instant::now();
        if n_items == 0 {
            return RunReport::empty();
        }
        if shards == 1 {
            // Inline fast path: no cross-thread handoff at all.
            task(0, 0..n_items);
            let elapsed = started.elapsed();
            return RunReport::single(n_items, elapsed);
        }

        let _serial = lock_recover(&self.run_lock);
        // SAFETY: `run` joins the job below (waits until `remaining == 0`,
        // and range claims are the only path to a task invocation), so the
        // erased borrow outlives every call through it.
        let task = unsafe { TaskRef::erase(task) };
        let job = Arc::new(Job {
            task,
            queues: (0..shards)
                .map(|w| {
                    let lo = n_items * w / shards;
                    let hi = n_items * (w + 1) / shards;
                    // The deque holds row *ranges* (work items), not rows.
                    #[allow(clippy::single_range_in_vec_init)]
                    Mutex::new(VecDeque::from([lo..hi]))
                })
                .collect(),
            remaining: AtomicUsize::new(n_items),
            block,
            started,
            stats: (0..shards)
                .map(|_| Mutex::new(WorkerStats::default()))
                .collect(),
            stats_written: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut state = lock_recover(&self.shared.state);
            state.epoch += 1;
            state.job = Some(Arc::clone(&job));
            self.shared.wake.notify_all();
        }
        // The caller is worker 0.
        job.work(0);
        let mut done = lock_recover(&job.done);
        while job.remaining.load(Ordering::Acquire) != 0 {
            done = job
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        // All rows are executed; wait (briefly) for the other participants
        // to flush their counters so the occupancy report is complete.
        while job.stats_written.load(Ordering::Acquire) < shards {
            std::thread::yield_now();
        }
        let elapsed = started.elapsed();
        let workers = job
            .stats
            .iter()
            .map(|s| WorkerReport::from_raw(*lock_recover(s)))
            .collect();
        RunReport::new(n_items, elapsed, workers)
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

impl WorkerReport {
    fn from_raw(raw: WorkerStats) -> Self {
        WorkerReport {
            rows: raw.rows,
            chunks: raw.chunks,
            steals: raw.steals,
            busy: std::time::Duration::from_nanos(raw.busy_nanos.min(u64::MAX as u128) as u64),
            first_start: raw
                .first_start_nanos
                .map(|n| std::time::Duration::from_nanos(n.min(u64::MAX as u128) as u64)),
            last_end: std::time::Duration::from_nanos(
                raw.last_end_nanos.min(u64::MAX as u128) as u64
            ),
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
        // Workers beyond the job's shard count sit this one out.
        if id < job.queues.len() {
            job.work(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ExecPool::new(4);
        for n in [0usize, 1, 7, 64, 65, 1000] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let cfg = RunConfig::for_threads(4).with_record_block(16);
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
        let caller = std::thread::current().id();
        let cfg = RunConfig::for_threads(1);
        pool.run(10, &cfg, &|w, _range| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Worker 0's shard is artificially slow; the report must show the
        // other workers stealing part of it.
        let pool = ExecPool::new(4);
        let cfg = RunConfig::for_threads(4).with_record_block(1);
        let report = pool.run(256, &cfg, &|_w, range| {
            for i in range {
                if i < 64 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        });
        let total_steals: usize = report.workers().iter().map(|w| w.steals).sum();
        assert!(total_steals > 0, "expected steals, report {report:?}");
        assert_eq!(report.rows(), 256);
    }

    #[test]
    fn run_caps_workers_at_block_count() {
        let pool = ExecPool::new(8);
        let cfg = RunConfig::for_threads(8).with_record_block(64);
        // 100 rows / 64-row blocks => at most 2 shards.
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
