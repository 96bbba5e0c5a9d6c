//! The malleable worker pool and its monitoring thread.

use std::time::{Duration, Instant};

use rubic_sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use rubic_sync::thread::JoinHandle;
use rubic_sync::Arc;

use crossbeam_utils::CachePadded;
use rubic_controllers::{Controller, Sample};
use rubic_metrics::LevelTrace;

use crate::placement::WorkerPlacement;
use crate::queue::DrainSignal;
use crate::semaphore::Semaphore;

/// A throughput-oriented workload run by the pool's workers.
///
/// One call to [`run_task`](Workload::run_task) is one *task* in the
/// paper's sense — for TM workloads, typically one transaction (so the
/// pool's task rate is the commit rate the controller consumes).
/// Implementations must be safe to call concurrently from many workers.
pub trait Workload: Send + Sync + 'static {
    /// Per-worker scratch state (RNG, reusable buffers, ...).
    type WorkerState: Send;

    /// Builds the scratch state for worker `tid`.
    fn init_worker(&self, tid: usize) -> Self::WorkerState;

    /// Executes one task. Called repeatedly by active workers.
    fn run_task(&self, state: &mut Self::WorkerState);

    /// Called once by [`MalleablePool::start`] with a read-only view of
    /// the pool's gating state (current level, pool size). Queue-backed
    /// workloads use it to steer work *away* from shards owned by gated
    /// workers; the default ignores it.
    fn attach(&self, view: PoolView) {
        let _ = view;
    }

    /// Called by the worker loop immediately before the worker parks
    /// (its `tid` fell above the level) and once when it exits. A
    /// workload that buffers tasks per worker must return them to
    /// steal-visible storage here, so a level decrease can never strand
    /// tasks on a parked worker. The default does nothing.
    fn on_park(&self, state: &mut Self::WorkerState) {
        let _ = state;
    }

    /// Returns (and resets) the number of transaction aborts this
    /// worker experienced since the previous call. Called by the worker
    /// loop after each task so the pool can account aborts per worker
    /// and per monitoring interval, symmetrically with the completed-
    /// task counters. The default reports none — non-transactional
    /// workloads need no change; STM workloads typically forward
    /// `rubic_stm::take_thread_aborts()`.
    fn drain_aborts(&self, state: &mut Self::WorkerState) -> u64 {
        let _ = state;
        0
    }

    /// Cumulative `(local, remote)` steal counts, if the workload
    /// tracks steal locality (see
    /// [`ShardedWorkload`](crate::ShardedWorkload)). Read once by
    /// [`MalleablePool::stop`] to fill the [`RunReport`]'s
    /// steal-locality fields; the default reports nothing.
    fn steal_locality(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool size `S` — the number of worker threads created. The
    /// controller may activate at most this many.
    pub size: u32,
    /// Initial parallelism level (the paper starts at 1).
    pub initial_level: u32,
    /// Monitoring period (`TIME_PERIOD`; the paper samples every 10 ms).
    pub period: Duration,
    /// Optional cap on the number of tasks executed; the pool shuts
    /// itself down once the budget is exhausted (the paper's
    /// "task queue drained, workers terminate" mode).
    pub task_budget: Option<u64>,
    /// Livelock watchdog: after this many *consecutive* monitor rounds
    /// with zero completed tasks (while workers are supposedly active),
    /// the monitor emits a diagnostic and counts a stall warning in the
    /// [`RunReport`]. An abort storm that commits nothing looks exactly
    /// like this. Default 100 rounds (1 s at the paper's 10 ms period).
    pub stall_rounds: u32,
    /// Worker-to-socket assignment (default: flat — one socket, the
    /// pre-topology behaviour). Determines the fill order as the level
    /// rises (tid order is activation order) and which steals count as
    /// local vs. cross-socket.
    pub placement: WorkerPlacement,
    /// Label used in thread names and reports.
    pub name: String,
}

impl PoolConfig {
    /// Config with `size` workers, level 1, the paper's 10 ms period,
    /// and no task budget.
    #[must_use]
    pub fn new(size: u32) -> Self {
        PoolConfig {
            size: size.max(1),
            initial_level: 1,
            period: Duration::from_millis(10),
            task_budget: None,
            stall_rounds: 100,
            placement: WorkerPlacement::flat(size.max(1)),
            name: "rubic-pool".to_string(),
        }
    }

    /// Sets the initial parallelism level (clamped to `[1, size]`).
    #[must_use]
    pub fn initial_level(mut self, level: u32) -> Self {
        self.initial_level = level.clamp(1, self.size);
        self
    }

    /// Sets the monitoring period.
    #[must_use]
    pub fn monitor_period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }

    /// Caps the total number of tasks.
    #[must_use]
    pub fn task_budget(mut self, tasks: u64) -> Self {
        self.task_budget = Some(tasks);
        self
    }

    /// Sets the livelock watchdog threshold (consecutive zero-progress
    /// monitor rounds before a stall warning; minimum 1).
    #[must_use]
    pub fn stall_rounds(mut self, rounds: u32) -> Self {
        self.stall_rounds = rounds.max(1);
        self
    }

    /// Sets the worker-to-socket assignment.
    ///
    /// # Panics
    /// Panics if the placement does not cover exactly `size` workers.
    #[must_use]
    pub fn placement(mut self, placement: WorkerPlacement) -> Self {
        assert_eq!(
            placement.size(),
            self.size as usize,
            "placement covers {} workers, pool has {}",
            placement.size(),
            self.size
        );
        self.placement = placement;
        self
    }

    /// Names the pool (thread names, reports).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// One worker's commit/abort counter pair, padded onto a single cache
/// line. Both cells are written only by the owning worker (the monitor
/// reads them), so co-locating them is free — one line per worker
/// instead of two, halving the lines the monitor's sweep pulls and the
/// lines a worker's stores keep in M state.
#[derive(Debug, Default)]
struct WorkerSlot {
    tasks: AtomicU64,
    aborts: AtomicU64,
}

/// Shared state between workers and the monitor.
struct Shared {
    /// `L_RUBIC`: number of active workers. Workers with
    /// `tid >= level` park.
    ///
    /// `level`, `running` and `budget` are each padded onto their own
    /// cache line: every worker polls `level`/`running` on every task
    /// and, in finite-queue mode, RMWs `budget`, so letting any two
    /// share a line would false-share the hottest loads in the pool with
    /// the hottest store (`budget`'s `fetch_sub`).
    level: CachePadded<AtomicU32>,
    running: CachePadded<AtomicBool>,
    /// Pool size `S` (worker count); the fixed upper bound on `level`.
    size: u32,
    /// The shared admission gate. Gated workers park on it with a
    /// predicate wait; the monitor admits `n` workers on a level
    /// increase with a single `signal_n(n)` (one lock + one
    /// `notify_all`) instead of `n` sequential per-semaphore signals.
    gate: Semaphore,
    /// Per-worker commit/abort slots, each padded onto its own cache
    /// line. Single-writer (the owning worker); the monitor only
    /// reads. Relaxed everywhere — the sound equivalent of the paper's
    /// plain thread-local counters.
    slots: Vec<CachePadded<WorkerSlot>>,
    /// Remaining task budget; negative means "exhausted, stop".
    /// Untouched when unbounded (`None`): a shared RMW per task would
    /// move this line between cores on every task of every workload.
    budget: Option<CachePadded<AtomicI64>>,
    /// Tasks that panicked instead of completing (see `worker_loop`).
    panics: AtomicU64,
    /// Stall warnings raised by the monitor's livelock watchdog.
    stalls: AtomicU64,
    /// Worker-to-socket assignment (immutable for the pool's lifetime).
    placement: WorkerPlacement,
    /// Fired exactly once when `running` flips to false, so
    /// [`MalleablePool::wait_budget_exhausted`] can block on a condvar
    /// instead of sleep-polling.
    stopped: DrainSignal,
}

impl Shared {
    fn new(cfg: &PoolConfig) -> Self {
        Shared {
            level: CachePadded::new(AtomicU32::new(cfg.initial_level.clamp(1, cfg.size))),
            running: CachePadded::new(AtomicBool::new(true)),
            size: cfg.size,
            gate: Semaphore::new(0),
            slots: (0..cfg.size)
                .map(|_| CachePadded::new(WorkerSlot::default()))
                .collect(),
            budget: cfg
                .task_budget
                .map(|b| CachePadded::new(AtomicI64::new(i64::try_from(b).unwrap_or(i64::MAX)))),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            placement: cfg.placement.clone(),
            stopped: DrainSignal::default(),
        }
    }

    fn shutdown(&self) {
        self.running.store(false, Ordering::Release);
        // Wake every parked worker in one batch; their gate predicate
        // re-checks `running` and lets them exit.
        self.gate.signal_n(self.size as usize);
        self.stopped.fire();
    }

    fn total_tasks(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.tasks.load(Ordering::Relaxed)) // ordering: monitoring read
            .sum()
    }

    #[cfg(test)]
    fn total_aborts(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.aborts.load(Ordering::Relaxed)) // ordering: monitoring read
            .sum()
    }
}

/// A cloneable, read-only view of a pool's gating state, handed to the
/// workload through [`Workload::attach`].
///
/// Queue-backed workloads use it to prioritise stealing from shards
/// whose owning workers are gated (`tid >= level()`), so a level
/// decrease never strands queued tasks behind a parked worker.
#[derive(Clone)]
pub struct PoolView {
    shared: Arc<Shared>,
}

impl PoolView {
    /// The current parallelism level (workers with `tid >= level` are
    /// gated).
    #[must_use]
    pub fn level(&self) -> u32 {
        // ordering: the level is advisory for steal prioritisation; a
        // stale read only delays the gated-shard preference by one hop.
        self.shared.level.load(Ordering::Relaxed)
    }

    /// The pool size `S` (total worker count).
    #[must_use]
    pub fn size(&self) -> u32 {
        self.shared.size
    }

    /// True while the pool accepts work.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::Acquire)
    }

    /// The socket worker `tid` is assigned to.
    #[must_use]
    pub fn socket_of(&self, tid: usize) -> u32 {
        self.shared.placement.socket_of(tid)
    }

    /// Sockets in the pool's worker placement (1 = flat).
    #[must_use]
    pub fn sockets(&self) -> u32 {
        self.shared.placement.sockets()
    }

    /// True when workers `a` and `b` share a socket.
    #[must_use]
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.shared.placement.same_socket(a, b)
    }
}

impl std::fmt::Debug for PoolView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolView")
            .field("level", &self.level())
            .field("size", &self.size())
            .finish()
    }
}

/// A running malleable pool: `size` workers plus one monitoring thread.
///
/// Dropping the pool stops and joins everything; prefer
/// [`stop`](MalleablePool::stop) to also receive the [`RunReport`].
pub struct MalleablePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<LevelTrace>>,
    started: Instant,
    name: String,
    /// Type-erased accessor for the workload's steal-locality counters
    /// (the pool is not generic over `W` and does not retain the
    /// workload; this closure holds the only handle `stop` needs).
    steal_stats: Box<dyn Fn() -> Option<(u64, u64)> + Send + Sync>,
}

impl MalleablePool {
    /// Spawns the workers and the monitoring thread and starts running
    /// `workload` under `controller`.
    ///
    /// # Panics
    /// Panics if worker threads cannot be spawned.
    #[must_use]
    pub fn start<W: Workload>(
        cfg: PoolConfig,
        workload: W,
        controller: Box<dyn Controller>,
    ) -> Self {
        let shared = Arc::new(Shared::new(&cfg));
        let workload = Arc::new(workload);
        workload.attach(PoolView {
            shared: Arc::clone(&shared),
        });

        let workers: Vec<JoinHandle<()>> = (0..cfg.size as usize)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                let workload = Arc::clone(&workload);
                rubic_sync::thread::Builder::new()
                    .name(format!("{}-w{}", cfg.name, tid))
                    .spawn(move || worker_loop(tid, &shared, &*workload))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        let monitor = {
            let shared = Arc::clone(&shared);
            let period = cfg.period;
            let stall_rounds = cfg.stall_rounds.max(1);
            rubic_sync::thread::Builder::new()
                .name(format!("{}-monitor", cfg.name))
                .spawn(move || monitor_loop(&shared, period, stall_rounds, controller))
                .expect("failed to spawn monitor thread")
        };

        let stats_src = Arc::clone(&workload);
        MalleablePool {
            shared,
            workers,
            monitor: Some(monitor),
            started: Instant::now(),
            name: cfg.name,
            steal_stats: Box::new(move || stats_src.steal_locality()),
        }
    }

    /// The current parallelism level.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.shared.level.load(Ordering::Relaxed) // ordering: monitoring read
    }

    /// Tasks completed so far across all workers.
    #[must_use]
    pub fn total_tasks(&self) -> u64 {
        self.shared.total_tasks()
    }

    /// True while the pool accepts work (false once stopped or the task
    /// budget ran out).
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::Acquire)
    }

    /// Blocks until the task budget is exhausted (or `stop` is called
    /// from another thread). Returns immediately for unbounded pools
    /// that were already stopped. Event-driven: the waiter parks on a
    /// condvar that `shutdown` fires, rather than sleep-polling.
    pub fn wait_budget_exhausted(&self) {
        self.shared.stopped.wait();
    }

    /// Stops the pool, joins all threads, and reports the run.
    #[must_use]
    pub fn stop(mut self) -> RunReport {
        // Capture the duration at the moment shutdown is *initiated*:
        // joining can take up to a park-timeout per worker, and counting
        // that drain into `elapsed` deflates every throughput number
        // derived from the report (the shorter the run, the worse).
        let elapsed = self.started.elapsed();
        self.shared.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let trace = self
            .monitor
            .take()
            .map(|m| m.join().unwrap_or_default())
            .unwrap_or_default();
        let per_worker: Vec<u64> = self
            .shared
            .slots
            .iter()
            .map(|s| s.tasks.load(Ordering::Relaxed)) // ordering: workers joined
            .collect();
        let per_worker_aborts: Vec<u64> = self
            .shared
            .slots
            .iter()
            .map(|s| s.aborts.load(Ordering::Relaxed)) // ordering: workers joined
            .collect();
        let (steals_local, steals_remote) = (self.steal_stats)().unwrap_or((0, 0));
        RunReport {
            name: std::mem::take(&mut self.name),
            total_tasks: per_worker.iter().sum(),
            total_aborts: per_worker_aborts.iter().sum(),
            per_worker,
            per_worker_aborts,
            elapsed,
            worker_panics: self.shared.panics.load(Ordering::Relaxed), // ordering: workers joined
            stall_warnings: self.shared.stalls.load(Ordering::Relaxed), // ordering: monitor joined
            steals_local,
            steals_remote,
            trace,
        }
    }
}

impl Drop for MalleablePool {
    fn drop(&mut self) {
        self.shared.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
    }
}

/// What a completed pool run produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Pool name.
    pub name: String,
    /// Total completed tasks.
    pub total_tasks: u64,
    /// Total transaction aborts reported by the workload's
    /// [`Workload::drain_aborts`] across all workers (0 for workloads
    /// that don't report aborts).
    pub total_aborts: u64,
    /// Tasks per worker (index = tid). Gated workers show the effect of
    /// the level trace directly: high tids complete few or no tasks.
    pub per_worker: Vec<u64>,
    /// Aborts per worker (index = tid), symmetric with `per_worker`.
    pub per_worker_aborts: Vec<u64>,
    /// Wall-clock duration from start to the moment `stop` was called
    /// (thread-join drain time excluded).
    pub elapsed: Duration,
    /// Tasks whose `run_task` panicked. The panics are caught, the
    /// worker survives with freshly initialised state, and the count
    /// surfaces here so a harness can fail loudly on any non-zero value.
    pub worker_panics: u64,
    /// Times the livelock watchdog fired (no completed task for
    /// `stall_rounds` consecutive monitor rounds).
    pub stall_warnings: u64,
    /// Steals whose thief and victim shared a socket (0 unless the
    /// workload reports locality via [`Workload::steal_locality`]).
    pub steals_local: u64,
    /// Steals that crossed sockets — the placement-pathology signal.
    pub steals_remote: u64,
    /// `(round, level, throughput)` trace recorded by the monitor.
    pub trace: LevelTrace,
}

impl RunReport {
    /// Mean task throughput over the whole run (tasks per second).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_tasks as f64 / secs
        }
    }

    /// Fraction of transaction attempts that aborted:
    /// `aborts / (tasks + aborts)`. `0.0` when the workload reports no
    /// aborts (either none happened or it doesn't implement
    /// [`Workload::drain_aborts`]).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.total_tasks + self.total_aborts;
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts as f64 / attempts as f64
        }
    }
}

/// Algorithm 1: gate on `tid >= L_RUBIC`, then run one task and bump the
/// thread-local counter.
fn worker_loop<W: Workload>(tid: usize, shared: &Shared, workload: &W) {
    let mut state = workload.init_worker(tid);
    let tid_u32 = tid as u32;
    // Fallback timeout: the gate's predicate wait re-checks level and
    // running under the semaphore lock, so wakeups cannot be lost; the
    // timeout is a pure belt-and-braces bound on any missed transition.
    let park_timeout = Duration::from_millis(50);
    let mut parked = false;

    while shared.running.load(Ordering::Acquire) {
        // The gate (Algorithm 1, AcquireTask): a single relaxed load on
        // the hot path; the semaphore wait only happens when gated.
        // ordering: the level is a pure admission threshold — no data is
        // published with it, and the predicate re-check inside
        // `wait_while` runs under the gate's lock, which orders the
        // monitor's store. A stale read here costs one extra loop.
        if tid_u32 >= shared.level.load(Ordering::Relaxed) {
            // Hand locally buffered tasks back to steal-visible storage
            // *before* parking — a level decrease must never strand
            // tasks on a sleeping worker.
            workload.on_park(&mut state);
            if !parked {
                parked = true;
                // ordering: trace payload only
                crate::trc::worker_park(tid, shared.level.load(Ordering::Relaxed), true);
            }
            let _ = shared.gate.wait_while(park_timeout, || {
                // ordering: evaluated under the gate's lock (see above)
                tid_u32 >= shared.level.load(Ordering::Relaxed)
                    && shared.running.load(Ordering::Acquire)
            });
            continue; // re-check gate and running flag
        }
        if parked {
            parked = false;
            // ordering: trace payload only
            crate::trc::worker_park(tid, shared.level.load(Ordering::Relaxed), false);
        }

        // Task budget (finite-queue mode).
        let exhausted = shared
            .budget
            .as_ref()
            .is_some_and(|b| b.fetch_sub(1, Ordering::AcqRel) <= 0);
        if exhausted {
            shared.shutdown();
            break;
        }

        // A panicking task must not take the whole pool down (the pool
        // is a shared runtime; one bad task is the workload's bug, not
        // grounds to deadlock `stop()` on a dead worker). Catch it,
        // count it, and rebuild the scratch state — the panic may have
        // left it half-updated.
        let completed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            workload.run_task(&mut state);
        }))
        .is_ok();
        if !completed {
            shared.panics.fetch_add(1, Ordering::Relaxed); // ordering: stat counter
            state = workload.init_worker(tid);
            continue; // the task did not complete; don't count it
        }

        // Single-writer counter: plain add, relaxed. Only the monitor
        // reads it. Both cells live on this worker's own padded slot.
        // ordering: single-writer slot, monitor reads are tolerant of
        // staleness — the sound equivalent of the paper's plain
        // thread-local counters.
        let slot = &shared.slots[tid];
        slot.tasks
            .store(slot.tasks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);

        // Abort accounting, same single-writer discipline: the workload
        // drains its thread-local abort count (0 for non-TM workloads —
        // the default impl short-circuits and the store is skipped).
        let aborted = workload.drain_aborts(&mut state);
        if aborted > 0 {
            // ordering: same single-writer discipline as `tasks`.
            slot.aborts.store(
                slot.aborts.load(Ordering::Relaxed) + aborted,
                Ordering::Relaxed,
            );
        }
    }
    // Exit path (shutdown or budget exhaustion): return any buffered
    // tasks so a queue's accounting sees them as unprocessed, not lost.
    workload.on_park(&mut state);
}

/// The monitoring thread: measure throughput each round, consult the
/// controller, apply the level, signal newly enabled workers.
fn monitor_loop(
    shared: &Shared,
    period: Duration,
    stall_rounds: u32,
    mut controller: Box<dyn Controller>,
) -> LevelTrace {
    let mut trace = LevelTrace::new();
    let mut sweep = CounterSweep::new(shared.slots.len());
    let mut prev_instant = Instant::now();
    let mut round = 0u64;
    let mut zero_progress_rounds = 0u32;
    // Level-oscillation watchdog state: the direction of the previous
    // level change and the count of consecutive direction reversals.
    let mut last_dir: i8 = 0;
    let mut level_flips: u32 = 0;
    /// Consecutive up/down reversals before the oscillation anomaly
    /// fires: a healthy controller reverses once when it overshoots and
    /// settles; four straight reversals is sustained thrash.
    const OSCILLATION_FLIPS: u32 = 4;

    while shared.running.load(Ordering::Acquire) {
        rubic_sync::thread::sleep(period);
        let now = Instant::now();
        let elapsed = now.duration_since(prev_instant).as_secs_f64();
        prev_instant = now;

        // One relaxed pass over the padded per-worker slots yields the
        // round's totals *and* the per-worker deltas — the monitor
        // touches each worker's cache line exactly once per round.
        let (delta, abort_delta) = sweep.take(shared);
        let t_c = if elapsed > 0.0 {
            delta as f64 / elapsed
        } else {
            0.0
        };

        // ordering: the monitor is the only writer of `level`; its own
        // read-back needs no synchronisation.
        let level = shared.level.load(Ordering::Relaxed);

        crate::trc::monitor_round(round, delta, level, abort_delta, t_c);
        if crate::trc::active() {
            for (tid, &(w_delta, a_delta)) in sweep.last_deltas.iter().enumerate() {
                if w_delta > 0 || a_delta > 0 {
                    crate::trc::worker_delta(tid, w_delta, round, a_delta);
                }
            }
        }

        // Livelock watchdog: active workers that complete nothing round
        // after round are stuck — classically an abort storm where every
        // transaction keeps conflicting and none commits. There is no
        // safe automatic remedy (lowering the level further masks the
        // bug), so diagnose loudly and keep counting.
        if delta == 0 && shared.running.load(Ordering::Acquire) {
            zero_progress_rounds += 1;
            if zero_progress_rounds >= stall_rounds {
                shared.stalls.fetch_add(1, Ordering::Relaxed); // ordering: stat counter
                eprintln!(
                    "[{}] watchdog: no task completed for {} monitor rounds \
                     (round {}, level {}) — possible abort storm or livelock",
                    // The thread name is diagnostics only, not a sync edge.
                    std::thread::current().name().unwrap_or("rubic-monitor"), // lint: allow-std-sync
                    zero_progress_rounds,
                    round,
                    level,
                );
                // Abort storm: freeze the flight recorder while the
                // evidence (the storm's abort events) is still in it.
                crate::trc::anomaly(
                    crate::trc::ANOMALY_ABORT_STORM,
                    u64::from(zero_progress_rounds),
                    u64::from(stall_rounds),
                    round,
                );
                zero_progress_rounds = 0;
            }
        } else {
            zero_progress_rounds = 0;
        }

        let new_level = controller
            .decide(Sample {
                throughput: t_c,
                level,
                round,
            })
            .clamp(1, shared.size);

        trace.push_with_aborts(round, level, t_c, abort_delta);
        round += 1;

        if new_level != level {
            crate::trc::level_change(level, new_level, round);
            // Oscillation: every change whose direction reverses the
            // previous one bumps the flip streak; a same-direction move
            // (a deliberate multi-step ramp) resets it.
            let dir: i8 = if new_level > level { 1 } else { -1 };
            if dir == -last_dir {
                level_flips += 1;
                if level_flips >= OSCILLATION_FLIPS {
                    crate::trc::anomaly(
                        crate::trc::ANOMALY_LEVEL_OSCILLATION,
                        u64::from(level_flips),
                        u64::from(OSCILLATION_FLIPS),
                        round,
                    );
                    level_flips = 0;
                }
            } else {
                level_flips = 0;
            }
            last_dir = dir;
            // ordering: Relaxed is sound because the level never travels
            // with data: ungating workers observe it through the gate's
            // semaphore lock (signal_n below), and the worker hot path
            // tolerates staleness (re-checked under the same lock).
            shared.level.store(new_level, Ordering::Relaxed);
            // Wake the newly enabled workers (Algorithm 2 lines 20-22)
            // in one batch: a single lock acquisition plus one
            // `notify_all` on the shared gate, instead of one
            // lock+notify per admitted worker. The level store above is
            // published to parked workers by the gate's own lock.
            if new_level > level {
                shared.gate.signal_n((new_level - level) as usize);
            }
            // Workers above the new level park themselves at their next
            // gate check; no action needed here.
        }
    }

    // The shutdown flag flips mid-sleep, so the loop exits with a
    // partial interval unrecorded. Short runs (a handful of periods)
    // lose a measurable share of their trace without it — fold the tail
    // in as a final sample instead of discarding the work it measured.
    let elapsed = prev_instant.elapsed().as_secs_f64();
    let (delta, abort_delta) = sweep.take(shared);
    if elapsed > 0.0 && delta > 0 {
        let t_c = delta as f64 / elapsed;
        let level = shared.level.load(Ordering::Relaxed); // ordering: own store, see above
        crate::trc::monitor_round(round, delta, level, abort_delta, t_c);
        trace.push_with_aborts(round, level, t_c, abort_delta);
    }
    trace
}

/// Reusable scratch for the monitor's once-per-round counter sweep:
/// previous per-worker readings plus the deltas of the last call.
struct CounterSweep {
    prev: Vec<(u64, u64)>,
    /// `(task_delta, abort_delta)` per worker from the latest `take`.
    last_deltas: Vec<(u64, u64)>,
}

impl CounterSweep {
    fn new(workers: usize) -> Self {
        CounterSweep {
            prev: vec![(0, 0); workers],
            last_deltas: vec![(0, 0); workers],
        }
    }

    /// Reads every worker slot once (relaxed) and returns the summed
    /// `(task_delta, abort_delta)` since the previous call. Per-worker
    /// deltas are left in `last_deltas`.
    ///
    /// Deltas are conserved: over any sequence of calls, the per-worker
    /// deltas sum to exactly the slot's final reading, regardless of
    /// concurrent level changes (each slot is single-writer and
    /// monotone, so `current - prev` can never lose or double-count).
    fn take(&mut self, shared: &Shared) -> (u64, u64) {
        let mut tasks = 0u64;
        let mut aborts = 0u64;
        for (tid, slot) in shared.slots.iter().enumerate() {
            // ordering: single-writer monotone counters; a stale read
            // shifts a task into the next round's delta, never loses it.
            let t = slot.tasks.load(Ordering::Relaxed);
            let a = slot.aborts.load(Ordering::Relaxed);
            let (pt, pa) = self.prev[tid];
            let (dt, da) = (t - pt, a - pa);
            self.prev[tid] = (t, a);
            self.last_deltas[tid] = (dt, da);
            tasks += dt;
            aborts += da;
        }
        (tasks, aborts)
    }
}

impl<W: Workload> Workload for Arc<W> {
    type WorkerState = W::WorkerState;

    fn init_worker(&self, tid: usize) -> W::WorkerState {
        W::init_worker(self, tid)
    }

    fn run_task(&self, state: &mut W::WorkerState) {
        W::run_task(self, state);
    }

    fn attach(&self, view: PoolView) {
        W::attach(self, view);
    }

    fn on_park(&self, state: &mut W::WorkerState) {
        W::on_park(self, state);
    }

    fn drain_aborts(&self, state: &mut W::WorkerState) -> u64 {
        W::drain_aborts(self, state)
    }

    fn steal_locality(&self) -> Option<(u64, u64)> {
        W::steal_locality(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubic_controllers::{Ebs, Fixed};

    /// Workload that spins briefly; tasks complete fast enough for
    /// milliseconds-scale tests.
    struct Spin;
    impl Workload for Spin {
        type WorkerState = ();
        fn init_worker(&self, _tid: usize) {}
        fn run_task(&self, _state: &mut ()) {
            std::hint::black_box((0..100u64).fold(0, |a, b| a ^ b));
        }
    }

    fn fixed_pool(size: u32, level: u32) -> MalleablePool {
        MalleablePool::start(
            PoolConfig::new(size)
                .initial_level(level)
                .monitor_period(Duration::from_millis(2))
                .name("test"),
            Spin,
            Box::new(Fixed::new(level, size)),
        )
    }

    #[test]
    fn runs_and_stops() {
        let pool = fixed_pool(4, 2);
        std::thread::sleep(Duration::from_millis(30));
        let report = pool.stop();
        assert!(report.total_tasks > 0, "no tasks ran");
        assert_eq!(report.per_worker.len(), 4);
        assert!(!report.trace.is_empty(), "monitor recorded nothing");
    }

    #[test]
    fn gated_workers_do_no_work() {
        let pool = fixed_pool(4, 1);
        std::thread::sleep(Duration::from_millis(40));
        let report = pool.stop();
        // Only worker 0 is active. Workers 2..4 must be idle; worker 1
        // may run a handful of tasks before the first gate check.
        assert!(report.per_worker[0] > 0);
        assert_eq!(report.per_worker[2], 0, "{:?}", report.per_worker);
        assert_eq!(report.per_worker[3], 0, "{:?}", report.per_worker);
    }

    #[test]
    fn level_changes_wake_workers() {
        // Start at level 1 with a controller that climbs (EBS on a
        // plateau climbs +1 per round); higher-tid workers must
        // eventually run tasks.
        let pool = MalleablePool::start(
            PoolConfig::new(3)
                .initial_level(1)
                .monitor_period(Duration::from_millis(2)),
            Spin,
            Box::new(Ebs::new(3)),
        );
        // Deadline-based: under CPU contention (e.g. concurrent bench
        // runs) a fixed sleep is flaky.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if pool.level() == 3 && pool.total_tasks() > 0 {
                // Give the newly enabled workers a beat to run.
                std::thread::sleep(Duration::from_millis(50));
                break;
            }
            assert!(Instant::now() < deadline, "level never reached 3");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = pool.stop();
        assert!(
            report.per_worker.iter().all(|&t| t > 0),
            "all workers should have been enabled: {:?}",
            report.per_worker
        );
    }

    #[test]
    fn task_budget_stops_pool() {
        let pool = MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .task_budget(100)
                .monitor_period(Duration::from_millis(2)),
            Spin,
            Box::new(Fixed::new(2, 2)),
        );
        pool.wait_budget_exhausted();
        let report = pool.stop();
        // fetch_sub semantics: exactly `budget` tasks run.
        assert_eq!(report.total_tasks, 100);
    }

    #[test]
    fn trace_levels_respect_bounds() {
        let pool = MalleablePool::start(
            PoolConfig::new(4).monitor_period(Duration::from_millis(1)),
            Spin,
            Box::new(Ebs::new(4)),
        );
        std::thread::sleep(Duration::from_millis(40));
        let report = pool.stop();
        for p in report.trace.points() {
            assert!((1..=4).contains(&p.level));
        }
        // Rounds are recorded monotonically.
        let rounds: Vec<u64> = report.trace.points().iter().map(|p| p.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn throughput_is_positive() {
        let pool = fixed_pool(2, 2);
        std::thread::sleep(Duration::from_millis(30));
        let report = pool.stop();
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn drop_without_stop_joins_cleanly() {
        let pool = fixed_pool(2, 1);
        std::thread::sleep(Duration::from_millis(10));
        drop(pool); // must not hang or panic
    }

    #[test]
    fn abort_accounting_flows_to_report_and_trace() {
        // Every third task "aborts once first": drain_aborts reports a
        // synthetic retry so the counters exercise the same path a real
        // STM workload uses via take_thread_aborts().
        struct Flaky;
        impl Workload for Flaky {
            type WorkerState = u64; // tasks run by this worker
            fn init_worker(&self, _tid: usize) -> u64 {
                0
            }
            fn run_task(&self, state: &mut u64) {
                *state += 1;
                std::hint::black_box((0..100u64).fold(0, |a, b| a ^ b));
            }
            fn drain_aborts(&self, state: &mut u64) -> u64 {
                // `is_multiple_of` postdates the 1.75 MSRV.
                #[allow(clippy::manual_is_multiple_of)]
                u64::from(*state % 3 == 0)
            }
        }
        let pool = MalleablePool::start(
            PoolConfig::new(2)
                .initial_level(2)
                .monitor_period(Duration::from_millis(2))
                .task_budget(300),
            Flaky,
            Box::new(Fixed::new(2, 2)),
        );
        pool.wait_budget_exhausted();
        let report = pool.stop();
        assert!(report.total_aborts > 0, "synthetic aborts not drained");
        assert_eq!(
            report.per_worker_aborts.iter().sum::<u64>(),
            report.total_aborts
        );
        // The monitor's last sample may miss a straggler abort store
        // (worker bumps its task counter before its abort counter), so
        // the trace can undercount the report — never overcount.
        assert!(report.trace.total_aborts() <= report.total_aborts);
        let rate = report.abort_rate();
        assert!(rate > 0.0 && rate < 1.0, "abort_rate = {rate}");
    }

    #[test]
    fn abort_rate_zero_when_unreported() {
        let pool = fixed_pool(2, 2);
        std::thread::sleep(Duration::from_millis(20));
        let report = pool.stop();
        assert_eq!(report.total_aborts, 0);
        assert_eq!(report.abort_rate(), 0.0);
    }

    #[test]
    fn counter_sweep_conserves_deltas_across_level_changes() {
        // Workers bump their slots concurrently while the "monitor"
        // sweeps at arbitrary moments and the level flips between
        // sweeps; the per-worker deltas must sum to exactly the final
        // counter values — nothing lost, nothing double-counted.
        let cfg = PoolConfig::new(4);
        let shared = Arc::new(Shared::new(&cfg));
        let writers: Vec<_> = (0..4usize)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let slot = &shared.slots[tid];
                        slot.tasks
                            .store(slot.tasks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        if i % 3 == 0 {
                            slot.aborts
                                .store(slot.aborts.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();

        let mut sweep = CounterSweep::new(4);
        let mut seen_tasks = 0u64;
        let mut seen_aborts = 0u64;
        for i in 0..50 {
            // Flip the level between sweeps: the sweep must not care.
            shared.level.store(1 + (i % 4), Ordering::Relaxed);
            let (dt, da) = sweep.take(&shared);
            seen_tasks += dt;
            seen_aborts += da;
        }
        for w in writers {
            w.join().unwrap();
        }
        let (dt, da) = sweep.take(&shared);
        seen_tasks += dt;
        seen_aborts += da;
        assert_eq!(seen_tasks, shared.total_tasks());
        assert_eq!(seen_aborts, shared.total_aborts());
        assert_eq!(seen_tasks, 40_000);
        // Per-worker deltas in the final sweep also conserve: each
        // worker's prev reading equals its final counter now.
        for (tid, slot) in shared.slots.iter().enumerate() {
            assert_eq!(sweep.prev[tid].0, slot.tasks.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn pool_view_reports_level_and_size() {
        struct Capture(Mutex<Option<PoolView>>);
        struct W(Arc<Capture>);
        impl Workload for W {
            type WorkerState = ();
            fn init_worker(&self, _tid: usize) {}
            fn run_task(&self, (): &mut ()) {
                std::thread::sleep(Duration::from_micros(50));
            }
            fn attach(&self, view: PoolView) {
                *self.0 .0.lock().unwrap() = Some(view);
            }
        }
        use std::sync::Mutex;
        let cap = Arc::new(Capture(Mutex::new(None)));
        let pool = MalleablePool::start(
            PoolConfig::new(3)
                .initial_level(2)
                .monitor_period(Duration::from_millis(5)),
            W(Arc::clone(&cap)),
            Box::new(Fixed::new(2, 3)),
        );
        let view = cap.0.lock().unwrap().clone().expect("attach not called");
        assert_eq!(view.size(), 3);
        assert_eq!(view.level(), 2);
        assert!(view.is_running());
        let _ = pool.stop();
        assert!(!view.is_running());
    }

    #[test]
    fn per_worker_state_is_initialised_per_tid() {
        use std::sync::Mutex;
        struct Recorder(Mutex<Vec<usize>>);
        struct W(Arc<Recorder>);
        impl Workload for W {
            type WorkerState = usize;
            fn init_worker(&self, tid: usize) -> usize {
                self.0 .0.lock().unwrap().push(tid);
                tid
            }
            fn run_task(&self, _state: &mut usize) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let pool = MalleablePool::start(
            PoolConfig::new(3).monitor_period(Duration::from_millis(5)),
            W(Arc::clone(&rec)),
            Box::new(Fixed::new(1, 3)),
        );
        std::thread::sleep(Duration::from_millis(20));
        let _ = pool.stop();
        let mut tids = rec.0.lock().unwrap().clone();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
    }
}
