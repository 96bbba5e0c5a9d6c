//! Timing adapters for the traced run: a [`Workload`] wrapper and a
//! [`Controller`] wrapper that time every call the pool makes into the
//! wrapped layer. The untraced run passes the raw workload and
//! controller instead, so it pays none of this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rubic::controllers::{Controller, Sample};
use rubic::runtime::{PoolView, Workload};

use crate::spans::{self, Name};

/// Per-worker "admitted at" timestamps shared by a pool's controller
/// adapter (which sets them when `decide()` raises the level) and its
/// workload adapter (which takes them at the worker's next task).
pub struct AdmitBoard {
    slots: Vec<AtomicU64>,
}

impl AdmitBoard {
    /// A board for a pool of `size` workers.
    #[must_use]
    pub fn new(size: u32) -> Arc<Self> {
        Arc::new(AdmitBoard {
            slots: (0..size).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn size(&self) -> u32 {
        u32::try_from(self.slots.len()).unwrap_or(u32::MAX)
    }

    fn raise(&self, from: u32, to: u32, at: u64) {
        for slot in &self.slots[from as usize..to as usize] {
            // ordering: a timestamp statistic; it publishes no other data.
            slot.store(at, Ordering::Relaxed);
        }
    }

    fn take(&self, tid: usize) -> u64 {
        let slot = &self.slots[tid];
        // ordering: see `raise`. The plain load keeps the per-task check
        // off the line's exclusive state; only a set slot pays the swap.
        if slot.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        slot.swap(0, Ordering::Relaxed)
    }
}

/// Times `run_task`, park episodes, admissions and (for sampled tasks)
/// `drain_aborts` of the wrapped workload.
pub struct Traced<W> {
    inner: W,
    tenant: u8,
    board: Arc<AdmitBoard>,
}

impl<W> Traced<W> {
    /// Wraps `inner` as tenant `tenant`.
    #[must_use]
    pub fn new(inner: W, tenant: u8, board: Arc<AdmitBoard>) -> Self {
        Traced {
            inner,
            tenant,
            board,
        }
    }
}

/// Worker state of a [`Traced`] workload.
pub struct TracedState<S> {
    inner: S,
    tid: usize,
    tenant: u8,
    born: u64,
    parked_since: Option<u64>,
}

impl<S> Drop for TracedState<S> {
    fn drop(&mut self) {
        let end = spans::now();
        if let Some(p) = self.parked_since.take() {
            spans::parked(self.tenant, p, end);
        }
        spans::add_life(self.tenant, end.saturating_sub(self.born));
        spans::flush_thread();
    }
}

impl<W: Workload> Workload for Traced<W> {
    type WorkerState = TracedState<W::WorkerState>;

    fn init_worker(&self, tid: usize) -> Self::WorkerState {
        let born = spans::now();
        TracedState {
            inner: self.inner.init_worker(tid),
            tid,
            tenant: self.tenant,
            born,
            parked_since: None,
        }
    }

    fn run_task(&self, st: &mut Self::WorkerState) {
        let start = spans::now();
        if let Some(p) = st.parked_since.take() {
            spans::parked(st.tenant, p, start);
        }
        let raised = self.board.take(st.tid);
        if raised != 0 {
            spans::record(Name::Admit, st.tenant, raised, start);
        }
        let id = spans::begin_task();
        self.inner.run_task(&mut st.inner);
        spans::end_task(id, st.tenant, start, spans::now());
    }

    fn attach(&self, view: PoolView) {
        self.inner.attach(view);
    }

    fn on_park(&self, st: &mut Self::WorkerState) {
        if st.parked_since.is_none() {
            st.parked_since = Some(spans::now());
        }
        self.inner.on_park(&mut st.inner);
    }

    fn drain_aborts(&self, st: &mut Self::WorkerState) -> u64 {
        let task = spans::sampled_task();
        if task == 0 {
            return self.inner.drain_aborts(&mut st.inner);
        }
        let start = spans::now();
        let aborts = self.inner.drain_aborts(&mut st.inner);
        let id = spans::next_id();
        spans::record_with_id(id, Name::DrainAborts, st.tenant, start, spans::now(), task);
        aborts
    }

    fn steal_locality(&self) -> Option<(u64, u64)> {
        self.inner.steal_locality()
    }
}

/// Times every `decide()` and the round period between them, and marks
/// the workers a level increase admits.
pub struct TimedController {
    inner: Box<dyn Controller>,
    tenant: u8,
    board: Arc<AdmitBoard>,
    last_start: Option<u64>,
}

impl TimedController {
    /// Wraps the controller `inner` of tenant `tenant`.
    #[must_use]
    pub fn new(inner: Box<dyn Controller>, tenant: u8, board: Arc<AdmitBoard>) -> Self {
        TimedController {
            inner,
            tenant,
            board,
            last_start: None,
        }
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // The pool drops its controller on the monitor thread as the
        // monitor exits: hand that thread's spans over now.
        spans::flush_thread();
    }
}

impl Controller for TimedController {
    fn decide(&mut self, sample: Sample) -> u32 {
        let start = spans::now();
        if let Some(prev) = self.last_start.replace(start) {
            spans::record(Name::Round, self.tenant, prev, start);
        }
        let next = self.inner.decide(sample);
        let end = spans::now();
        spans::record(Name::Decide, self.tenant, start, end);
        // The pool clamps the proposal the same way before applying it.
        let applied = next.clamp(1, self.board.size());
        if applied > sample.level {
            self.board.raise(sample.level, applied, end);
        }
        next
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn max_level(&self) -> u32 {
        self.inner.max_level()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
