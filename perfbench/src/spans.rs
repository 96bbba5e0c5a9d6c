//! Span recorder for the traced run.
//!
//! Every thread that records gets a preallocated buffer of
//! [`BUFFER_SPANS`] spans. Each span carries its name, tenant, thread,
//! id, parent id, and start/end in nanoseconds since the run's epoch.
//! Per-task spans (a workload task and the spans it causes) are kept
//! for one task in [`TASK_SAMPLE_EVERY`] and producer sends for one
//! call in [`SEND_SAMPLE_EVERY`]; rarer spans (controller decisions,
//! parks, admissions, pool start/stop) are all kept. A full buffer
//! counts the spans it could not keep instead of growing.
//!
//! Exact per-tenant totals (task and parked time, worker lifetime,
//! transactions and attempts) are kept for every call, sampled or not,
//! so the busy/parked/unaccounted shares do not depend on sampling.
//!
//! A thread's buffer moves to the process-wide sink when its owner
//! calls [`flush_thread`] (worker state and controller adapters do so
//! when they drop, on their own thread); [`drain`] collects everything.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans one thread can hold before it starts counting drops.
pub const BUFFER_SPANS: usize = 1 << 17;
/// One workload task in this many is recorded with its child spans.
pub const TASK_SAMPLE_EVERY: u64 = 128;
/// One `send_batch` call in this many is recorded.
pub const SEND_SAMPLE_EVERY: u64 = 8;
/// Tenants per workload (colo runs two).
pub const MAX_TENANTS: usize = 2;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// `Workload::run_task`.
    Task,
    /// From the first `Workload::on_park` of a park to the next task.
    Parked,
    /// Level-raising `decide()` return to the admitted worker's first
    /// task.
    Admit,
    /// `Workload::drain_aborts` after a sampled task.
    DrainAborts,
    /// `Controller::decide`.
    Decide,
    /// Start of one `decide()` to the start of the next.
    Round,
    /// `MalleablePool::start`.
    PoolStart,
    /// `MalleablePool::stop`.
    PoolStop,
    /// `ShardSender::send_batch`.
    SendBatch,
    /// Item send to the start of its handler.
    Residency,
    /// The queue handler's `Stm::atomically` call.
    Atomically,
    /// One attempt of the transaction body.
    Attempt,
    /// `TOrdMap::insert` inside the body.
    Insert,
}

impl Name {
    /// Stable label used in the span file.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Name::Task => "workload.run_task",
            Name::Parked => "runtime.parked",
            Name::Admit => "runtime.admit",
            Name::DrainAborts => "workload.drain_aborts",
            Name::Decide => "controllers.decide",
            Name::Round => "controllers.round",
            Name::PoolStart => "runtime.start",
            Name::PoolStop => "runtime.stop",
            Name::SendBatch => "runtime.queue.send_batch",
            Name::Residency => "runtime.queue.residency",
            Name::Atomically => "stm.atomically",
            Name::Attempt => "stm.attempt",
            Name::Insert => "workloads.btree.insert",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Unique id (thread index in the high bits).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Recording thread's index.
    pub thread: u32,
    /// What was measured.
    pub name: Name,
    /// Tenant index within the workload.
    pub tenant: u8,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Exact per-tenant totals, kept for every call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Time inside `run_task`.
    pub task_ns: u64,
    /// Park episodes.
    pub parks: u64,
    /// Time parked.
    pub park_ns: u64,
    /// Worker lifetime (worker-state creation to drop), summed.
    pub life_ns: u64,
    /// Queue-handler transactions.
    pub txns: u64,
    /// Attempts of those transactions' bodies.
    pub attempts: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.task_ns += o.task_ns;
        self.parks += o.parks;
        self.park_ns += o.park_ns;
        self.life_ns += o.life_ns;
        self.txns += o.txns;
        self.attempts += o.attempts;
    }
}

/// Everything recorded since the previous [`drain`].
#[derive(Debug, Default)]
pub struct Collected {
    /// Kept spans, in no particular order.
    pub spans: Vec<Span>,
    /// Exact totals per tenant.
    pub totals: [Totals; MAX_TENANTS],
    /// Spans lost to full buffers.
    pub dropped: u64,
}

static SINK: Mutex<Option<Collected>> = Mutex::new(None);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's epoch.
#[inline]
#[must_use]
pub fn now() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct ThreadRec {
    thread: u32,
    next_seq: u64,
    spans: Vec<Span>,
    dropped: u64,
    totals: [Totals; MAX_TENANTS],
    tasks_seen: u64,
    sends_seen: u64,
    /// Id of the running task's span when that task is sampled, else 0.
    sampled_task: u64,
}

impl ThreadRec {
    fn new() -> Self {
        ThreadRec {
            // ordering: a unique-id counter; it publishes nothing.
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next_seq: 1,
            spans: Vec::with_capacity(BUFFER_SPANS),
            dropped: 0,
            totals: [Totals::default(); MAX_TENANTS],
            tasks_seen: 0,
            sends_seen: 0,
            sampled_task: 0,
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = (u64::from(self.thread) << 40) | self.next_seq;
        self.next_seq += 1;
        id
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < BUFFER_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

thread_local! {
    static REC: RefCell<Option<ThreadRec>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut ThreadRec) -> R) -> R {
    REC.with(|cell| f(cell.borrow_mut().get_or_insert_with(ThreadRec::new)))
}

/// Allocates a span id on this thread (for spans recorded after their
/// children).
#[must_use]
pub fn next_id() -> u64 {
    with(ThreadRec::next_id)
}

/// Records a span under a preallocated `id`.
pub fn record_with_id(id: u64, name: Name, tenant: u8, start: u64, end: u64, parent: u64) {
    with(|r| {
        let thread = r.thread;
        r.push(Span {
            start,
            end,
            id,
            parent,
            thread,
            name,
            tenant,
        });
    });
}

/// Records a root span.
pub fn record(name: Name, tenant: u8, start: u64, end: u64) {
    with(|r| {
        let id = r.next_id();
        let thread = r.thread;
        r.push(Span {
            start,
            end,
            id,
            parent: 0,
            thread,
            name,
            tenant,
        });
    });
}

/// Starts a task: decides whether it is sampled and returns its span id
/// (0 when it is not).
#[inline]
#[must_use]
pub fn begin_task() -> u64 {
    with(|r| {
        r.tasks_seen += 1;
        r.sampled_task = if r.tasks_seen % TASK_SAMPLE_EVERY == 0 {
            r.next_id()
        } else {
            0
        };
        r.sampled_task
    })
}

/// Ends the task started by [`begin_task`]: adds it to the exact totals
/// and keeps its span if it was sampled.
#[inline]
pub fn end_task(id: u64, tenant: u8, start: u64, end: u64) {
    with(|r| {
        let t = &mut r.totals[usize::from(tenant)];
        t.task_ns += end.saturating_sub(start);
        if id != 0 {
            let thread = r.thread;
            r.push(Span {
                start,
                end,
                id,
                parent: 0,
                thread,
                name: Name::Task,
                tenant,
            });
        }
    });
}

/// Span id of the task running on this thread if it is sampled, else 0.
#[inline]
#[must_use]
pub fn sampled_task() -> u64 {
    with(|r| r.sampled_task)
}

/// True for the one `send_batch` call in [`SEND_SAMPLE_EVERY`] that is
/// recorded.
#[must_use]
pub fn sample_send() -> bool {
    with(|r| {
        r.sends_seen += 1;
        r.sends_seen % SEND_SAMPLE_EVERY == 0
    })
}

/// Records a park episode `[start, end]` and adds it to the totals.
pub fn parked(tenant: u8, start: u64, end: u64) {
    with(|r| {
        let t = &mut r.totals[usize::from(tenant)];
        t.parks += 1;
        t.park_ns += end.saturating_sub(start);
    });
    record(Name::Parked, tenant, start, end);
}

/// Adds one worker state's lifetime to the totals.
pub fn add_life(tenant: u8, ns: u64) {
    with(|r| r.totals[usize::from(tenant)].life_ns += ns);
}

/// Counts one queue-handler transaction that took `attempts` attempts.
pub fn add_txn(tenant: u8, attempts: u64) {
    with(|r| {
        let t = &mut r.totals[usize::from(tenant)];
        t.txns += 1;
        t.attempts += attempts;
    });
}

/// Moves this thread's buffer and totals to the sink.
pub fn flush_thread() {
    let Some(mut rec) = REC.with(|cell| cell.borrow_mut().take()) else {
        return;
    };
    let mut sink = SINK
        .lock()
        .expect("span sink poisoned by a panicking thread");
    let c = sink.get_or_insert_with(Collected::default);
    c.spans.append(&mut rec.spans);
    c.dropped += rec.dropped;
    for (dst, src) in c.totals.iter_mut().zip(&rec.totals) {
        dst.add(src);
    }
}

/// Flushes the calling thread and takes everything recorded so far.
#[must_use]
pub fn drain() -> Collected {
    flush_thread();
    SINK.lock()
        .expect("span sink poisoned by a panicking thread")
        .take()
        .unwrap_or_default()
}

/// Writes `spans` as tab-separated lines (`name tenant thread id parent
/// start_ns end_ns`) with a header.
///
/// # Errors
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\ttenant\tthread\tid\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name.label(),
            s.tenant,
            s.thread,
            s.id,
            s.parent,
            s.start,
            s.end
        )?;
    }
    out.flush()
}
