//! The transaction engine: read/write sets, validation, timestamp
//! extension, two-phase commit.
//!
//! # Protocol summary
//!
//! A transaction starts by sampling the global clock into its *read
//! version* `rv`.
//!
//! **Read** (invisible): sample the variable's versioned lock; if locked
//! by another transaction → conflict. A version newer than `rv`
//! triggers a **timestamp extension**: revalidate the whole read set at
//! the current clock and, if it still holds, adopt the newer read
//! version (TinySTM/SwissTM; avoids TL2's false aborts) and read again.
//! Otherwise load and clone the snapshot, then re-sample the lock — if
//! the word changed, another commit raced the read and we retry the
//! sample/load/sample sequence.
//!
//! **Write** (eager lock, lazy value): the first write to a variable
//! CAS-acquires its lock — failure means a concurrent writer owns it →
//! conflict (eager W/W detection). If the variable was previously read,
//! its version must still match the recorded one. The value is buffered
//! in the private write set; repeated writes just replace the buffer.
//!
//! **Read-only mode** ([`crate::Stm::read_only`], TL2's read-only
//! protocol): reads record nothing — no read-set entry, no index
//! insert, no `Arc` clone, so a lookup writes no shared cache line.
//! Each read instead requires the variable to be unlocked with
//! `version <= rv` across its two samples. Only the first read may
//! extend `rv`, since nothing read earlier needs validating; a later
//! read of a newer value aborts the attempt as `ReadValidation`, and
//! the retry starts at a fresh `rv`. The reads still form a consistent
//! cut: a writer holds all its locks from before it draws its stamp
//! until it releases them with it, so a commit stamped `<= rv` that the
//! reader could half-see leaves some variable locked, and one stamped
//! `> rv` leaves it too new. A write demotes the attempt, and the body
//! reruns under the classic protocol. Classic and read-only reads go
//! through the same read routine (`TVarCore::read_at`), and differ only
//! in what a too-new word means.
//!
//! **Commit**: read-only transactions commit immediately — their read
//! set was kept consistent incrementally. Writers draw a unique
//! timestamp `wv` from the clock, validate the read set (skippable when
//! `wv == rv + 1`, the TL2 fast path: nobody committed in between), then
//! for each write publish the buffered value and release the lock
//! stamped `wv`.
//!
//! **Abort**: release every held lock, restoring pre-lock versions, and
//! drop the buffers.
//!
//! The engine guarantees *opacity* for code that propagates [`TxResult`]
//! errors: a transaction never acts on two mutually inconsistent reads,
//! because every read is validated against `rv` at the moment it
//! happens.
//!
//! # Hot-path engineering (DESIGN.md §11)
//!
//! Per-transaction overhead distorts every figure the reproduction
//! measures, so the engine pays for bookkeeping once per *attempt*, not
//! once per access:
//!
//! * The epoch is pinned **once per attempt** — [`Transaction`] owns the
//!   [`Guard`] (created at `begin`, repinned at `restart`) instead of
//!   pinning inside every `read`/`read_with`/`commit`.
//! * The read/write-set indices are [`crate::index::VarIndex`]: a dense
//!   linear-scanned vector for counter-sized footprints, spilling into
//!   an FxHash map for larger ones. No SipHash on the hot path.
//! * Aborted attempts recycle their allocations: write slots (the boxed
//!   [`WriteSlot`]s *and* the `Arc` they hold) and read-set handles move
//!   to per-transaction spare lists and are reclaimed by the retry,
//!   which touches the same variables in the same order in the common
//!   case. A retry therefore allocates nothing and performs no
//!   refcount RMWs for previously seen variables — exactly when
//!   contention is highest.

use std::any::Any;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Guard};

use crate::abort::AbortReason;
use crate::chaos::{self, ChaosPoint};
use crate::clock;
use crate::index::VarIndex;
use crate::trc;
use crate::tvar::{TVar, TVarCore};
use crate::vlock::{LockWord, VLock};
use crate::TxValue;

/// Spare-list size cap: recycled read handles / write slots beyond this
/// are dropped at abort. Bounds memory for pathological transactions
/// that touch a different variable set on every attempt; ordinary
/// retries (same footprint each attempt) never hit it.
const SPARE_CAP: usize = 128;

/// Why a transactional operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmError {
    /// A conflicting transaction owns a lock or committed an overlapping
    /// update; the current attempt must abort and retry.
    Conflict,
}

impl std::fmt::Display for StmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StmError::Conflict => write!(f, "transactional conflict"),
        }
    }
}

impl std::error::Error for StmError {}

/// Result alias for transactional operations.
pub type TxResult<T> = Result<T, StmError>;

/// Object-safe view of a `TVarCore<T>` for the read set.
trait ReadHandle: Send + Sync {
    fn vlock(&self) -> &VLock;
}

impl<T: TxValue> ReadHandle for TVarCore<T> {
    fn vlock(&self) -> &VLock {
        TVarCore::vlock(self)
    }
}

struct ReadEntry {
    handle: Arc<dyn ReadHandle>,
    /// The handle's lock address, cached at record time so validation
    /// and recycling never re-derive it through the vtable.
    addr: usize,
    version: u64,
}

/// Object-safe view of a buffered write.
trait WriteSlot: Send {
    fn vlock(&self) -> &VLock;
    /// The slot's lock address (same identity as [`VLock::addr`]),
    /// cached for spare-list matching.
    fn addr(&self) -> usize;
    /// Publishes the buffered value and releases the lock stamped `wv`.
    fn publish(&mut self, wv: u64, guard: &Guard);
    /// Releases the lock restoring the pre-lock version.
    fn release_abort(&self);
    /// Drops the buffered value (if any) so a slot parked on the spare
    /// list doesn't keep user data alive; the core `Arc` is kept for
    /// reuse by the retry.
    fn recycle(&mut self);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

struct TypedSlot<T: TxValue> {
    core: Arc<TVarCore<T>>,
    pending: Option<T>,
    prev: LockWord,
    /// When this slot's lock was acquired (trace timestamp; 0 when no
    /// session was recording). Feeds the lock-hold-time histogram.
    #[cfg(feature = "trace")]
    locked_at: u64,
}

impl<T: TxValue> WriteSlot for TypedSlot<T> {
    fn vlock(&self) -> &VLock {
        self.core.vlock()
    }

    fn addr(&self) -> usize {
        self.core.vlock().addr()
    }

    fn publish(&mut self, wv: u64, guard: &Guard) {
        let value = self
            .pending
            .take()
            .expect("write slot published twice or never filled");
        self.core.publish(value, guard);
        self.core.vlock().release_commit(wv);
        #[cfg(feature = "trace")]
        trc::lock_hold(self.locked_at, self.core.vlock().addr(), false);
    }

    fn release_abort(&self) {
        self.core.vlock().release_abort(self.prev);
        #[cfg(feature = "trace")]
        trc::lock_hold(self.locked_at, self.core.vlock().addr(), true);
    }

    fn recycle(&mut self) {
        self.pending = None;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Allocation diagnostics for one [`Transaction`] (see
/// [`Transaction::footprint`]). Primarily test support: the retry-reuse
/// guarantees ("a restart allocates nothing") are asserted against
/// these numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxFootprint {
    /// Capacity of the read-set entry vector.
    pub reads_capacity: usize,
    /// Capacity of the write-set slot vector.
    pub writes_capacity: usize,
    /// Capacity of the read index's dense entry vector.
    pub read_index_capacity: usize,
    /// Capacity of the write index's dense entry vector.
    pub write_index_capacity: usize,
    /// Recycled read-set handles parked for the next attempt.
    pub spare_read_handles: usize,
    /// Recycled write slots parked for the next attempt.
    pub spare_write_slots: usize,
    /// True while the read index uses its hashed (spilled)
    /// representation instead of the small-set linear scan.
    pub read_index_spilled: bool,
}

/// An in-flight transaction.
///
/// Obtained through [`crate::Stm::atomically`]; user code interacts with
/// it via [`read`](Transaction::read), [`write`](Transaction::write) and
/// the combinators built on them. All fallible operations return
/// [`TxResult`]; propagate errors with `?` so a conflicted attempt
/// unwinds promptly and retries.
pub struct Transaction {
    /// Epoch guard pinned once per attempt (repinned at `restart`), so
    /// individual reads and the commit's publish loop never pay the
    /// pin/unpin protocol.
    guard: Guard,
    /// Everything else. Kept apart from `guard` so a read can borrow
    /// the guard for as long as it holds a value while it updates the
    /// access sets — the borrow [`descend`](Self::descend) walks on.
    st: TxState,
}

/// A transaction's access sets, read version and attempt bookkeeping.
struct TxState {
    rv: u64,
    read_index: VarIndex<u64>,
    reads: Vec<ReadEntry>,
    write_index: VarIndex<usize>,
    writes: Vec<Box<dyn WriteSlot>>,
    /// Write slots recycled from aborted attempts, most recently
    /// released last. A retry that re-locks the same variables in the
    /// same order pops its slot (allocation *and* `Arc`) off the top.
    spare_writes: Vec<Box<dyn WriteSlot>>,
    /// Read-set entries recycled from aborted attempts; reusing one
    /// skips the `Arc<dyn ReadHandle>` refcount RMW on re-read.
    spare_reads: Vec<ReadEntry>,
    /// Operation counters for diagnostics (reported through `StmStats`).
    n_reads: u64,
    n_writes: u64,
    /// Why the engine last flagged a conflict in this attempt. Reset to
    /// [`AbortReason::Explicit`] at each attempt start, so an attempt
    /// that aborts without the engine tagging a reason is attributed to
    /// the transaction body itself.
    last_conflict: AbortReason,
    /// Lock address of the variable implicated in the last conflict
    /// (0 when no variable is implicated — e.g. chaos at a commit
    /// boundary or an explicit body abort). Always-on companion to
    /// `last_conflict`: one word per transaction, maintained only on
    /// the abort path, it feeds trace-side conflict attribution.
    conflict_addr: usize,
    /// A [`crate::Stm::read_only`] attempt: reads record nothing and
    /// must each be visible at `rv` (module docs, read-only mode).
    read_only: bool,
    /// Set when the body wrote inside a read-only attempt;
    /// [`crate::Stm::read_only`] demotes the transaction to the classic
    /// validated protocol and reruns the body.
    demoted: bool,
}

impl Transaction {
    /// Begins a fresh transaction at the current clock.
    pub(crate) fn begin() -> Self {
        Transaction {
            guard: epoch::pin(),
            st: TxState {
                rv: clock::now(),
                read_index: VarIndex::new(),
                reads: Vec::new(),
                write_index: VarIndex::new(),
                writes: Vec::new(),
                spare_writes: Vec::new(),
                spare_reads: Vec::new(),
                n_reads: 0,
                n_writes: 0,
                last_conflict: AbortReason::Explicit,
                conflict_addr: 0,
                read_only: false,
                demoted: false,
            },
        }
    }

    /// Begins a single-version read-only transaction: TL2's read-only
    /// protocol, with no read set and no commit-time validation.
    pub(crate) fn begin_read_only() -> Self {
        let mut tx = Self::begin();
        tx.st.read_only = true;
        tx
    }

    /// True when a read-only attempt wrote and must be rerun under the
    /// classic protocol.
    pub(crate) fn demoted(&self) -> bool {
        self.st.demoted
    }

    /// Clears all buffered state and re-samples the clock, reusing the
    /// allocations for the next attempt.
    pub(crate) fn restart(&mut self) {
        let st = &mut self.st;
        debug_assert!(
            st.writes.iter().all(|w| !w.vlock().sample().is_locked()) || st.writes.is_empty(),
            "restart with locks still held; abort first"
        );
        st.read_index.clear();
        st.write_index.clear();
        // Anything still buffered (the managed retry loop aborts first,
        // so normally nothing) is parked for reuse, not dropped.
        st.park_access_sets();
        // The op counters must restart with the attempt: they feed
        // `StmStats::record_commit` as *this commit's* footprint, and
        // carrying counts from aborted attempts would inflate every
        // per-commit read/write statistic under contention.
        st.n_reads = 0;
        st.n_writes = 0;
        st.last_conflict = AbortReason::Explicit;
        st.conflict_addr = 0;
        st.demoted = false;
        // Momentarily unpin so the epoch (and hence reclamation) can
        // pass this thread between attempts, then re-sample the clock
        // under the fresh pin.
        self.guard.repin();
        self.st.rv = clock::now();
    }

    /// Why the engine last flagged a conflict in the current attempt
    /// ([`AbortReason::Explicit`] if it never did). Read by the retry
    /// loop when recording an abort; meaningful only right after an
    /// operation returned [`StmError::Conflict`].
    #[must_use]
    pub fn conflict_reason(&self) -> AbortReason {
        self.st.last_conflict
    }

    /// Lock address of the variable implicated in the last conflict —
    /// the same identity as [`crate::TVar::lock_addr`] — or 0 when no
    /// single variable was (chaos at a commit boundary, explicit body
    /// abort). Meaningful under the same conditions as
    /// [`conflict_reason`](Self::conflict_reason).
    #[must_use]
    pub fn conflict_addr(&self) -> usize {
        self.st.conflict_addr
    }

    /// The current read version (diagnostic).
    #[must_use]
    pub fn read_version(&self) -> u64 {
        self.st.rv
    }

    /// Number of distinct variables recorded in the read set so far.
    /// Always 0 in a read-only transaction, which keeps no read set.
    #[must_use]
    pub fn read_set_len(&self) -> usize {
        self.st.reads.len()
    }

    /// Number of distinct variables written so far.
    #[must_use]
    pub fn write_set_len(&self) -> usize {
        self.st.writes.len()
    }

    /// Allocation diagnostics: current capacities and spare-list sizes.
    ///
    /// The no-allocation-on-retry guarantee is expressed through this:
    /// after an abort + restart that replays the same accesses, the
    /// capacities are unchanged and the spare lists have been drained
    /// back into the live sets.
    #[must_use]
    pub fn footprint(&self) -> TxFootprint {
        let st = &self.st;
        TxFootprint {
            reads_capacity: st.reads.capacity(),
            writes_capacity: st.writes.capacity(),
            read_index_capacity: st.read_index.capacity(),
            write_index_capacity: st.write_index.capacity(),
            spare_read_handles: st.spare_reads.len(),
            spare_write_slots: st.spare_writes.len(),
            read_index_spilled: st.read_index.spilled(),
        }
    }

    pub(crate) fn op_counts(&self) -> (u64, u64) {
        (self.st.n_reads, self.st.n_writes)
    }

    /// Runs `f` (e.g. contention-manager backoff) with the epoch
    /// momentarily unpinned, so a sleeping transaction does not hold
    /// reclamation back for the whole wait. Only sound between attempts:
    /// the access sets hold `Arc`s and cloned values, never
    /// epoch-protected pointers.
    pub(crate) fn unpinned<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.guard.repin_after(f)
    }

    /// Transactionally reads `var`, returning a clone of the value this
    /// transaction observes (its own pending write, if any, else the
    /// committed snapshot consistent with the read version).
    ///
    /// # Errors
    /// [`StmError::Conflict`] if the variable is locked by a concurrent
    /// writer or the snapshot cannot be made consistent.
    pub fn read<T: TxValue>(&mut self, var: &TVar<T>) -> TxResult<T> {
        self.read_with(var, T::clone)
    }

    /// Transactionally reads `var` and applies `f` to the value *in
    /// place*, without cloning it — the zero-copy sibling of
    /// [`read`](Self::read) for large values where only a projection is
    /// needed (a map lookup, a field, an aggregate).
    ///
    /// `f` may run more than once (the consistency protocol retries
    /// racing observations), so it must be pure. It receives either the
    /// transaction's own pending write or the committed snapshot.
    ///
    /// # Errors
    /// [`StmError::Conflict`] under the same conditions as `read`.
    pub fn read_with<T: TxValue, R>(
        &mut self,
        var: &TVar<T>,
        mut f: impl FnMut(&T) -> R,
    ) -> TxResult<R> {
        self.st.n_reads += 1;
        if let Some(pending) = self.st.pending(var) {
            return Ok(f(pending));
        }
        self.st.read_committed(var, &self.guard, &mut f)
    }

    /// Walks a chain of `TVar`s that link to each other through their
    /// values — a tree's root-to-leaf path — without cloning a handle.
    ///
    /// Starting at `root`, each node is read like
    /// [`read_with`](Self::read_with) and handed to `step`, which either
    /// finishes the walk (`Ok`) or names the next node (`Err`) as a
    /// reference *into the node's value*. That reference stays valid
    /// for the rest of the walk because the attempt's pinned epoch guard
    /// keeps every value it read alive, so following a link costs no
    /// `Arc` refcount traffic on the (shared, hot) node. Each node
    /// counts as one read and takes part in validation exactly as a
    /// `read_with` of it would.
    ///
    /// `step` may run more than once per node (like `read_with`'s
    /// closure), so it must be pure.
    ///
    /// # Errors
    /// [`StmError::Conflict`] under the same conditions as `read`.
    pub fn descend<T: TxValue, R>(
        &mut self,
        root: &TVar<T>,
        mut step: impl for<'a> FnMut(&'a T) -> Result<R, &'a TVar<T>>,
    ) -> TxResult<R> {
        let mut cur = root;
        loop {
            self.st.n_reads += 1;
            if let Some(pending) = self.st.pending(cur) {
                // A node this attempt wrote: its value lives in the
                // write set, which the rest of the walk may grow, so the
                // link is cloned and the walk goes on from the clone.
                return match step(pending) {
                    Ok(r) => Ok(r),
                    Err(child) => {
                        let child = child.clone();
                        self.descend(&child, step)
                    }
                };
            }
            match self.st.read_committed(cur, &self.guard, &mut step)? {
                Ok(r) => return Ok(r),
                Err(child) => cur = child,
            }
        }
    }

    /// Transactionally writes `value` into `var`.
    ///
    /// The first write eagerly acquires the variable's lock (SwissTM
    /// W/W detection); later writes replace the private buffer.
    ///
    /// # Errors
    /// [`StmError::Conflict`] if another transaction holds the lock, or
    /// if this transaction previously read a version of `var` that has
    /// since been overwritten.
    pub fn write<T: TxValue>(&mut self, var: &TVar<T>, value: T) -> TxResult<()> {
        self.st.write(var, value)
    }

    /// Reads `var`, applies `f`, and writes the result back — the
    /// classic read-modify-write helper.
    ///
    /// # Errors
    /// Propagates conflicts from the underlying read or write.
    pub fn modify<T: TxValue>(&mut self, var: &TVar<T>, f: impl FnOnce(T) -> T) -> TxResult<()> {
        let current = self.read(var)?;
        self.write(var, f(current))
    }

    /// Attempts to commit. On success all writes are visible atomically;
    /// on failure the caller must [`abort`](Self::abort).
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        let st = &mut self.st;
        if st.writes.is_empty() {
            // Read-only: incremental validation (reads + extensions)
            // already guarantees a consistent snapshot at `rv`. The
            // commit still consults the chaos hook exactly like a
            // writing commit's validation pass does: this used to
            // return without advancing the seeded decision stream,
            // desynchronising replay for read-heavy and mixed runs.
            chaos::hit(ChaosPoint::PreValidate);
            if chaos::abort_requested(ChaosPoint::PreValidate) {
                return Err(st.fail(AbortReason::Chaos));
            }
            return Ok(());
        }
        let wv = clock::tick();
        if wv != st.rv + 1 {
            // Someone committed since we started; make sure none of our
            // reads were invalidated (TL2 fast path skips this when the
            // clock tells us nobody did).
            if let Err((reason, addr)) = st.validate() {
                return Err(st.fail_at(reason, addr));
            }
        }
        for slot in &mut st.writes {
            chaos::hit(ChaosPoint::PrePublish);
            slot.publish(wv, &self.guard);
        }
        // Slots are spent; park them (prevents a double publish if the
        // transaction object is reused, keeps the allocations around).
        st.write_index.clear();
        for slot in st.writes.drain(..).rev() {
            st.spare_writes.push(slot);
        }
        st.spare_writes.truncate(SPARE_CAP);
        Ok(())
    }

    /// Begins an *unmanaged* transaction: no retry loop, no stats, no
    /// contention management — the caller drives `commit`/`abort` by
    /// hand. This exists so harness tests can pin a transaction at an
    /// arbitrary protocol state (e.g. holding a write lock) while other
    /// threads run; real code should use [`crate::Stm::atomically`].
    ///
    /// Only available with the test-only `chaos` feature.
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn begin_unmanaged() -> Self {
        Self::begin()
    }

    /// Commits an unmanaged transaction (chaos feature only); see
    /// [`begin_unmanaged`](Self::begin_unmanaged).
    ///
    /// # Errors
    /// [`StmError::Conflict`] if validation fails; the caller must then
    /// [`abort_unmanaged`](Self::abort_unmanaged).
    #[cfg(feature = "chaos")]
    pub fn commit_unmanaged(&mut self) -> TxResult<()> {
        self.commit()
    }

    /// Aborts an unmanaged transaction, releasing every held lock
    /// (chaos feature only); see
    /// [`begin_unmanaged`](Self::begin_unmanaged).
    #[cfg(feature = "chaos")]
    pub fn abort_unmanaged(&mut self) {
        self.abort()
    }

    /// Restarts an unmanaged transaction for another attempt (chaos
    /// feature only); see [`begin_unmanaged`](Self::begin_unmanaged).
    #[cfg(feature = "chaos")]
    pub fn restart_unmanaged(&mut self) {
        self.restart()
    }

    /// Releases every held lock and parks buffered state for reuse.
    pub(crate) fn abort(&mut self) {
        let st = &mut self.st;
        for slot in &st.writes {
            slot.release_abort();
        }
        st.write_index.clear();
        st.read_index.clear();
        st.park_access_sets();
    }
}

impl TxState {
    /// Moves the read-set entries and (already released) write slots to
    /// the spare lists, dropping buffered values but keeping every
    /// allocation and `Arc` for the next attempt. Drained in reverse so
    /// a retry touching the same variables in the same order finds its
    /// entry on top of the stack.
    fn park_access_sets(&mut self) {
        for mut slot in self.writes.drain(..).rev() {
            slot.recycle();
            self.spare_writes.push(slot);
        }
        for entry in self.reads.drain(..).rev() {
            self.spare_reads.push(entry);
        }
        // Pathological transactions that touch a fresh variable set on
        // every attempt would otherwise grow the spares without bound.
        self.spare_writes.truncate(SPARE_CAP);
        self.spare_reads.truncate(SPARE_CAP);
    }

    /// Tags this attempt with `reason` and returns the public error.
    /// Every engine conflict site funnels through here (or through
    /// [`fail_at`](Self::fail_at) when a variable is implicated) so the
    /// retry loop can attribute the abort.
    #[inline]
    fn fail(&mut self, reason: AbortReason) -> StmError {
        self.last_conflict = reason;
        self.conflict_addr = 0;
        StmError::Conflict
    }

    /// [`fail`](Self::fail) with the culprit variable's lock address
    /// recorded for conflict attribution.
    #[inline]
    fn fail_at(&mut self, reason: AbortReason, addr: usize) -> StmError {
        self.last_conflict = reason;
        self.conflict_addr = addr;
        StmError::Conflict
    }

    /// Records a first read of `core`, preferring a recycled entry from
    /// an earlier attempt (same address ⇒ same handle; no refcount RMW).
    #[inline]
    fn record_read<T: TxValue>(&mut self, core: &Arc<TVarCore<T>>, addr: usize, version: u64) {
        self.read_index.insert(addr, version);
        // Retries replay reads in order and the spares are stacked in
        // reverse, so the matching entry sits on top; an O(1) top check
        // is the whole reuse policy — a divergent retry falls through to
        // a fresh `Arc` clone rather than scanning the spare stack (the
        // entry itself lives inline in the `Vec`, so only the refcount
        // RMW is at stake, never an allocation).
        let recycled = match self.spare_reads.last() {
            Some(top) if top.addr == addr => self.spare_reads.pop(),
            _ => None,
        };
        match recycled {
            Some(mut entry) => {
                entry.version = version;
                self.reads.push(entry);
            }
            None => self.reads.push(ReadEntry {
                handle: Arc::clone(core) as Arc<dyn ReadHandle>,
                addr,
                version,
            }),
        }
    }

    /// This attempt's own pending write of `var`, if it wrote it
    /// (read-your-writes).
    #[inline]
    fn pending<T: TxValue>(&self, var: &TVar<T>) -> Option<&T> {
        let slot_idx = self.write_index.get(var.core().vlock().addr())?;
        let slot = self.writes[slot_idx]
            .as_any()
            .downcast_ref::<TypedSlot<T>>()
            .expect("write-slot type confusion");
        Some(
            slot.pending
                .as_ref()
                .expect("pending value missing before commit"),
        )
    }

    /// Reads the committed value of `var` under this attempt's
    /// protocol, applying `f` to it in place. Every read funnels through
    /// here after the read-your-writes check, and both protocols use
    /// the same [`TVarCore::read_at`]; they differ only in what a value
    /// newer than `rv` means:
    ///
    /// * classic: extend `rv` by validating the read set, then record
    ///   the read;
    /// * read-only: record nothing; only the first read may extend
    ///   (there is nothing earlier to validate), a later one aborts with
    ///   [`AbortReason::ReadValidation`].
    fn read_committed<'g, T: TxValue, R>(
        &mut self,
        var: &'g TVar<T>,
        guard: &'g Guard,
        f: &mut impl FnMut(&'g T) -> R,
    ) -> TxResult<R> {
        let core = var.core();
        let addr = core.vlock().addr();
        chaos::hit(ChaosPoint::LockSample);
        if chaos::abort_requested(ChaosPoint::LockSample) {
            return Err(self.fail_at(AbortReason::Chaos, addr));
        }
        loop {
            match core.read_at(self.rv, guard, f) {
                Ok((value, w)) => {
                    if !self.read_only {
                        // Record (first read only; repeated reads must
                        // agree).
                        match self.read_index.get(addr) {
                            Some(recorded) if recorded != w.version() => {
                                return Err(self.fail_at(AbortReason::ReadValidation, addr));
                            }
                            Some(_) => {}
                            None => self.record_read(core, addr, w.version()),
                        }
                    }
                    return Ok(value);
                }
                // Invisible reads cannot tell who owns the lock; treat it
                // as a conflict and let the contention manager space out
                // the retry (SwissTM would consult the CM here too).
                Err(w) if w.is_locked() => return Err(self.fail_at(AbortReason::LockBusy, addr)),
                // Newer than `rv`: extend and re-read. A read-only
                // attempt's first read extends over an empty read set.
                Err(_) if !self.read_only || self.n_reads == 1 => self.extend()?,
                Err(_) => return Err(self.fail_at(AbortReason::ReadValidation, addr)),
            }
        }
    }

    /// Pops a recyclable slot for `addr` off the spare list: the exact
    /// slot from a previous attempt if present (its `Arc` is already the
    /// right core), else any slot of the right concrete type (reusing
    /// the heap allocation).
    fn take_spare_slot<T: TxValue>(&mut self, addr: usize) -> Option<Box<dyn WriteSlot>> {
        if self.spare_writes.is_empty() {
            return None;
        }
        // Retries re-lock the same variables in the same order and the
        // spares are stacked in reverse, so the right slot is on top.
        if let Some(top) = self.spare_writes.last() {
            if top.addr() == addr {
                return self.spare_writes.pop();
            }
        }
        if let Some(pos) = self.spare_writes.iter().position(|s| s.addr() == addr) {
            return Some(self.spare_writes.swap_remove(pos));
        }
        let pos = self
            .spare_writes
            .iter()
            .position(|s| s.as_any().is::<TypedSlot<T>>())?;
        Some(self.spare_writes.swap_remove(pos))
    }

    /// [`Transaction::write`].
    fn write<T: TxValue>(&mut self, var: &TVar<T>, value: T) -> TxResult<()> {
        self.n_writes += 1;
        let core = var.core();
        let addr = core.vlock().addr();
        if self.read_only {
            // Read-only transactions write nothing by contract; a write
            // demotes the whole transaction and `read_only` reruns the
            // body under the classic validated protocol.
            self.demoted = true;
            trc::snap_demote(1, self.rv, addr);
            return Err(self.fail(AbortReason::Explicit));
        }

        if let Some(slot_idx) = self.write_index.get(addr) {
            let slot = self.writes[slot_idx]
                .as_any_mut()
                .downcast_mut::<TypedSlot<T>>()
                .expect("write-slot type confusion");
            slot.pending = Some(value);
            return Ok(());
        }

        chaos::hit(ChaosPoint::LockSample);
        if chaos::abort_requested(ChaosPoint::LockSample) {
            return Err(self.fail_at(AbortReason::Chaos, addr));
        }
        let w = core.vlock().sample();
        if w.is_locked() {
            return Err(self.fail_at(AbortReason::LockBusy, addr));
        }
        // Write-after-read consistency: the version we read must still
        // be current, or our earlier read is stale.
        if let Some(recorded) = self.read_index.get(addr) {
            if w.version() != recorded {
                return Err(self.fail_at(AbortReason::ReadValidation, addr));
            }
        }
        if !core.vlock().try_lock(w) {
            return Err(self.fail_at(AbortReason::LockBusy, addr));
        }
        #[cfg(feature = "trace")]
        let locked_at = trc::stamp();
        let slot: Box<dyn WriteSlot> = match self.take_spare_slot::<T>(addr) {
            Some(mut boxed) => {
                let slot = boxed
                    .as_any_mut()
                    .downcast_mut::<TypedSlot<T>>()
                    .expect("spare slot type confusion");
                if !Arc::ptr_eq(&slot.core, core) {
                    slot.core = Arc::clone(core);
                }
                slot.pending = Some(value);
                slot.prev = w;
                #[cfg(feature = "trace")]
                {
                    slot.locked_at = locked_at;
                }
                boxed
            }
            None => Box::new(TypedSlot {
                core: Arc::clone(core),
                pending: Some(value),
                prev: w,
                #[cfg(feature = "trace")]
                locked_at,
            }),
        };
        self.write_index.insert(addr, self.writes.len());
        self.writes.push(slot);
        Ok(())
    }

    /// Validates the read set: every recorded variable must be unlocked
    /// (or locked by this transaction) and still carry its recorded
    /// version. Returns the conflict classification *and the culprit
    /// variable's lock address* on failure so callers can attribute the
    /// abort (chaos kills carry address 0 — no variable is at fault).
    fn validate(&self) -> Result<(), (AbortReason, usize)> {
        chaos::hit(ChaosPoint::PreValidate);
        if chaos::abort_requested(ChaosPoint::PreValidate) {
            return Err((AbortReason::Chaos, 0));
        }
        // Hoisted once: read-only validation must never probe the write
        // index — a locked entry cannot be ours if we wrote nothing.
        let may_own_locks = !self.write_index.is_empty();
        for entry in &self.reads {
            let w = entry.handle.vlock().sample();
            if w.version() != entry.version {
                return Err((AbortReason::ReadValidation, entry.addr));
            }
            // `entry.addr` was cached at record time; no vtable call to
            // re-derive the identity we already sampled.
            if w.is_locked() && !(may_own_locks && self.write_index.contains(entry.addr)) {
                return Err((AbortReason::LockBusy, entry.addr));
            }
        }
        Ok(())
    }

    /// Timestamp extension: attempt to move `rv` up to the present.
    fn extend(&mut self) -> TxResult<()> {
        let new_rv = clock::now();
        match self.validate() {
            Ok(()) => {
                trc::clock_extend(self.rv, new_rv);
                self.rv = new_rv;
                Ok(())
            }
            Err((reason, addr)) => Err(self.fail_at(reason, addr)),
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("rv", &self.st.rv)
            .field("reads", &self.st.reads.len())
            .field("writes", &self.st.writes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_write() {
        let v = TVar::new(1);
        let mut tx = Transaction::begin();
        assert_eq!(tx.read(&v).unwrap(), 1);
        tx.write(&v, 5).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 5);
        tx.write(&v, 9).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 9);
        tx.commit().unwrap();
        assert_eq!(v.snapshot(), 9);
    }

    #[test]
    fn uncommitted_writes_are_invisible() {
        let v = TVar::new(1);
        let mut tx = Transaction::begin();
        tx.write(&v, 2).unwrap();
        // The lock is held, but the published value is unchanged.
        assert!(v.core().vlock().sample().is_locked());
        tx.abort();
        assert_eq!(v.snapshot(), 1);
        assert!(!v.core().vlock().sample().is_locked());
    }

    #[test]
    fn write_write_conflict_detected_eagerly() {
        let v = TVar::new(0);
        let mut t1 = Transaction::begin();
        let mut t2 = Transaction::begin();
        t1.write(&v, 1).unwrap();
        assert_eq!(t2.write(&v, 2), Err(StmError::Conflict));
        t1.abort();
        // After t1 aborts, t2 can retry from scratch.
        t2.restart();
        t2.write(&v, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn read_of_locked_var_conflicts() {
        let v = TVar::new(0);
        let mut writer = Transaction::begin();
        writer.write(&v, 1).unwrap();
        let mut reader = Transaction::begin();
        assert_eq!(reader.read(&v), Err(StmError::Conflict));
        writer.abort();
    }

    #[test]
    fn stale_read_set_fails_commit() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        // T1 reads x, then T2 commits a change to x, then T1 tries to
        // commit a write to y: T1's read of x is stale.
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);

        let mut t2 = Transaction::begin();
        t2.write(&x, 99).unwrap();
        t2.commit().unwrap();

        t1.write(&y, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
        assert_eq!(y.snapshot(), 0, "failed commit must not publish");
    }

    #[test]
    fn extension_allows_reading_fresh_values() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        // Another transaction bumps y's version past t1's rv.
        let mut t2 = Transaction::begin();
        t2.write(&y, 7).unwrap();
        t2.commit().unwrap();
        // t1 can still read y (extension succeeds: empty read set so
        // far), and then read x consistently.
        assert_eq!(t1.read(&y).unwrap(), 7);
        assert_eq!(t1.read(&x).unwrap(), 0);
        t1.commit().unwrap();
    }

    #[test]
    fn extension_fails_when_earlier_read_went_stale() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);
        // T2 commits to BOTH x and y: now t1's read of x is stale and
        // reading y (whose version is fresh) must fail the extension.
        let mut t2 = Transaction::begin();
        t2.write(&x, 1).unwrap();
        t2.write(&y, 1).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.read(&y), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn write_after_stale_read_conflicts() {
        let x = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 0);
        let mut t2 = Transaction::begin();
        t2.write(&x, 5).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.write(&x, 9), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn blind_write_to_updated_var_is_allowed() {
        // No prior read: overwriting a variable someone else updated is
        // fine (last-writer-wins is serialisable for blind writes).
        let x = TVar::new(0);
        let mut t1 = Transaction::begin();
        let mut t2 = Transaction::begin();
        t2.write(&x, 5).unwrap();
        t2.commit().unwrap();
        t1.write(&x, 9).unwrap();
        t1.commit().unwrap();
        assert_eq!(x.snapshot(), 9);
    }

    #[test]
    fn read_only_commit_never_fails() {
        let x = TVar::new(1);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read(&x).unwrap(), 1);
        // Even if x changes afterwards, t1 committed a consistent
        // snapshot of the past.
        let mut t2 = Transaction::begin();
        t2.write(&x, 2).unwrap();
        t2.commit().unwrap();
        assert_eq!(t1.commit(), Ok(()));
    }

    #[test]
    fn modify_composes_read_and_write() {
        let x = TVar::new(10);
        let mut t = Transaction::begin();
        t.modify(&x, |v| v * 3).unwrap();
        t.commit().unwrap();
        assert_eq!(x.snapshot(), 30);
    }

    #[test]
    fn abort_releases_all_locks() {
        let vars: Vec<TVar<i32>> = (0..10).map(TVar::new).collect();
        let mut t = Transaction::begin();
        for v in &vars {
            t.write(v, 0).unwrap();
        }
        t.abort();
        for v in &vars {
            assert!(!v.core().vlock().sample().is_locked());
        }
    }

    #[test]
    fn commit_publishes_all_or_nothing() {
        let a = TVar::new(0);
        let b = TVar::new(0);
        let mut t = Transaction::begin();
        t.write(&a, 1).unwrap();
        t.write(&b, 1).unwrap();
        t.commit().unwrap();
        assert_eq!((a.snapshot(), b.snapshot()), (1, 1));
        assert_eq!(a.version(), b.version(), "one commit, one timestamp");
    }

    #[test]
    fn restart_resets_state() {
        let x = TVar::new(0);
        let mut t = Transaction::begin();
        t.read(&x).unwrap();
        t.abort();
        t.restart();
        assert_eq!(t.read_set_len(), 0);
        assert_eq!(t.write_set_len(), 0);
    }

    #[test]
    fn read_with_projects_without_clone() {
        let v = TVar::new(vec![10, 20, 30]);
        let mut t = Transaction::begin();
        let len = t.read_with(&v, Vec::len).unwrap();
        assert_eq!(len, 3);
        let second = t.read_with(&v, |xs| xs[1]).unwrap();
        assert_eq!(second, 20);
        assert_eq!(t.read_set_len(), 1, "same var recorded once");
        t.commit().unwrap();
    }

    #[test]
    fn read_with_sees_own_write() {
        let v = TVar::new(1);
        let mut t = Transaction::begin();
        t.write(&v, 42).unwrap();
        assert_eq!(t.read_with(&v, |x| *x).unwrap(), 42);
        t.abort();
    }

    #[test]
    fn read_with_conflicts_on_locked() {
        let v = TVar::new(0);
        let mut writer = Transaction::begin();
        writer.write(&v, 1).unwrap();
        let mut reader = Transaction::begin();
        assert_eq!(reader.read_with(&v, |x| *x), Err(StmError::Conflict));
        writer.abort();
    }

    #[test]
    fn read_with_participates_in_validation() {
        let x = TVar::new(0);
        let y = TVar::new(0);
        let mut t1 = Transaction::begin();
        assert_eq!(t1.read_with(&x, |v| *v).unwrap(), 0);
        let mut t2 = Transaction::begin();
        t2.write(&x, 9).unwrap();
        t2.commit().unwrap();
        // t1's projection-read of x is stale; an update commit must fail.
        t1.write(&y, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
    }

    #[test]
    fn repeated_read_same_version_ok() {
        let x = TVar::new(4);
        let mut t = Transaction::begin();
        assert_eq!(t.read(&x).unwrap(), 4);
        assert_eq!(t.read(&x).unwrap(), 4);
        assert_eq!(t.read_set_len(), 1, "duplicate reads are not re-recorded");
        t.commit().unwrap();
    }

    // -----------------------------------------------------------------
    // Hot-path fast-path regressions: allocation reuse and the
    // small-set / spilled index representations.
    // -----------------------------------------------------------------

    /// Replays the same read+write footprint: the retry must consume the
    /// spare lists instead of allocating, and every vector must keep the
    /// capacity it grew on the first attempt.
    #[test]
    fn restart_preserves_capacity_and_reuses_slots() {
        let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let reads: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
        let body = |t: &mut Transaction| {
            for r in &reads {
                t.read(r).unwrap();
            }
            for v in &vars {
                t.write(v, 1).unwrap();
            }
        };

        let mut t = Transaction::begin();
        body(&mut t);
        t.abort();
        let parked = t.footprint();
        assert_eq!(parked.spare_write_slots, 8, "abort must park, not drop");
        assert_eq!(parked.spare_read_handles, 8);

        t.restart();
        body(&mut t);
        let reused = t.footprint();
        assert_eq!(reused.spare_write_slots, 0, "retry must reuse every slot");
        assert_eq!(
            reused.spare_read_handles, 0,
            "retry must reuse every handle"
        );
        assert_eq!(reused.reads_capacity, parked.reads_capacity);
        assert_eq!(reused.writes_capacity, parked.writes_capacity);
        assert_eq!(reused.read_index_capacity, parked.read_index_capacity);
        assert_eq!(reused.write_index_capacity, parked.write_index_capacity);
        t.commit().unwrap();
        for v in &vars {
            assert_eq!(v.snapshot(), 1);
        }
    }

    /// Same-type slot allocations are reused even when the retry touches
    /// *different* variables of that type.
    #[test]
    fn retry_with_different_vars_reuses_typed_allocations() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut t = Transaction::begin();
        t.write(&a, 1).unwrap();
        t.abort();
        assert_eq!(t.footprint().spare_write_slots, 1);
        t.restart();
        t.write(&b, 2).unwrap();
        assert_eq!(
            t.footprint().spare_write_slots,
            0,
            "typed allocation must be recycled for a new address"
        );
        t.commit().unwrap();
        assert_eq!(b.snapshot(), 2);
        assert_eq!(a.snapshot(), 0);
    }

    /// The engine behaves identically across the linear-scan and the
    /// spilled (hashed) index representations: read-your-writes,
    /// duplicate-read agreement, and commit/abort effects.
    #[test]
    fn spilled_index_equivalence() {
        let n = crate::index::SPILL_THRESHOLD * 3;
        let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();

        // Committed run over a spilled footprint.
        let mut t = Transaction::begin();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(t.read(v).unwrap(), i as u64);
            t.write(v, i as u64 + 100).unwrap();
        }
        assert!(t.footprint().read_index_spilled, "footprint must spill");
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(t.read(v).unwrap(), i as u64 + 100, "read-your-writes");
            assert_eq!(t.read_set_len(), n, "duplicate reads not re-recorded");
        }
        t.commit().unwrap();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.snapshot(), i as u64 + 100);
        }

        // Aborted run: nothing published, no lock leaked.
        let mut t = Transaction::begin();
        for v in &vars {
            let cur = t.read(v).unwrap();
            t.write(v, cur + 1).unwrap();
        }
        t.abort();
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.snapshot(), i as u64 + 100, "abort must not publish");
            assert!(!v.core().vlock().sample().is_locked());
        }
    }

    /// A spilled read set still validates correctly: a stale entry is
    /// found through the hashed representation too.
    #[test]
    fn spilled_read_set_still_validates() {
        let n = crate::index::SPILL_THRESHOLD * 2;
        let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
        let sink = TVar::new(0u64);
        let mut t1 = Transaction::begin();
        for v in &vars {
            t1.read(v).unwrap();
        }
        // Concurrent commit invalidates one mid-set entry.
        let mut t2 = Transaction::begin();
        t2.write(&vars[n / 2], 999).unwrap();
        t2.commit().unwrap();
        t1.write(&sink, 1).unwrap();
        assert_eq!(t1.commit(), Err(StmError::Conflict));
        t1.abort();
        assert_eq!(sink.snapshot(), 0);
    }
}
