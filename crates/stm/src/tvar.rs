//! Transactional variables.
//!
//! A [`TVar<T>`] is a shared, transactionally updated cell. Internally it
//! pairs a [`crate::vlock::VLock`] with an epoch-managed pointer
//! to an **immutable** heap value:
//!
//! * Committing writers allocate a fresh `T`, swap the pointer, and
//!   retire the old allocation through `crossbeam-epoch`.
//! * Readers pin the epoch, dereference, and clone. Because a published
//!   value is never mutated in place, the dereference is data-race-free —
//!   the versioned lock protocol only has to establish *which* snapshot
//!   was read, not protect its bytes.
//!
//! This module is the only home of `unsafe` in the crate; each use is a
//! guard-protected epoch dereference or the uniquely-owned drop.

use std::sync::Arc;

// crossbeam-epoch's pointer API takes `std` orderings directly; the
// reclamation protocol itself is modeled by `rubic-check`'s epoch model
// rather than swapped at compile time, so the raw import stays.
use std::sync::atomic::Ordering as EpochOrdering; // lint: allow-std-sync — epoch API

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};

use crate::vlock::{LockWord, VLock};
use crate::TxValue;

/// Inline chain capacity: the `index::VarIndex` small-set trick applied
/// to version chains — counter-sized histories (a handful of retained
/// versions) live in a dense in-place array and never allocate; only
/// genuinely deep chains spill to the heap.
#[cfg(feature = "mvcc")]
const INLINE_VERSIONS: usize = 4;

/// Hard cap on retained old versions per variable. Pruning against the
/// snapshot registry's minimum keeps chains near-empty in steady state;
/// the cap bounds memory when a long-lived snapshot pins versions while
/// writers churn. Overflow drops the *oldest* entries, and a snapshot
/// that later needs one observes [`SnapshotMiss`] and re-pins — the
/// transient `AbortReason::SnapshotStale`.
#[cfg(feature = "mvcc")]
const MAX_CHAIN: usize = 16;

/// Returned by [`TVarCore::read_at_with`] when the version visible at
/// the pinned timestamp has been dropped from the bounded chain.
#[cfg(feature = "mvcc")]
pub(crate) struct SnapshotMiss;

/// One displaced version in a variable's chain: the boxed value that
/// was current for timestamps `stamp ..= succ - 1`.
#[cfg(feature = "mvcc")]
struct OldVersion<T> {
    /// Commit stamp of this version (the vlock version while current).
    stamp: u64,
    /// Stamp of the version that displaced it. Visibility rule: this
    /// entry is the snapshot at `rv` iff `stamp <= rv < succ`.
    succ: u64,
    /// The displaced box, owned by the chain until pruned. Pruned
    /// entries are retired through the epoch (never freed inline):
    /// concurrent classic readers may still hold guard-protected
    /// references from before the displacing swap.
    ptr: *const T,
}

// SAFETY: `ptr` is an ownership handle to a heap `T` that is never
// aliased mutably (published values are immutable); moving or sharing
// the handle across threads is as safe as moving/sharing `Box<T>`,
// which `T: Send + Sync` (from `TxValue`) provides.
#[cfg(feature = "mvcc")]
unsafe impl<T: Send + Sync> Send for OldVersion<T> {}
// SAFETY: same argument; `&OldVersion<T>` only exposes `&T`.
#[cfg(feature = "mvcc")]
unsafe impl<T: Send + Sync> Sync for OldVersion<T> {}

/// A variable's displaced-version chain, oldest first. Invariant: the
/// inline array is only populated while the spill vector is empty (once
/// spilled, entries stay spilled until the chain fully drains — the
/// same representation discipline as `index::VarIndex`).
#[cfg(feature = "mvcc")]
struct History<T> {
    inline: [Option<OldVersion<T>>; INLINE_VERSIONS],
    inline_len: usize,
    spill: Vec<OldVersion<T>>,
}

#[cfg(feature = "mvcc")]
impl<T> History<T> {
    const fn new() -> Self {
        History {
            inline: [None, None, None, None],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    fn iter(&self) -> impl Iterator<Item = &OldVersion<T>> {
        self.inline[..self.inline_len]
            .iter()
            .map(|slot| slot.as_ref().expect("inline prefix is dense"))
            .chain(self.spill.iter())
    }

    /// Appends the newest displaced version (stamps are pushed in
    /// strictly increasing order — writers serialise on the vlock).
    fn push(&mut self, v: OldVersion<T>) {
        if !self.spill.is_empty() {
            self.spill.push(v);
        } else if self.inline_len < INLINE_VERSIONS {
            self.inline[self.inline_len] = Some(v);
            self.inline_len += 1;
        } else {
            // Spill: migrate the dense prefix, keeping order.
            self.spill.reserve(INLINE_VERSIONS + 1);
            for slot in &mut self.inline {
                self.spill
                    .push(slot.take().expect("inline prefix is dense"));
            }
            self.inline_len = 0;
            self.spill.push(v);
        }
    }

    /// The entry visible at snapshot timestamp `rv`, if still chained.
    fn find(&self, rv: u64) -> Option<&OldVersion<T>> {
        self.iter().find(|v| v.stamp <= rv && rv < v.succ)
    }

    /// The most recently pushed entry. Its `succ` is the stamp of the
    /// *current* value as of the last publish of this variable — the
    /// slow path uses it to recognise a swapped-but-unreleased commit.
    fn newest(&self) -> Option<&OldVersion<T>> {
        self.spill.last().or_else(|| {
            self.inline_len
                .checked_sub(1)
                .and_then(|i| self.inline[i].as_ref())
        })
    }

    /// Removes the single oldest entry, handing its box to `retire`.
    fn drop_front(&mut self, retire: &mut impl FnMut(*const T)) {
        if self.inline_len > 0 {
            let v = self.inline[0].take().expect("inline prefix is dense");
            retire(v.ptr);
            // Re-densify: [None, a, b, c] -> [a, b, c, None].
            self.inline.rotate_left(1);
            self.inline_len -= 1;
        } else {
            let v = self.spill.remove(0);
            retire(v.ptr);
        }
    }

    /// The prefix-drain reclamation path: drops every leading entry no
    /// registered snapshot can need (`succ <= min_active`), then
    /// enforces [`MAX_CHAIN`] by dropping further oldest entries.
    /// Chains are stamp-ordered, so the droppable set is a prefix.
    /// Returns the number of entries handed to `retire`.
    fn prune(&mut self, min_active: u64, mut retire: impl FnMut(*const T)) -> usize {
        let mut dropped = 0;
        loop {
            let droppable = match self.iter().next() {
                Some(front) => front.succ <= min_active || self.len() > MAX_CHAIN,
                None => false,
            };
            if !droppable {
                break;
            }
            self.drop_front(&mut retire);
            dropped += 1;
        }
        dropped
    }
}

#[cfg(feature = "mvcc")]
impl<T> Drop for History<T> {
    fn drop(&mut self) {
        let ptrs: Vec<*const T> = self.iter().map(|v| v.ptr).collect();
        for ptr in ptrs {
            // SAFETY: the chain owns its boxes, and `Drop` runs with
            // `&mut self` through `TVarCore`'s drop — the last handle is
            // going away, so no guard-holding reader can reference a
            // chained (never-current) version anymore.
            unsafe { drop(Box::from_raw(ptr.cast_mut())) };
        }
    }
}

/// Internal state shared by all handles to one transactional variable.
pub(crate) struct TVarCore<T> {
    vlock: VLock,
    data: Atomic<T>,
    /// Displaced-version chain (mvcc mode). The mutex excludes chain
    /// mutation against slow-path snapshot reads; writers already
    /// serialise on the vlock, and snapshot reads only take it when the
    /// current version is not the visible one, so it is uncontended in
    /// steady state. `rubic_sync::Mutex` so checker builds can model it.
    #[cfg(feature = "mvcc")]
    history: rubic_sync::Mutex<History<T>>,
}

impl<T: TxValue> TVarCore<T> {
    fn new(value: T) -> Self {
        TVarCore {
            // Version 0: the initial value is the only snapshot ever
            // published for this variable, so it validates against any
            // read version.
            vlock: VLock::new(0),
            data: Atomic::new(value),
            #[cfg(feature = "mvcc")]
            history: rubic_sync::Mutex::new(History::new()),
        }
    }

    #[inline]
    pub(crate) fn vlock(&self) -> &VLock {
        &self.vlock
    }

    /// Borrows the currently published value for as long as both this
    /// core and `guard` are borrowed.
    ///
    /// The caller is responsible for the versioned-lock consistency
    /// protocol (sample → load → re-sample); this method only guarantees
    /// the borrow itself is sound. The value is freed on exactly two
    /// paths, and neither can run while `'g` lasts:
    ///
    /// * `publish`/`publish_versioned` swap it out and retire it through
    ///   guard-deferred destruction, which waits for every guard pinned
    ///   before the retirement — including `guard`, pinned before this
    ///   load.
    /// * `TVarCore::drop` frees the current value immediately, but only
    ///   once the last handle is gone, and `&'g self` keeps this core
    ///   alive for all of `'g`.
    ///
    /// So a value borrowed here also keeps alive, for `'g`, every core a
    /// handle *inside* it points to — which is what lets a B-tree
    /// descent follow child links without cloning them.
    #[inline]
    pub(crate) fn load<'g>(&'g self, guard: &'g Guard) -> &'g T {
        let shared = self.data.load(EpochOrdering::Acquire, guard);
        // SAFETY: `shared` was published by `new`, `publish` or
        // `publish_versioned`, which all store a valid, initialized `T`
        // that is never mutated in place; it stays allocated for `'g`
        // (see the doc comment: retirement waits for `guard`, and drop
        // needs `&'g self` to have ended).
        unsafe { &*shared.as_raw() }
    }

    /// The read every protocol shares: the current value, if it is
    /// unlocked and no newer than `rv`, observed between two identical
    /// samples of the lock word.
    ///
    /// `f` runs on the value between the samples (possibly more than
    /// once, when a commit races the read); its result is returned
    /// together with the validated word. `Err` carries the word that
    /// made the value unreadable at `rv` — locked, or `version > rv` —
    /// and the caller decides: the classic protocol extends `rv` by
    /// validating its read set, a read-only transaction extends only on
    /// its first read, and an mvcc snapshot falls back to the version
    /// chain.
    #[inline]
    pub(crate) fn read_at<'g, R>(
        &'g self,
        rv: u64,
        guard: &'g Guard,
        f: &mut impl FnMut(&'g T) -> R,
    ) -> Result<(R, LockWord), LockWord> {
        loop {
            let w1 = self.vlock.sample();
            if w1.is_locked() || w1.version() > rv {
                return Err(w1);
            }
            let result = f(self.load(guard));
            if self.vlock.sample() == w1 {
                return Ok((result, w1));
            }
            // A commit raced between the two samples; resample.
        }
    }

    /// Publishes `value` as the new current snapshot and retires the old
    /// one.
    ///
    /// # Contract
    /// The caller must hold this variable's write lock (so no concurrent
    /// `publish` runs) and must release it with the new version
    /// afterwards.
    pub(crate) fn publish(&self, value: T, guard: &Guard) {
        let old: Shared<'_, T> = self
            .data
            .swap(Owned::new(value), EpochOrdering::Release, guard);
        debug_assert!(!old.is_null());
        // SAFETY: `old` was the uniquely published snapshot; after the
        // swap no new reader can acquire it, and existing readers hold
        // epoch guards. Deferring destruction until all current guards
        // are dropped is exactly the epoch-reclamation contract.
        unsafe { guard.defer_destroy(old) };
    }

    /// The mvcc sibling of [`publish`](Self::publish): publishes
    /// `value` stamped `wv` and chains the displaced version instead of
    /// retiring it, so snapshots pinned before `wv` can still read it.
    /// Then runs the prefix-drain reclamation: entries no registered
    /// snapshot can need (`succ <= min_active`, plus cap overflow) are
    /// retired through the epoch. Returns the number of pruned entries.
    ///
    /// # Contract
    /// Same as `publish` (write lock held, release with `wv` after),
    /// plus: `min_active` must come from `crate::snap::min_active`
    /// *after* the commit's clock tick — the registry's fence protocol
    /// is what makes dropping `succ <= min_active` entries safe.
    #[cfg(feature = "mvcc")]
    pub(crate) fn publish_versioned(
        &self,
        value: T,
        wv: u64,
        min_active: u64,
        guard: &Guard,
    ) -> usize {
        let mut history = self.history.lock();
        // Holding the write lock, the sampled word is ours and
        // `version()` is the displaced version's stamp.
        let stamp = self.vlock.sample().version();
        let old: Shared<'_, T> = self
            .data
            .swap(Owned::new(value), EpochOrdering::Release, guard);
        debug_assert!(!old.is_null());
        history.push(OldVersion {
            stamp,
            succ: wv,
            ptr: old.as_raw(),
        });
        history.prune(min_active, |ptr| {
            // SAFETY: the entry was just unchained under the history
            // mutex, so no snapshot read can hand out a reference to it
            // anymore; classic readers from before the displacing swap
            // may still hold guard-protected references, so the box is
            // retired through the epoch rather than freed inline.
            unsafe { guard.defer_destroy(Shared::from(ptr)) };
        })
    }

    /// Reads the version visible at snapshot timestamp `rv` (visibility
    /// rule: the newest version with `stamp <= rv`), applying `f`
    /// without cloning. Returns the projection plus the chain stamp when
    /// the read resolved through the chain (`None` = current value).
    ///
    /// No validation, no conflicts: writers are invisible to this path.
    ///
    /// # Errors
    /// [`SnapshotMiss`] when the needed version was dropped by a
    /// bounded chain (cap overflow) — the caller re-pins and retries.
    #[cfg(feature = "mvcc")]
    pub(crate) fn read_at_with<'g, R>(
        &'g self,
        rv: u64,
        guard: &'g Guard,
        f: &mut impl FnMut(&'g T) -> R,
    ) -> Result<(R, Option<u64>), SnapshotMiss> {
        // Fast path, the read every protocol shares: the current version
        // is visible and stable. No commit during this snapshot's
        // lifetime can stamp `<= rv` (write stamps are drawn from the
        // clock after `rv` was pinned), so a current version with
        // `stamp <= rv` *is* the newest one visible.
        if let Ok((result, _)) = self.read_at(rv, guard, f) {
            return Ok((result, None));
        }
        // Slow path: locked or too new — resolve through the chain. The
        // history mutex excludes the publish critical section, so the
        // (current value, chain) pair is a consistent cut.
        //
        // The chain must be consulted *before* trusting the lock word: a
        // locked word carries the pre-lock version, so `version() <= rv`
        // alone cannot distinguish a writer that has not swapped yet
        // (current data is still the visible version) from one that
        // swapped and published but has not released the vlock (current
        // data is the too-new value).
        //
        // When the variable is locked and the chain does not cover `rv`,
        // there is one genuinely ambiguous state: the pre-lock version
        // is `<= rv`, the owner may either be encounter-locked inside
        // its body (its eventual write stamp will exceed every already
        // pinned `rv`, so the current value is the visible one) or
        // mid-publication of a commit stamped `<= rv` (the current value
        // is about to be displaced, and sibling variables of that commit
        // may already answer with their new values). Guessing either way
        // can tear the snapshot across one atomic commit, so the reader
        // *waits the lock out* — publication is bounded, lock-holders
        // never wait on snapshot readers, and the reader holds no lock
        // while spinning, so this cannot deadlock. Abort-freedom is
        // preserved: waiting is not an abort.
        loop {
            {
                let history = self.history.lock();
                if let Some(v) = history.find(rv) {
                    // SAFETY: the entry is still chained and
                    // removal/retire only happen under the history mutex
                    // we hold, so the box is live; chained values are
                    // immutable. The borrow may outlive the mutex for
                    // `'g`: a pruned entry is retired through the epoch
                    // (deferred past `guard`), and `History::drop` needs
                    // this core gone, which `&'g self` rules out.
                    let value: &'g T = unsafe { &*v.ptr };
                    return Ok((f(value), Some(v.stamp)));
                }
                let w = self.vlock.sample();
                if w.version() > rv {
                    // Neither the chain nor the current lineage has a
                    // version visible at `rv`: it was pruned (or never
                    // existed). The caller re-pins or aborts.
                    return Err(SnapshotMiss);
                }
                if !w.is_locked() {
                    // Unlocked with `stamp <= rv` under the mutex: the
                    // current value is the newest visible version.
                    let result = f(self.load(guard));
                    return Ok((result, None));
                }
                // Locked, pre-lock version <= rv. If the owner already
                // swapped this variable's new value in (`newest().succ`
                // moved past the pre-lock stamp) and that stamp is
                // visible, the current value is the right answer even
                // though the vlock is still held.
                if let Some(top) = history.newest() {
                    if top.succ > w.version() && top.succ <= rv {
                        let result = f(self.load(guard));
                        return Ok((result, None));
                    }
                }
                // Ambiguous body-vs-publication state: fall through to
                // wait (mutex dropped first so the owner can publish).
            }
            for _ in 0..32 {
                std::hint::spin_loop();
            }
            rubic_sync::thread::yield_now();
        }
    }
}

impl<T> Drop for TVarCore<T> {
    fn drop(&mut self) {
        // SAFETY: having `&mut self` proves no other handle or reader
        // exists (the last `Arc` is being dropped), so the current
        // pointer is uniquely owned and can be reclaimed immediately.
        let ptr = std::mem::replace(&mut self.data, Atomic::null());
        unsafe {
            let owned = ptr.try_into_owned();
            drop(owned);
        }
    }
}

/// A shared transactional variable holding a `T`.
///
/// `TVar` is a cheap clonable handle (an `Arc` internally); clones refer
/// to the same underlying cell. Values must implement [`TxValue`]
/// (`Clone + Send + Sync + 'static`).
///
/// ```
/// use rubic_stm::{Stm, TVar};
/// let stm = Stm::default();
/// let v = TVar::new(vec![1, 2, 3]);
/// stm.atomically(|tx| {
///     let mut cur = tx.read(&v)?;
///     cur.push(4);
///     tx.write(&v, cur)
/// });
/// assert_eq!(v.snapshot(), vec![1, 2, 3, 4]);
/// ```
pub struct TVar<T: TxValue> {
    core: Arc<TVarCore<T>>,
}

impl<T: TxValue> TVar<T> {
    /// Creates a new transactional variable holding `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        TVar {
            core: Arc::new(TVarCore::new(value)),
        }
    }

    /// Creates a new transactional variable and registers `label` as the
    /// human-readable name for its lock identity. With the `trace`
    /// feature on, contention tables and post-mortem bundles report this
    /// name next to [`lock_addr`](Self::lock_addr); without it the label
    /// is dropped and this is exactly [`new`](Self::new).
    #[must_use]
    pub fn labelled(value: T, label: &str) -> Self {
        let var = Self::new(value);
        #[cfg(feature = "trace")]
        rubic_trace::set_label(var.lock_addr() as u64, label);
        #[cfg(not(feature = "trace"))]
        let _ = label;
        var
    }

    #[inline]
    pub(crate) fn core(&self) -> &Arc<TVarCore<T>> {
        &self.core
    }

    /// Returns a consistent copy of the current committed value without
    /// running a transaction.
    ///
    /// Spins while a committer holds the write lock (commit windows are
    /// a few instructions long). Intended for post-run inspection and
    /// monitoring, not for composing with transactional logic — a
    /// snapshot taken outside a transaction has no atomicity relative to
    /// anything else.
    #[must_use]
    pub fn snapshot(&self) -> T {
        let guard = epoch::pin();
        loop {
            // No read version bounds a snapshot: only a held lock fails
            // the read, and then we spin until the committer releases.
            match self.core.read_at(u64::MAX, &guard, &mut T::clone) {
                Ok((value, _)) => return value,
                Err(_) => std::hint::spin_loop(),
            }
        }
    }

    /// The commit timestamp of the currently published value (0 for a
    /// never-written variable). Diagnostic.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.core.vlock.sample().version()
    }

    /// True while a transaction holds this variable's write lock.
    ///
    /// Diagnostic only — the answer can be stale by the time the caller
    /// acts on it. Its intended use is *quiescence* checks: once every
    /// transaction has finished (threads joined), any variable still
    /// reporting `true` has leaked its lock, which the harness's
    /// lock-leak oracle turns into a test failure.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.core.vlock.sample().is_locked()
    }

    /// Stable address of this variable's versioned lock — the same
    /// identity `LockHold` trace events carry in their address word, so
    /// a leaked lock found at quiescence can be cross-referenced with
    /// the hold-time events of the transactions that touched it.
    #[must_use]
    pub fn lock_addr(&self) -> usize {
        self.core.vlock.addr()
    }

    /// True if `self` and `other` are handles to the same variable.
    #[must_use]
    pub fn ptr_eq(&self, other: &TVar<T>) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }
}

impl<T: TxValue> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: TxValue + std::fmt::Debug> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar")
            .field("value", &self.snapshot())
            .field("version", &self.version())
            .finish()
    }
}

impl<T: TxValue + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_snapshot_roundtrip() {
        let v = TVar::new(41);
        assert_eq!(v.snapshot(), 41);
        assert_eq!(v.version(), 0);
    }

    #[test]
    fn clone_shares_identity() {
        let a = TVar::new(String::from("x"));
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let c = TVar::new(String::from("x"));
        assert!(!a.ptr_eq(&c));
    }

    #[test]
    fn publish_swaps_value() {
        let v = TVar::new(1);
        let guard = epoch::pin();
        let w = v.core.vlock().sample();
        assert!(v.core.vlock().try_lock(w));
        v.core.publish(2, &guard);
        v.core.vlock().release_commit(7);
        drop(guard);
        assert_eq!(v.snapshot(), 2);
        assert_eq!(v.version(), 7);
    }

    #[test]
    fn drop_reclaims_value() {
        // Drop a TVar holding an Arc and check the refcount falls — i.e.
        // the inner allocation was actually freed, not leaked.
        let tracker = Arc::new(());
        let v = TVar::new(Arc::clone(&tracker));
        assert_eq!(Arc::strong_count(&tracker), 2);
        drop(v);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn snapshot_spins_past_held_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let v = Arc::new(TVar::new(10));
        let locked = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let v2 = Arc::clone(&v);
        let locked2 = Arc::clone(&locked);
        let release2 = Arc::clone(&release);
        let h = std::thread::spawn(move || {
            let w = v2.core.vlock().sample();
            assert!(v2.core.vlock().try_lock(w));
            locked2.store(true, Ordering::Release);
            while !release2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let guard = epoch::pin();
            v2.core.publish(20, &guard);
            v2.core.vlock().release_commit(3);
        });
        while !locked.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // Snapshot must not observe a half-committed state; let the
        // writer finish while we spin.
        release.store(true, Ordering::Release);
        let got = v.snapshot();
        assert!(got == 10 || got == 20);
        h.join().unwrap();
        assert_eq!(v.snapshot(), 20);
    }

    #[test]
    fn debug_format_mentions_value() {
        let v = TVar::new(5);
        let s = format!("{v:?}");
        assert!(s.contains('5'), "{s}");
    }

    #[test]
    fn default_uses_value_default() {
        let v: TVar<u64> = TVar::default();
        assert_eq!(v.snapshot(), 0);
    }
}
