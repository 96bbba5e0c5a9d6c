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

/// Internal state shared by all handles to one transactional variable.
pub(crate) struct TVarCore<T> {
    vlock: VLock,
    data: Atomic<T>,
}

impl<T: TxValue> TVarCore<T> {
    fn new(value: T) -> Self {
        TVarCore {
            // Version 0: the initial value is the only snapshot ever
            // published for this variable, so it validates against any
            // read version.
            vlock: VLock::new(0),
            data: Atomic::new(value),
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
    /// * `publish` swaps it out and retires it through
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
        // SAFETY: `shared` was published by `new` or `publish`, which
        // both store a valid, initialized `T`
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
    /// validating its read set, and a read-only transaction extends only
    /// on its first read.
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
