//! The `Stm` handle: retry loop, contention management, statistics.

use std::sync::Arc;

use crate::cm::{Backoff, ContentionManager};
use crate::stats::StmStats;
use crate::txn::{Transaction, TxResult};

/// An STM runtime handle: owns the contention manager and statistics and
/// drives the transaction retry loop.
///
/// `Stm` is `Send + Sync` and cheap to share (`Arc` fields); worker
/// threads typically share one instance per logical process/tenant so
/// commit-rates are accounted per tenant.
///
/// ```
/// use rubic_stm::{Stm, TVar};
/// let stm = Stm::default();
/// let v = TVar::new(0u64);
/// for _ in 0..10 {
///     stm.atomically(|tx| tx.modify(&v, |x| x + 1));
/// }
/// assert_eq!(v.snapshot(), 10);
/// assert_eq!(stm.stats().commits(), 10);
/// ```
pub struct Stm {
    cm: Arc<dyn ContentionManager>,
    stats: Arc<StmStats>,
    /// Multi-version mode: writing commits append the displaced value to
    /// the variable's version chain and [`Stm::read_only`] pins a
    /// snapshot timestamp instead of validating. Off by default — the
    /// single-version protocol is untouched unless a builder opts in.
    #[cfg(feature = "mvcc")]
    mvcc: bool,
}

impl Stm {
    /// Creates an `Stm` with the default (exponential-backoff)
    /// contention manager.
    #[must_use]
    pub fn new() -> Self {
        StmBuilder::new().build()
    }

    /// Starts building a customised `Stm`.
    #[must_use]
    pub fn builder() -> StmBuilder {
        StmBuilder::new()
    }

    /// Runs `f` transactionally until it commits, returning its result.
    ///
    /// `f` may run multiple times (once per attempt); it must be free of
    /// non-transactional side effects. Conflicts inside `f` should be
    /// propagated with `?` — returning `Err` aborts the attempt,
    /// backs off per the contention manager, and retries.
    ///
    /// # Panics
    /// Propagates panics from `f` after releasing all locks, so a
    /// panicking transaction never wedges other threads.
    pub fn atomically<R>(&self, mut f: impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        self.run(false, &mut f)
    }

    /// The classic validated retry loop behind [`atomically`]
    /// (`Self::atomically`) and [`read_only`](Self::read_only)'s
    /// fallback; `read_only` only adds the ro-commit/abort accounting.
    fn run<R>(&self, read_only: bool, f: &mut impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        let mut tx = Transaction::begin();
        #[cfg(feature = "mvcc")]
        tx.set_mvcc(self.mvcc);
        let mut trace = crate::trc::TxTrace::begin();
        let mut attempt: u32 = 0;
        loop {
            match attempt_once(&mut tx, f) {
                Ok(r) => {
                    let (reads, writes) = tx.op_counts();
                    self.stats.record_commit(reads, writes, read_only);
                    trace.on_commit(reads, writes, attempt + 1);
                    return r;
                }
                Err(_) => {
                    let reason = tx.conflict_reason();
                    tx.abort();
                    self.stats.record_abort(reason);
                    if read_only {
                        self.stats.record_ro_abort();
                    }
                    crate::stats::note_thread_abort();
                    attempt += 1;
                    trace.on_abort(reason, attempt, tx.conflict_addr());
                    // Unpinned while backing off: a sleeping loser must
                    // not hold the epoch (and hence reclamation) back.
                    tx.unpinned(|| self.cm.backoff(attempt));
                    tx.restart();
                    trace.on_restart(attempt);
                }
            }
        }
    }

    /// Runs a read-only transaction.
    ///
    /// The body runs under a read-only protocol that keeps no read set
    /// and never validates at commit:
    ///
    /// * Single-version (the default): TL2's read-only protocol. Each
    ///   read must find its variable unlocked with `version <= rv`
    ///   between two samples of the lock word. Only the first read may
    ///   advance `rv`, because nothing earlier needs validating; a later
    ///   read of a newer value aborts the attempt, which retries at a
    ///   fresh `rv`.
    /// * With [`StmBuilder::mvcc`] enabled, the transaction pins a
    ///   snapshot timestamp and reads the version visible at it, falling
    ///   back to the variable's version chain: outside the transient
    ///   bounded-chain fallback, it never aborts.
    ///
    /// Writes are not prevented by the type system: a body that writes
    /// demotes itself, and the transaction reruns under the classic
    /// protocol of [`atomically`](Self::atomically). So does one whose
    /// read-only attempts keep aborting, since the classic protocol can
    /// extend past a newer value by validating what it read.
    pub fn read_only<R>(&self, mut f: impl FnMut(&mut Transaction) -> TxResult<R>) -> R {
        /// Read-only attempts tolerated before the classic protocol takes
        /// the job. A single-version attempt aborts when a writer commits
        /// to a variable it has yet to read, and a snapshot when a
        /// variable outruns its bounded chain; one retry almost always
        /// suffices, and eight means a long body under pathological churn.
        const RO_ATTEMPTS: u32 = 8;
        let mut trace = crate::trc::TxTrace::begin();
        let mut attempt: u32 = 0;
        let mut demoted_write = false;
        while attempt < RO_ATTEMPTS {
            let Some(mut tx) = self.begin_read_only() else {
                // Registry full (or writers outran pinning): classic
                // mode is a correctness-neutral fallback.
                break;
            };
            match attempt_once(&mut tx, &mut f) {
                Ok(r) => {
                    let (reads, writes) = tx.op_counts();
                    self.stats.record_commit(reads, writes, true);
                    trace.on_commit(reads, writes, attempt + 1);
                    return r;
                }
                Err(_) => {
                    let reason = tx.conflict_reason();
                    let demoted = tx.demoted();
                    tx.abort();
                    self.stats.record_abort(reason);
                    crate::stats::note_thread_abort();
                    attempt += 1;
                    trace.on_abort(reason, attempt, tx.conflict_addr());
                    if demoted {
                        // The body wrote — not read-only after all. Not
                        // charged as a read-only abort: demotion is a
                        // mode switch, not a data conflict.
                        demoted_write = true;
                        break;
                    }
                    self.stats.record_ro_abort();
                    // Dropped first: the backoff runs unpinned.
                    drop(tx);
                    self.cm.backoff(attempt);
                }
            }
        }
        // Every path out of the loop is a demotion to the classic
        // protocol; count it. The write case already emitted its
        // `SnapDemote` (code 1, with the written variable's address) at
        // the write site, so only the read-only fallbacks emit here.
        self.stats.record_snap_demotion();
        if !demoted_write {
            crate::trc::snap_demote(0, 0, 0);
        }
        self.run(true, &mut f)
    }

    /// Begins one read-only attempt: a snapshot in mvcc mode (`None`
    /// when the registry is saturated), else a single-version read-only
    /// transaction.
    fn begin_read_only(&self) -> Option<Transaction> {
        #[cfg(feature = "mvcc")]
        if self.mvcc {
            return Transaction::begin_snapshot();
        }
        Some(Transaction::begin_read_only())
    }

    /// This runtime's statistics.
    #[must_use]
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// The active contention manager's name.
    #[must_use]
    pub fn contention_manager(&self) -> &'static str {
        self.cm.name()
    }

    /// Whether this runtime runs in multi-version (snapshot) mode.
    #[cfg(feature = "mvcc")]
    #[must_use]
    pub fn is_mvcc(&self) -> bool {
        self.mvcc
    }
}

/// Runs one attempt of `f` on `tx` and commits it. A panicking body
/// releases every held lock before the panic propagates, so it never
/// wedges other threads.
fn attempt_once<R>(
    tx: &mut Transaction,
    f: &mut impl FnMut(&mut Transaction) -> TxResult<R>,
) -> TxResult<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tx))) {
        Ok(body) => body.and_then(|r| tx.commit().map(|()| r)),
        Err(payload) => {
            tx.abort();
            std::panic::resume_unwind(payload);
        }
    }
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new()
    }
}

impl Clone for Stm {
    /// Clones share the contention manager *and* the statistics — a
    /// clone is another handle to the same logical runtime.
    fn clone(&self) -> Self {
        Stm {
            cm: Arc::clone(&self.cm),
            stats: Arc::clone(&self.stats),
            #[cfg(feature = "mvcc")]
            mvcc: self.mvcc,
        }
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("cm", &self.cm.name())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// Builder for [`Stm`].
pub struct StmBuilder {
    cm: Arc<dyn ContentionManager>,
    #[cfg(feature = "mvcc")]
    mvcc: bool,
}

impl StmBuilder {
    /// Starts with the default exponential-backoff contention manager.
    #[must_use]
    pub fn new() -> Self {
        StmBuilder {
            cm: Arc::new(Backoff::default()),
            #[cfg(feature = "mvcc")]
            mvcc: false,
        }
    }

    /// Selects a contention manager.
    #[must_use]
    pub fn contention_manager(mut self, cm: impl ContentionManager + 'static) -> Self {
        self.cm = Arc::new(cm);
        self
    }

    /// Enables multi-version mode: writing commits keep a bounded chain
    /// of displaced versions per variable and [`Stm::read_only`] runs as
    /// an abort-free snapshot transaction. Off by default.
    #[cfg(feature = "mvcc")]
    #[must_use]
    pub fn mvcc(mut self, on: bool) -> Self {
        self.mvcc = on;
        self
    }

    /// Finalises the runtime.
    #[must_use]
    pub fn build(self) -> Stm {
        Stm {
            cm: self.cm,
            stats: Arc::new(StmStats::new()),
            #[cfg(feature = "mvcc")]
            mvcc: self.mvcc,
        }
    }
}

impl Default for StmBuilder {
    fn default() -> Self {
        StmBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::{Aggressive, Polite};
    use crate::TVar;

    #[test]
    fn atomically_commits() {
        let stm = Stm::default();
        let v = TVar::new(5);
        let doubled = stm.atomically(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x * 2)?;
            Ok(x * 2)
        });
        assert_eq!(doubled, 10);
        assert_eq!(v.snapshot(), 10);
    }

    #[test]
    fn stats_count_commits_and_results() {
        let stm = Stm::default();
        let v = TVar::new(0);
        for _ in 0..7 {
            stm.atomically(|tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(stm.stats().commits(), 7);
        assert_eq!(stm.stats().aborts(), 0);
        assert_eq!(v.snapshot(), 7);
    }

    #[test]
    fn clone_shares_stats() {
        let stm = Stm::default();
        let stm2 = stm.clone();
        let v = TVar::new(0);
        stm2.atomically(|tx| tx.write(&v, 1));
        assert_eq!(stm.stats().commits(), 1);
    }

    #[test]
    fn builder_selects_cm() {
        let stm = Stm::builder().contention_manager(Polite).build();
        assert_eq!(stm.contention_manager(), "polite");
        let stm = Stm::builder().contention_manager(Aggressive).build();
        assert_eq!(stm.contention_manager(), "aggressive");
    }

    #[test]
    fn panicking_transaction_releases_locks() {
        let stm = Stm::default();
        let v = TVar::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.atomically(|tx| {
                tx.write(&v, 1)?;
                panic!("boom");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(result.is_err());
        // The lock must be free: another transaction can write.
        stm.atomically(|tx| tx.write(&v, 2));
        assert_eq!(v.snapshot(), 2);
    }

    #[test]
    fn aborted_attempts_do_not_inflate_op_stats() {
        // Regression: `Transaction::restart` used to carry `n_reads` /
        // `n_writes` across attempts, so a transaction that conflicted
        // once reported its operations twice to `StmStats`.
        use crate::txn::StmError;
        let stm = Stm::default();
        let v = TVar::new(7u32);
        let mut first = true;
        let got = stm.atomically(|tx| {
            let x = tx.read(&v)?;
            if first {
                // Simulate a conflict after the read: the attempt
                // aborts, restarts, and succeeds on the second pass.
                first = false;
                return Err(StmError::Conflict);
            }
            Ok(x)
        });
        assert_eq!(got, 7);
        assert_eq!(stm.stats().commits(), 1);
        assert_eq!(stm.stats().aborts(), 1);
        assert_eq!(
            stm.stats().reads(),
            1,
            "the aborted attempt's read leaked into the committed stats"
        );
        assert_eq!(stm.stats().writes(), 0);
    }

    #[test]
    fn concurrent_counter_no_lost_updates() {
        use std::sync::Arc;
        let stm = Stm::default();
        let v = Arc::new(TVar::new(0u64));
        let threads = 4;
        let per_thread = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        stm.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.snapshot(), threads * per_thread);
        assert_eq!(stm.stats().commits(), threads * per_thread);
    }

    #[test]
    fn read_only_keeps_no_read_set() {
        let stm = Stm::default();
        let vars: Vec<TVar<u64>> = (0..6).map(TVar::new).collect();
        let sum = stm.read_only(|tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
                sum += tx.read_with(v, |x| *x)?;
            }
            assert_eq!(tx.read_set_len(), 0, "read-only reads must record nothing");
            Ok(sum)
        });
        assert_eq!(sum, 30);
        assert_eq!(stm.stats().ro_commits(), 1);
        assert_eq!(stm.stats().reads(), 12, "every read still counts");
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[test]
    fn read_only_that_writes_demotes_to_classic() {
        let stm = Stm::default();
        let v = TVar::new(1u64);
        let got = stm.read_only(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            Ok(x + 1)
        });
        assert_eq!(got, 2);
        assert_eq!(v.snapshot(), 2);
        // Demotion is a mode switch, not a read-only abort.
        assert_eq!(stm.stats().ro_aborts(), 0);
        assert_eq!(stm.stats().ro_commits(), 1);
        assert_eq!(stm.stats().snap_demotions(), 1);
    }

    #[test]
    fn read_only_first_read_extends_past_a_newer_value() {
        let stm = Stm::default();
        let other = Stm::default();
        let x = TVar::new(0u64);
        let mut first = true;
        let got = stm.read_only(|tx| {
            if first {
                // Commits after this attempt sampled `rv`.
                first = false;
                other.atomically(|t| t.write(&x, 7));
            }
            tx.read(&x)
        });
        assert_eq!(got, 7);
        assert_eq!(
            stm.stats().aborts(),
            0,
            "a first read extends, never aborts"
        );
        assert_eq!(stm.stats().ro_commits(), 1);
    }

    #[test]
    fn read_only_later_read_of_a_newer_value_aborts_and_retries() {
        use crate::AbortReason;
        let stm = Stm::default();
        let other = Stm::default();
        let x = TVar::new(1u64);
        let y = TVar::new(2u64);
        let mut first = true;
        let got = stm.read_only(|tx| {
            let a = tx.read(&x)?;
            if first {
                first = false;
                other.atomically(|t| t.write(&y, 20));
            }
            let b = tx.read(&y)?;
            Ok((a, b))
        });
        assert_eq!(got, (1, 20), "the retry reads at a fresh rv");
        assert_eq!(stm.stats().ro_aborts(), 1);
        assert_eq!(stm.stats().aborts_for(AbortReason::ReadValidation), 1);
        assert_eq!(stm.stats().ro_commits(), 1);
        assert_eq!(stm.stats().snap_demotions(), 0, "one abort is no demotion");
    }

    #[test]
    fn read_only_sees_no_torn_transfer_under_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stm = Stm::default();
        let a = Arc::new(TVar::new(500i64));
        let b = Arc::new(TVar::new(500i64));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stm = stm.clone();
            let (a, b, stop) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut k = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let amount = k % 9 - 4;
                    stm.atomically(|tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.write(&a, x - amount)?;
                        tx.write(&b, y + amount)?;
                        Ok(())
                    });
                    k += 1;
                }
            })
        };
        for _ in 0..2000 {
            let sum = stm.read_only(|tx| {
                let x = tx.read(&a)?;
                let y = tx.read(&b)?;
                Ok(x + y)
            });
            assert_eq!(sum, 1000, "read-only transaction saw a torn transfer");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(stm.stats().ro_commits(), 2000);
    }

    #[cfg(feature = "mvcc")]
    #[test]
    fn mvcc_read_only_commits_abort_free() {
        let stm = Stm::builder().mvcc(true).build();
        assert!(stm.is_mvcc());
        let v = TVar::new(0u64);
        for i in 0..16 {
            stm.atomically(|tx| tx.write(&v, i));
            let got = stm.read_only(|tx| tx.read(&v));
            assert_eq!(got, i);
        }
        assert_eq!(stm.stats().ro_commits(), 16);
        assert_eq!(stm.stats().ro_aborts(), 0);
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[cfg(feature = "mvcc")]
    #[test]
    fn mvcc_read_only_that_writes_demotes_to_classic() {
        let stm = Stm::builder().mvcc(true).build();
        let v = TVar::new(1u64);
        // A "read-only" body that writes anyway: the snapshot attempt
        // demotes itself and the classic rerun commits the write.
        let got = stm.read_only(|tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            Ok(x + 1)
        });
        assert_eq!(got, 2);
        assert_eq!(v.snapshot(), 2);
        // Demotion is not charged as a read-only abort.
        assert_eq!(stm.stats().ro_aborts(), 0);
        assert_eq!(stm.stats().ro_commits(), 1);
    }

    #[cfg(feature = "mvcc")]
    #[test]
    fn mvcc_snapshots_observe_invariants_under_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stm = Stm::builder().mvcc(true).build();
        let a = Arc::new(TVar::new(500i64));
        let b = Arc::new(TVar::new(500i64));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stm = stm.clone();
            let (a, b, stop) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut k = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let amount = k % 9 - 4;
                    stm.atomically(|tx| {
                        let x = tx.read(&a)?;
                        let y = tx.read(&b)?;
                        tx.write(&a, x - amount)?;
                        tx.write(&b, y + amount)?;
                        Ok(())
                    });
                    k += 1;
                }
            })
        };
        for _ in 0..2000 {
            let sum = stm.read_only(|tx| {
                let x = tx.read(&a)?;
                let y = tx.read(&b)?;
                Ok(x + y)
            });
            assert_eq!(sum, 1000, "snapshot saw a torn transfer");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(stm.stats().ro_commits(), 2000);
    }

    #[test]
    fn concurrent_invariant_preservation() {
        // Transfer between two cells: the sum must be invariant in every
        // committed state and at the end.
        use std::sync::Arc;
        let stm = Stm::default();
        let a = Arc::new(TVar::new(1000i64));
        let b = Arc::new(TVar::new(1000i64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let stm = stm.clone();
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for k in 0..300 {
                        let amount = ((i * 7 + k) % 13) as i64 - 6;
                        stm.atomically(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            tx.write(&a, x - amount)?;
                            tx.write(&b, y + amount)?;
                            Ok(())
                        });
                        // Concurrent consistent snapshot: the sum seen by
                        // a read-only transaction is always the invariant.
                        let sum = stm.atomically(|tx| {
                            let x = tx.read(&a)?;
                            let y = tx.read(&b)?;
                            Ok(x + y)
                        });
                        assert_eq!(sum, 2000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.snapshot() + b.snapshot(), 2000);
    }
}
