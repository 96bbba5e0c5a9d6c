//! Commit/abort accounting.
//!
//! Each [`crate::Stm`] instance owns one [`StmStats`]: cache-padded
//! atomic totals updated once per transaction attempt with `Relaxed`
//! ordering. The counters every commit bumps are sharded per thread
//! (see `SHARDS`); the abort-path ones are plain totals. That is
//! deliberately *not* the paper's throughput path —
//! §3.1's thread-local task counters live in `rubic-runtime`, and this
//! module only provides the commit-rate diagnostics the evaluation
//! reports (and the abort-rate visibility useful when tuning contention
//! managers).

use rubic_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

use crate::abort::AbortReason;

/// Shards of the commit-path counters. Every commit bumps three or
/// four counters; as shared totals their cache lines moved between
/// cores on every commit, and a 98 %-lookup tree ran no faster on two
/// workers than on one. Each thread bumps the shard its registration
/// order picks, so up to `SHARDS` threads never share a line, and reads
/// sum the shards.
const SHARDS: usize = 8;

/// One thread-group's share of the commit-path counters.
#[derive(Debug, Default)]
struct CommitShard {
    commits: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Commits by [`crate::Stm::read_only`] transactions (a subset of
    /// `commits`). Unconditional — a plain counter is cheaper than a
    /// cfg'd hole in the snapshot type.
    ro_commits: AtomicU64,
}

/// Cumulative transaction statistics for one [`crate::Stm`] instance.
#[derive(Debug, Default)]
pub struct StmStats {
    shards: [CachePadded<CommitShard>; SHARDS],
    aborts: CachePadded<AtomicU64>,
    /// Aborts broken down by [`AbortReason`], indexed by reason code.
    /// One shared cache line: reason counters are bumped on the abort
    /// path only, where a miss is already amortised by the backoff.
    by_reason: [AtomicU64; AbortReason::COUNT],
    /// Aborted attempts inside `read_only` (a subset of `aborts`).
    ro_aborts: CachePadded<AtomicU64>,
    /// Read-only transactions demoted to the classic validated
    /// protocol: a body that wrote, or repeated read-only aborts.
    /// Unconditional for the same reason as `ro_commits`: a plain
    /// counter beats a cfg'd hole in the snapshot type.
    snap_demotions: CachePadded<AtomicU64>,
}

impl StmStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        StmStats::default()
    }

    // ordering: pure monotonic counters — no reader derives ownership
    // or publication from them, so Relaxed increments suffice.
    #[inline]
    pub(crate) fn record_commit(&self, reads: u64, writes: u64, read_only: bool) {
        let shard = &self.shards[thread_shard()];
        shard.commits.fetch_add(1, Ordering::Relaxed);
        shard.reads.fetch_add(reads, Ordering::Relaxed);
        shard.writes.fetch_add(writes, Ordering::Relaxed);
        if read_only {
            shard.ro_commits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sums one commit-path counter over the shards.
    fn sum(&self, counter: impl Fn(&CommitShard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed)) // ordering: monitoring read of a counter
            .sum()
    }

    // ordering: same counter discipline as `record_commit`.
    #[inline]
    pub(crate) fn record_abort(&self, reason: AbortReason) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
        self.by_reason[reason.code() as usize].fetch_add(1, Ordering::Relaxed);
    }

    // ordering: same counter discipline as `record_commit`.
    #[inline]
    pub(crate) fn record_ro_abort(&self) {
        self.ro_aborts.fetch_add(1, Ordering::Relaxed);
    }

    // ordering: same counter discipline as `record_commit`.
    #[inline]
    pub(crate) fn record_snap_demotion(&self) {
        self.snap_demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Total committed transactions.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.sum(|s| &s.commits)
    }

    /// Total aborted attempts.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed) // ordering: monitoring read of a counter
    }

    /// Aborts attributed to one [`AbortReason`].
    #[must_use]
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        // ordering: monitoring read of a counter
        self.by_reason[reason.code() as usize].load(Ordering::Relaxed)
    }

    /// The full abort breakdown, indexed by reason code. The entries sum
    /// to [`aborts`](Self::aborts) (up to relaxed-load skew while other
    /// threads are mid-abort).
    #[must_use]
    pub fn aborts_by_reason(&self) -> [u64; AbortReason::COUNT] {
        let mut out = [0; AbortReason::COUNT];
        for (slot, counter) in out.iter_mut().zip(&self.by_reason) {
            *slot = counter.load(Ordering::Relaxed); // ordering: monitoring read
        }
        out
    }

    /// Total transactional reads performed by committed transactions.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.sum(|s| &s.reads)
    }

    /// Total transactional writes performed by committed transactions.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.sum(|s| &s.writes)
    }

    /// Commits by [`crate::Stm::read_only`] transactions (a subset of
    /// [`commits`](Self::commits)).
    #[must_use]
    pub fn ro_commits(&self) -> u64 {
        self.sum(|s| &s.ro_commits)
    }

    /// Aborted attempts inside [`crate::Stm::read_only`] (a subset of
    /// [`aborts`](Self::aborts)).
    #[must_use]
    pub fn ro_aborts(&self) -> u64 {
        self.ro_aborts.load(Ordering::Relaxed) // ordering: monitoring read of a counter
    }

    /// Read-only transactions that fell back to the classic validated
    /// protocol.
    #[must_use]
    pub fn snap_demotions(&self) -> u64 {
        self.snap_demotions.load(Ordering::Relaxed) // ordering: monitoring read of a counter
    }

    /// Fraction of attempts that aborted: `aborts / (commits + aborts)`.
    /// `0.0` before any attempt finishes.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let c = self.commits();
        let a = self.aborts();
        if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        }
    }

    /// Takes a point-in-time snapshot (the individual loads are relaxed
    /// and not mutually atomic; fine for monitoring).
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits(),
            aborts: self.aborts(),
            reads: self.reads(),
            writes: self.writes(),
            abort_reasons: self.aborts_by_reason(),
            ro_commits: self.ro_commits(),
            ro_aborts: self.ro_aborts(),
            snap_demotions: self.snap_demotions(),
        }
    }
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Reads by committed transactions.
    pub reads: u64,
    /// Writes by committed transactions.
    pub writes: u64,
    /// Aborts by [`AbortReason`], indexed by reason code.
    pub abort_reasons: [u64; AbortReason::COUNT],
    /// Commits by read-only transactions (a subset of `commits`).
    pub ro_commits: u64,
    /// Aborted attempts inside read-only transactions (a subset of
    /// `aborts`).
    pub ro_aborts: u64,
    /// Read-only transactions demoted to the classic protocol.
    pub snap_demotions: u64,
}

impl StatsSnapshot {
    /// Element-wise difference (`self` must be the later snapshot); used
    /// to compute per-interval commit rates.
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut abort_reasons = [0; AbortReason::COUNT];
        for ((slot, &now), &then) in abort_reasons
            .iter_mut()
            .zip(&self.abort_reasons)
            .zip(&earlier.abort_reasons)
        {
            *slot = now.saturating_sub(then);
        }
        StatsSnapshot {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            abort_reasons,
            ro_commits: self.ro_commits.saturating_sub(earlier.ro_commits),
            ro_aborts: self.ro_aborts.saturating_sub(earlier.ro_aborts),
            snap_demotions: self.snap_demotions.saturating_sub(earlier.snap_demotions),
        }
    }
}

thread_local! {
    /// Aborts experienced by *this thread* since the last drain — the
    /// runtime's per-worker abort attribution (mirrors the paper's
    /// thread-local task counters: no shared-memory traffic on the hot
    /// path, the monitor drains at interval boundaries).
    static THREAD_ABORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Next shard to hand to a thread's first commit.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's [`CommitShard`] index (`usize::MAX` until its
    /// first commit).
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's shard index, assigned round-robin on first use.
#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            // ordering: a ticket counter; only uniqueness matters.
            i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(i);
        }
        i
    })
}

#[inline]
pub(crate) fn note_thread_abort() {
    THREAD_ABORTS.with(|c| c.set(c.get() + 1));
}

/// Returns and resets the calling thread's abort count (aborts observed
/// by any [`crate::Stm`] on this thread since the previous call).
/// Worker loops call this once per task so the pool can account aborts
/// per worker and per monitoring interval.
#[must_use]
pub fn take_thread_aborts() -> u64 {
    THREAD_ABORTS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = StmStats::new();
        s.record_commit(3, 1, false);
        s.record_commit(2, 0, true);
        s.record_abort(AbortReason::LockBusy);
        assert_eq!(s.commits(), 2);
        assert_eq!(s.aborts(), 1);
        assert_eq!(s.reads(), 5);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.ro_commits(), 1);
    }

    #[test]
    fn abort_rate() {
        let s = StmStats::new();
        assert_eq!(s.abort_rate(), 0.0);
        s.record_commit(0, 0, false);
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::LockBusy);
        s.record_commit(0, 0, false);
        assert!((s.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_delta() {
        let s = StmStats::new();
        s.record_commit(1, 1, false);
        let a = s.snapshot();
        s.record_commit(1, 1, false);
        s.record_abort(AbortReason::Chaos);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts, 1);
        assert_eq!(d.abort_reasons[AbortReason::Chaos.code() as usize], 1);
        assert_eq!(d.abort_reasons.iter().sum::<u64>(), 1);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let s = StmStats::new();
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::LockBusy);
        s.record_abort(AbortReason::Explicit);
        assert_eq!(s.aborts(), 4);
        let by = s.aborts_by_reason();
        assert_eq!(by.iter().sum::<u64>(), s.aborts());
        assert_eq!(s.aborts_for(AbortReason::ReadValidation), 2);
        assert_eq!(s.aborts_for(AbortReason::LockBusy), 1);
        assert_eq!(s.aborts_for(AbortReason::CmKill), 0);
        assert_eq!(s.aborts_for(AbortReason::Explicit), 1);
    }

    #[test]
    fn concurrent_updates_sum() {
        use std::sync::Arc;
        let s = Arc::new(StmStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_commit(1, 0, false);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.commits(), 4000);
        assert_eq!(s.reads(), 4000);
    }
}
