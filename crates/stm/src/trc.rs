//! Feature-gated bridge to `rubic-trace`.
//!
//! With the **`trace`** feature on, the engine emits structured events
//! (transaction lifecycle, lock hold times, clock extensions) through
//! [`rubic_trace::emit`]; each emit is still gated at runtime on an
//! active trace session, so even a `trace` build pays only a relaxed
//! atomic load per site while no session records.
//!
//! With the feature off, everything here is a zero-sized no-op and the
//! call sites compile away entirely — [`crate::trace_footprint`] lets
//! tests assert the per-transaction state really is 0 bytes.

use crate::abort::AbortReason;

#[cfg(feature = "trace")]
pub(crate) use enabled::*;

#[cfg(not(feature = "trace"))]
pub(crate) use disabled::*;

/// Per-transaction trace state carried by the retry loop: timestamps of
/// the transaction's first attempt and of the current attempt, so commit
/// latency (begin→commit) and per-attempt abort latency can be derived
/// without touching the clock when tracing is inactive.
#[cfg(feature = "trace")]
mod enabled {
    use super::AbortReason;
    use rubic_trace::{emit, is_enabled, now_ns, EventKind};

    /// Timestamp bundle for one `atomically` call.
    pub(crate) struct TxTrace {
        /// When the first attempt started (0 when no session was active
        /// at begin — such transactions stay invisible to the trace).
        begin_ns: u64,
        /// When the current attempt started.
        attempt_ns: u64,
        /// When the current attempt aborted (feeds restart latency).
        abort_ns: u64,
    }

    impl TxTrace {
        #[inline]
        pub(crate) fn begin() -> TxTrace {
            if !is_enabled() {
                return TxTrace {
                    begin_ns: 0,
                    attempt_ns: 0,
                    abort_ns: 0,
                };
            }
            let now = now_ns();
            emit(EventKind::TxnBegin, 0, 0, 0, 0);
            TxTrace {
                begin_ns: now,
                attempt_ns: now,
                abort_ns: 0,
            }
        }

        #[inline]
        pub(crate) fn on_commit(&self, reads: u64, writes: u64, attempts: u32) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            emit(
                EventKind::TxnCommit,
                0,
                now_ns().saturating_sub(self.begin_ns),
                (reads << 32) | (writes & 0xFFFF_FFFF),
                u64::from(attempts),
            );
        }

        #[inline]
        pub(crate) fn on_abort(&mut self, reason: AbortReason, attempt: u32, addr: usize) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            let now = now_ns();
            emit(
                EventKind::TxnAbort,
                reason.code(),
                now.saturating_sub(self.attempt_ns),
                u64::from(attempt),
                addr as u64,
            );
            if addr != 0 {
                // Conflict attribution: feed the per-thread space-saving
                // sketch with the culprit TVar's lock identity.
                rubic_trace::note_conflict(addr as u64, reason.code());
            }
            self.abort_ns = now;
        }

        #[inline]
        pub(crate) fn on_restart(&mut self, attempt: u32) {
            if self.begin_ns == 0 || !is_enabled() {
                return;
            }
            let now = now_ns();
            emit(
                EventKind::TxnRestart,
                0,
                now.saturating_sub(self.abort_ns),
                u64::from(attempt),
                0,
            );
            self.attempt_ns = now;
        }
    }

    /// Current trace timestamp, or 0 when no session records (callers
    /// use 0 as "don't measure").
    #[inline]
    pub(crate) fn stamp() -> u64 {
        if is_enabled() {
            now_ns()
        } else {
            0
        }
    }

    /// Emits a `LockHold` event for a lock held since `locked_at`
    /// (skipped when the lock was taken outside a session).
    #[inline]
    pub(crate) fn lock_hold(locked_at: u64, addr: usize, on_abort: bool) {
        if locked_at == 0 || !is_enabled() {
            return;
        }
        emit(
            EventKind::LockHold,
            u8::from(on_abort),
            now_ns().saturating_sub(locked_at),
            addr as u64,
            0,
        );
    }

    /// Emits a `ClockExtend` event after a successful extension.
    #[inline]
    pub(crate) fn clock_extend(old_rv: u64, new_rv: u64) {
        if is_enabled() {
            emit(EventKind::ClockExtend, 0, old_rv, new_rv, 0);
        }
    }

    /// Emits a `SnapshotRead` event: an mvcc snapshot read resolved
    /// through the version chain (no caller in non-mvcc builds).
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn snapshot_read(rv: u64, stamp: u64) {
        if is_enabled() {
            emit(EventKind::SnapshotRead, 0, rv, stamp, 0);
        }
    }

    /// Emits a `VersionPrune` event: a writing commit drained
    /// reclaimable entries from a version chain (no caller in non-mvcc
    /// builds).
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn version_prune(addr: usize, dropped: u64, min_active: u64) {
        if is_enabled() {
            emit(EventKind::VersionPrune, 0, addr as u64, dropped, min_active);
        }
    }

    /// Emits a `SnapPin` event: a snapshot transaction pinned `rv` in
    /// registry slot `slot` (no caller in non-mvcc builds).
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn snap_pin(rv: u64, slot: usize) {
        if is_enabled() {
            emit(EventKind::SnapPin, 0, rv, slot as u64, 0);
        }
    }

    /// Emits a `SnapExtend` event: a chain overflow forced a snapshot
    /// to re-pin from `old_rv` to `new_rv`; `addr` identifies the
    /// variable whose bounded chain dropped the needed version (no
    /// caller in non-mvcc builds).
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn snap_extend(old_rv: u64, new_rv: u64, addr: usize) {
        if is_enabled() {
            emit(EventKind::SnapExtend, 0, old_rv, new_rv, addr as u64);
        }
    }

    /// Emits a `SnapDemote` event: a read-only transaction (snapshot or
    /// single-version) fell back to the classic validated protocol.
    /// `code` 0 = read-only fallback (repeated aborts or registry
    /// exhaustion), 1 = the body wrote; `addr` names the written
    /// variable in the write case.
    #[inline]
    pub(crate) fn snap_demote(code: u8, rv: u64, addr: usize) {
        if is_enabled() {
            emit(EventKind::SnapDemote, code, rv, 0, addr as u64);
        }
    }
}

#[cfg(not(feature = "trace"))]
mod disabled {
    use super::AbortReason;

    /// Zero-sized stand-in: every method compiles to nothing.
    pub(crate) struct TxTrace;

    impl TxTrace {
        #[inline(always)]
        pub(crate) fn begin() -> TxTrace {
            TxTrace
        }

        #[inline(always)]
        pub(crate) fn on_commit(&self, _reads: u64, _writes: u64, _attempts: u32) {}

        #[inline(always)]
        pub(crate) fn on_abort(&mut self, _reason: AbortReason, _attempt: u32, _addr: usize) {}

        #[inline(always)]
        pub(crate) fn on_restart(&mut self, _attempt: u32) {}
    }

    // `stamp`/`lock_hold` have no callers in a no-trace build (their
    // call sites are cfg-gated out alongside the `locked_at` field they
    // read); kept so the shim's surface matches the enabled module.
    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn stamp() -> u64 {
        0
    }

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn lock_hold(_locked_at: u64, _addr: usize, _on_abort: bool) {}

    #[inline(always)]
    pub(crate) fn clock_extend(_old_rv: u64, _new_rv: u64) {}

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn snapshot_read(_rv: u64, _stamp: u64) {}

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn version_prune(_addr: usize, _dropped: u64, _min_active: u64) {}

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn snap_pin(_rv: u64, _slot: usize) {}

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn snap_extend(_old_rv: u64, _new_rv: u64, _addr: usize) {}

    #[inline(always)]
    #[allow(dead_code)]
    pub(crate) fn snap_demote(_code: u8, _rv: u64, _addr: usize) {}
}

/// Size in bytes of the per-transaction trace state. **0 when the
/// `trace` feature is off** — the no-op recorder is a ZST and the
/// instrumentation carries no data; a feature-gated test in the
/// workspace root pins this guarantee.
#[must_use]
pub fn trace_footprint() -> usize {
    std::mem::size_of::<TxTrace>()
}
