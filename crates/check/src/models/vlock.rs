//! Model of the TL2-style versioned-lock commit protocol.
//!
//! Mirrors `rubic-stm`: each transactional slot carries a versioned
//! lock word (`version << 1 | locked`, as in `crates/stm/src/vlock.rs`)
//! and a value published under it; commits tick a global clock
//! (`crates/stm/src/clock.rs`) between acquiring write locks and
//! releasing them with the new version. The model checks the snapshot
//! validity half of opacity: a reader that samples, reads, and
//! re-validates both slots must observe `x == y` (the writer maintains
//! that invariant transactionally).
//!
//! All orderings are configurable so the mutation self-test can weaken
//! exactly one (the commit release) and assert the checker reports a
//! too-weak-ordering pairing within a bounded budget.
//!
//! [`Reader::ReadOnly`] swaps in TL2's read-only reader
//! (`Stm::read_only` in single-version mode): no read set and no
//! post-read validation, only the rule that each read finds its slot
//! unlocked with `version <= rv`, where the first read alone may extend
//! `rv`. It must see `x == y` too. Its mutation,
//! [`VLockModel::skip_rv_check`], accepts any unlocked version — the
//! reader can then pair `x` from before a commit with `y` from after
//! it, which the checker must catch.

use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::thread;

/// Ordering knobs for the protocol, defaulting to what the production
/// code uses.
#[derive(Debug, Clone, Copy)]
pub struct VLockModel {
    /// Lock-word sample load (`VLock::sample`): `Acquire` in production.
    pub sample: Ordering,
    /// Commit release store (`VLock::release_commit`): `Release` in
    /// production. Weakening this to `Relaxed` is the canonical
    /// mutation — the reader's acquire sample then pairs with a store
    /// that publishes nothing.
    pub release: Ordering,
    /// Global-clock read at transaction begin: `Acquire` in production.
    pub clock_read: Ordering,
    /// The reader protocol run against the committing writer.
    pub reader: Reader,
    /// Mutation of the read-only reader: drop the `version <= rv` check
    /// (a locked slot still aborts). Only [`Reader::ReadOnly`] consults
    /// it.
    pub skip_rv_check: bool,
}

/// Which reader protocol the model checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reader {
    /// The classic reader: sample and read both slots, then validate
    /// the sampled versions (`Transaction::validate`).
    #[default]
    Validating,
    /// TL2's read-only reader: no read set, no validation pass; each
    /// read must see its slot unlocked with `version <= rv`.
    ReadOnly,
}

impl Default for VLockModel {
    fn default() -> Self {
        VLockModel {
            sample: Ordering::Acquire,
            release: Ordering::Release,
            clock_read: Ordering::Acquire,
            reader: Reader::Validating,
            skip_rv_check: false,
        }
    }
}

/// One transactional slot: versioned lock word plus published value.
struct Slot {
    /// `version << 1 | locked`, exactly the `vlock.rs` encoding.
    lock: AtomicU64,
    /// Published value. Relaxed accesses are correct here for the same
    /// reason they are in `tvar.rs`: the versioned-lock protocol
    /// (acquire sample before, validating re-sample after) orders them,
    /// and reads that lose the validation race are discarded.
    val: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            lock: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }
}

const WRITER_TXNS: u64 = 2;
const READER_ATTEMPTS: u32 = 6;

/// Builds the model closure: one committing writer, one reader running
/// `cfg.reader`'s protocol, two slots with the invariant `x == y`.
pub fn model(cfg: VLockModel) -> impl Fn() + Send + Sync + 'static {
    move || {
        let clock = Arc::new(AtomicU64::new(0));
        let x = Arc::new(Slot::new());
        let y = Arc::new(Slot::new());

        let writer = {
            let (clock, x, y) = (Arc::clone(&clock), Arc::clone(&x), Arc::clone(&y));
            thread::spawn(move || {
                for n in 1..=WRITER_TXNS {
                    // Acquire both write locks (uncontended here — the
                    // reader never locks — so a bounded CAS suffices).
                    for slot in [&x, &y] {
                        let cur = slot.lock.load(cfg.sample);
                        assert_eq!(cur & 1, 0, "writer is the only locker");
                        slot.lock
                            // ordering: success Acquire pairs with the
                            // previous commit's release store, as in
                            // `VLock::try_lock`; failure value unused.
                            .compare_exchange(cur, cur | 1, Ordering::Acquire, Ordering::Relaxed)
                            .expect("uncontended lock");
                    }
                    // ordering: AcqRel tick, as `GlobalClock::tick`.
                    let wv = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    // ordering: Relaxed value writes are ordered by the
                    // lock protocol (see `Slot::val`).
                    x.val.store(n, Ordering::Relaxed);
                    y.val.store(n, Ordering::Relaxed);
                    // Release with the new version, as
                    // `VLock::release_commit`.
                    x.lock.store(wv << 1, cfg.release);
                    y.lock.store(wv << 1, cfg.release);
                }
            })
        };

        let reader = {
            let (clock, x, y) = (Arc::clone(&clock), Arc::clone(&x), Arc::clone(&y));
            thread::spawn(move || match cfg.reader {
                Reader::Validating => validating_reader(cfg, &clock, [&x, &y]),
                Reader::ReadOnly => read_only_reader(cfg, &clock, [&x, &y]),
            })
        };

        writer.join().expect("writer");
        reader.join().expect("reader");
    }
}

/// The classic reader: sample/read both slots, then validate.
fn validating_reader(cfg: VLockModel, clock: &AtomicU64, slots: [&Slot; 2]) {
    'attempt: for _ in 0..READER_ATTEMPTS {
        // Transaction begin: snapshot the global clock.
        let rv = clock.load(cfg.clock_read);
        let mut vals = [0u64; 2];
        let mut vers = [0u64; 2];
        for (i, slot) in slots.into_iter().enumerate() {
            let v1 = slot.lock.load(cfg.sample);
            if v1 & 1 == 1 || (v1 >> 1) > rv {
                continue 'attempt; // locked or too new: retry
            }
            // ordering: Relaxed read ordered by the
            // sample/validate pair (see `Slot::val`).
            vals[i] = slot.val.load(Ordering::Relaxed);
            vers[i] = v1;
        }
        // Post-read validation, as `Txn::validate`.
        for (i, slot) in slots.into_iter().enumerate() {
            if slot.lock.load(cfg.sample) != vers[i] {
                continue 'attempt;
            }
        }
        // Snapshot validity (opacity): a validated read set
        // is a consistent cut.
        assert_eq!(
            vals[0], vals[1],
            "validated snapshot is inconsistent: x={} y={} rv={rv}",
            vals[0], vals[1]
        );
    }
    // Attempts are bounded (never retried to success) so
    // every schedule is finite — a reader that loses all
    // its validation races simply observed nothing, which
    // other schedules cover.
}

/// TL2's read-only reader, as `TVarCore::read_at` under
/// `Stm::read_only`: each read samples, loads and re-samples one slot,
/// and must find it unlocked with `version <= rv`. Nothing is recorded
/// and nothing is validated afterwards.
fn read_only_reader(cfg: VLockModel, clock: &AtomicU64, slots: [&Slot; 2]) {
    'attempt: for _ in 0..READER_ATTEMPTS {
        let mut rv = clock.load(cfg.clock_read);
        let mut vals = [0u64; 2];
        for (i, slot) in slots.into_iter().enumerate() {
            // One extension at most per read keeps schedules finite.
            let mut may_extend = i == 0;
            let v1 = loop {
                let v1 = slot.lock.load(cfg.sample);
                if v1 & 1 == 1 {
                    continue 'attempt; // locked: abort (lock-busy)
                }
                if !cfg.skip_rv_check && (v1 >> 1) > rv {
                    if may_extend {
                        // Only the first read may extend: nothing read
                        // earlier needs validating.
                        may_extend = false;
                        rv = clock.load(cfg.clock_read);
                        continue;
                    }
                    continue 'attempt; // too new: abort (read-validation)
                }
                break v1;
            };
            // ordering: Relaxed read ordered by the sample/re-sample
            // pair (see `Slot::val`).
            vals[i] = slot.val.load(Ordering::Relaxed);
            if slot.lock.load(cfg.sample) != v1 {
                continue 'attempt; // a commit raced the read
            }
        }
        assert_eq!(
            vals[0], vals[1],
            "read-only snapshot is inconsistent: x={} y={} rv={rv}",
            vals[0], vals[1]
        );
    }
}
