//! Checkable ports of the workspace's riskiest protocols.
//!
//! These are *models*: faithful re-statements of a protocol against
//! [`crate::sync`] primitives, small enough for the checker to explore.
//! Two of the four protocols named in the verification plan live here
//! because they need knobs (orderings, drain thresholds) the production
//! code rightly does not expose:
//!
//! * [`vlock`] — the TL2-style versioned-lock + global-clock commit
//!   protocol from `rubic-stm` (`vlock.rs` / `clock.rs` / `tvar.rs`),
//!   with every memory ordering configurable so the mutation self-test
//!   can weaken one and assert the checker catches it. Its read-only
//!   reader (TL2's `Stm::read_only` path: no read set, `version <= rv`
//!   per read) has its own mutation, which drops the `rv` check.
//! * [`epoch`] — the pin / retire / prefix-drain protocol of the
//!   vendored `crossbeam-epoch`-style reclamation, instance-based so
//!   executions are independent, with the drain threshold configurable
//!   to demonstrate premature-free detection.
//! * [`mvcc`] — the multi-version snapshot protocol layered on the
//!   vlock model (`rubic-stm --features mvcc`): version chains, the
//!   snapshot-timestamp registry's SC-fence handshake, and prefix-drain
//!   pruning, with the retention rule configurable so the mutation
//!   self-test can prune early and assert the checker catches it.
//! * [`btree`] — the per-node B-tree's split/merge discipline from
//!   `rubic-workloads` (`btree/mod.rs`): a structural change rewrites
//!   parent routing and both children in *one* commit, and a TL2-style
//!   validated descent must never lose a key that was only moved. The
//!   mutation splits across two commits and the checker must catch the
//!   torn lookup.
//!
//! The other two protocols (`rubic-runtime`'s semaphore admission and
//! sharded-queue accounting) are exercised directly on the production
//! types — they need no knobs — from `crates/check/tests/models.rs`
//! under `--cfg rubic_check`.

pub mod btree;
pub mod epoch;
pub mod mvcc;
pub mod vlock;
