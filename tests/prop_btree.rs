//! Property-based and concurrency tests for the per-node transactional
//! B-tree (`rubic::workloads::TBTreeMap`): sequential equivalence
//! against `std::collections::BTreeMap`, agreement with the
//! snapshot-cell backend on identical op streams, linearizability of
//! concurrent histories, and structural invariants (occupancy, key
//! ordering, uniform leaf depth) surviving chaos-injected aborts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rubic::stm::Stm;
use rubic::workloads::{TBTreeMap, TMap, TOrdMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    UpdateOr(u64, u64),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k % 300, v)),
        any::<u64>().prop_map(|k| MapOp::Remove(k % 300)),
        any::<u64>().prop_map(|k| MapOp::Get(k % 300)),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| MapOp::UpdateOr(k % 300, v % 1000)),
    ]
}

/// Applies one op to a `TOrdMap` backend, returning what the op
/// observed (for oracle comparison).
fn apply<M: TOrdMap<u64, u64>>(stm: &Stm, map: &M, op: &MapOp) -> Option<u64> {
    match *op {
        MapOp::Insert(k, v) => stm.atomically(|tx| map.insert(tx, k, v)),
        MapOp::Remove(k) => stm.atomically(|tx| map.remove(tx, &k)),
        MapOp::Get(k) => stm.atomically(|tx| map.get(tx, &k)),
        MapOp::UpdateOr(k, v) => Some(stm.atomically(|tx| map.update_or(tx, k, v, |cur| cur + v))),
    }
}

/// Applies one op to the `BTreeMap` oracle with the same semantics.
fn apply_oracle(model: &mut BTreeMap<u64, u64>, op: &MapOp) -> Option<u64> {
    match *op {
        MapOp::Insert(k, v) => model.insert(k, v),
        MapOp::Remove(k) => model.remove(&k),
        MapOp::Get(k) => model.get(&k).copied(),
        MapOp::UpdateOr(k, v) => {
            let new = model.get(&k).map_or(v, |cur| cur + v);
            model.insert(k, new);
            Some(new)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequentially, the B-tree is observationally a
    /// `std::collections::BTreeMap`, and its structural invariants
    /// (node occupancy, strict key ordering, uniform leaf depth) hold
    /// after every operation — including through the splits and merges
    /// a 300-key churn forces at fanout 16.
    #[test]
    fn tbtree_matches_btreemap(ops in proptest::collection::vec(map_op(), 1..400)) {
        let stm = Stm::default();
        let map: TBTreeMap<u64, u64> = TBTreeMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            let got = apply(&stm, &map, op);
            let expected = apply_oracle(&mut model, op);
            prop_assert_eq!(got, expected);
            match map.check_invariants() {
                Ok(len) => prop_assert_eq!(len, model.len()),
                Err(e) => prop_assert!(false, "invariant violated: {}", e),
            }
        }
        let entries = map.snapshot_entries();
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(entries, expected);
    }

    /// The snapshot-cell map and the per-node B-tree agree op-for-op on
    /// identical streams: same return values, same final contents. This
    /// is the drop-in-backend contract the stmbench `structure` axis
    /// relies on.
    #[test]
    fn backends_agree_on_identical_streams(ops in proptest::collection::vec(map_op(), 1..250)) {
        let stm = Stm::default();
        let snap: TMap<u64, u64> = TOrdMap::empty();
        let btree: TBTreeMap<u64, u64> = TBTreeMap::new();
        for op in &ops {
            let a = apply(&stm, &snap, op);
            let b = apply(&stm, &btree, op);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(snap.snapshot_entries(), btree.snapshot_entries());
    }
}

/// Linearizability of concurrent histories, counter-style: every
/// committed `update_or` increment must be reflected exactly once in
/// the final state, regardless of interleaving, splits, or aborted
/// attempts. Four threads hammer overlapping key ranges; per-key sums
/// must equal the per-key totals each thread committed.
#[test]
fn concurrent_increments_linearize() {
    const THREADS: u64 = 4;
    const OPS: u64 = 300;
    const KEYS: u64 = 64;
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                // xorshift stream, distinct per thread.
                let mut x = 0x9E37_79B9u64 ^ (t + 1);
                let mut local = vec![0u64; KEYS as usize];
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEYS;
                    let inc = (x >> 32) % 5 + 1;
                    // `atomically` retries to commit, so each call
                    // lands exactly once.
                    stm.atomically(|tx| map.update_or(tx, key, inc, |cur| cur + inc));
                    local[key as usize] += inc;
                }
                local
            })
        })
        .collect();
    let mut expected = vec![0u64; KEYS as usize];
    for h in handles {
        for (k, sum) in h.join().expect("worker").into_iter().enumerate() {
            expected[k] += sum;
        }
    }
    let entries = map.snapshot_entries();
    map.check_invariants().expect("btree invariants");
    for (k, &sum) in expected.iter().enumerate() {
        let got = entries
            .iter()
            .find(|(key, _)| *key == k as u64)
            .map_or(0, |(_, v)| *v);
        assert_eq!(got, sum, "key {k}: committed increments lost or duplicated");
    }
}

/// Concurrent inserts over disjoint ranges all land and the structure
/// stays a valid B-tree — the per-node footprint must not lose sibling
/// subtrees to racing splits.
#[test]
fn concurrent_disjoint_inserts_all_land() {
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let stm = stm.clone();
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for i in 0..250 {
                    let key = t * 1000 + i;
                    stm.atomically(|tx| map.insert(tx, key, key));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_eq!(map.check_invariants(), Ok(1000));
}

/// Chaos-injected aborts (the STM's deterministic fault hook) must
/// never leave a half-applied split or merge visible: after a
/// multi-threaded churn under injected aborts and commit-point kills,
/// the tree still satisfies every structural invariant and contains
/// exactly the keys whose transactions committed.
///
/// Serialised via a local mutex: the chaos hook is process-global.
#[test]
fn invariants_survive_chaos_aborts() {
    use rubic_stm::chaos::{install, SeededChaos};
    static SERIAL: Mutex<()> = Mutex::new(());
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    {
        let _chaos = install(Arc::new(SeededChaos::new(0x0B7E_E5EED)));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let stm = stm.clone();
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let mut x = 0xDEAD_BEEFu64 ^ (t << 17 | 1);
                    for _ in 0..400 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 200;
                        if x & 0b100 == 0 {
                            stm.atomically(|tx| map.insert(tx, key, x));
                        } else {
                            stm.atomically(|tx| map.remove(tx, &key));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    }
    // Hook dropped: verify structure with clean reads.
    let len = map.check_invariants().expect("invariants under chaos");
    assert_eq!(len, map.snapshot_entries().len());
    let entries = map.snapshot_entries();
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "entries must be strictly sorted"
    );
}

/// Declared read-only lookups on the B-tree commit abort-free under
/// mvcc snapshot mode even while writers force splits and merges: the
/// snapshot pins every node version on the descent path.
#[cfg(feature = "mvcc")]
#[test]
fn mvcc_read_only_descents_are_abort_free() {
    let stm = Stm::builder().mvcc(true).build();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    for k in 0..128 {
        stm.atomically(|tx| map.insert(tx, k, k));
    }
    let before = stm.stats().snapshot();
    let writer = {
        let stm = stm.clone();
        let map = Arc::clone(&map);
        std::thread::spawn(move || {
            for k in 128..600 {
                stm.atomically(|tx| map.insert(tx, k, k));
                stm.atomically(|tx| map.remove(tx, &(k - 100)));
            }
        })
    };
    for round in 0..600u64 {
        let key = round % 128;
        // Keys 0..28 are never removed (writer deletes 28..500).
        let got = stm.read_only(|tx| map.get(tx, &(key % 28)));
        assert_eq!(got, Some(key % 28));
    }
    writer.join().expect("writer");
    let delta = stm.stats().snapshot().delta_since(&before);
    assert!(delta.ro_commits >= 600, "read-only lookups should commit");
    assert_eq!(delta.ro_aborts, 0, "mvcc descents must be abort-free");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Read-your-writes through the borrowed descent: keys inserted
    /// earlier in the same transaction are found by `get`/`contains`
    /// even after later inserts split the leaves (and the root) that
    /// first held them — the descent then walks nodes whose newest
    /// version is this transaction's own pending write.
    #[test]
    fn get_reads_own_inserts_across_splits(
        prefill in proptest::collection::btree_set(0u64..4096, 0..200),
        batch in proptest::collection::vec(0u64..4096, 40..160),
    ) {
        let stm = Stm::default();
        let map: TBTreeMap<u64, u64> = TBTreeMap::new();
        for &k in &prefill {
            stm.atomically(|tx| map.insert(tx, k, k));
        }
        let (_, depth_before) = map.check_shape().expect("prefill invariants");
        let mut model: BTreeMap<u64, u64> = prefill.iter().map(|&k| (k, k)).collect();
        for &k in &batch {
            model.insert(k, k + 1);
        }
        let all_found = stm.atomically(|tx| {
            let mut seen = Vec::new();
            for &k in &batch {
                map.insert(tx, k, k + 1)?;
                seen.push(k);
                // Every key inserted so far must already be visible,
                // wherever a split since moved it.
                for &s in &seen {
                    if map.get(tx, &s)? != Some(s + 1) || !map.contains(tx, &s)? {
                        return Ok(false);
                    }
                }
            }
            for (&k, &v) in &model {
                if map.get(tx, &k)? != Some(v) {
                    return Ok(false);
                }
            }
            Ok(true)
        });
        prop_assert!(all_found, "a key inserted in this transaction was missed");
        let (len, depth_after) = map.check_shape().expect("btree invariants");
        prop_assert_eq!(len, model.len());
        prop_assert!(depth_after >= depth_before);
    }
}

/// Read-only lookups (no read set, borrowed descent) of keys that are
/// always present never miss while writers split and merge the nodes
/// around them.
#[test]
fn read_only_lookups_never_miss_during_splits_and_merges() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const KEYS: u64 = 1024;
    let stm = Stm::default();
    let map: Arc<TBTreeMap<u64, u64>> = Arc::new(TBTreeMap::new());
    // Even keys stay present throughout; odd keys churn in bursts, so
    // runs of inserts split leaves and runs of removals merge them.
    for k in (0..KEYS).step_by(2) {
        stm.atomically(|tx| map.insert(tx, k, k * 10));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let (stm, map, stop) = (stm.clone(), Arc::clone(&map), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let base = ((round * 2 + t) * 97 % (KEYS / 128)) * 128;
                    for k in (base + 1..base + 128).step_by(2) {
                        stm.atomically(|tx| map.insert(tx, k, k));
                    }
                    for k in (base + 1..base + 128).step_by(2) {
                        stm.atomically(|tx| map.remove(tx, &k));
                    }
                    round += 1;
                }
            })
        })
        .collect();
    let before = stm.stats().snapshot();
    for i in 0..20_000u64 {
        let key = (i * 7919 % (KEYS / 2)) * 2;
        let got = stm.read_only(|tx| map.get(tx, &key));
        assert_eq!(got, Some(key * 10), "read-only lookup missed key {key}");
        assert!(
            stm.read_only(|tx| map.contains(tx, &key)),
            "contains missed {key}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
    let delta = stm.stats().snapshot().delta_since(&before);
    assert!(delta.ro_commits >= 40_000);
    assert!(
        delta.commits > delta.ro_commits,
        "the writers must have run"
    );
    map.check_shape().expect("btree invariants after churn");
}
