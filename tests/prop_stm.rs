//! Property-based tests for the STM: sequential equivalence against a
//! plain model, atomicity of arbitrary multi-variable updates, and
//! snapshot-consistency invariants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rubic::prelude::*;

#[derive(Debug, Clone)]
enum TxOp {
    Read(usize),
    Write(usize, i64),
    Add(usize, i64),
}

fn tx_op(n_vars: usize) -> impl Strategy<Value = TxOp> {
    prop_oneof![
        (0..n_vars).prop_map(TxOp::Read),
        (0..n_vars, -100i64..100).prop_map(|(i, v)| TxOp::Write(i, v)),
        (0..n_vars, -100i64..100).prop_map(|(i, v)| TxOp::Add(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-threaded sequence of transactions over TVars behaves
    /// exactly like the same operations on a plain array.
    #[test]
    fn sequential_equivalence(
        txs in proptest::collection::vec(
            proptest::collection::vec(tx_op(8), 1..12),
            1..40,
        ),
    ) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(0)).collect();
        let mut model = [0i64; 8];
        for ops in txs {
            // Run the whole op list as ONE transaction against the STM
            // and as direct updates against the model.
            stm.atomically(|tx| {
                for op in &ops {
                    match *op {
                        TxOp::Read(i) => {
                            let _ = tx.read(&vars[i])?;
                        }
                        TxOp::Write(i, v) => tx.write(&vars[i], v)?,
                        TxOp::Add(i, v) => tx.modify(&vars[i], |x| x + v)?,
                    }
                }
                Ok(())
            });
            for op in &ops {
                match *op {
                    TxOp::Read(_) => {}
                    TxOp::Write(i, v) => model[i] = v,
                    TxOp::Add(i, v) => model[i] += v,
                }
            }
            for (var, expected) in vars.iter().zip(&model) {
                prop_assert_eq!(var.snapshot(), *expected);
            }
        }
        prop_assert_eq!(stm.stats().aborts(), 0, "single thread must never abort");
    }

    /// Atomicity under concurrency: every transaction applies a
    /// zero-sum delta vector, so the total is invariant no matter how
    /// the schedules interleave.
    #[test]
    fn zero_sum_updates_preserve_total(
        deltas in proptest::collection::vec((-50i64..50, 0usize..6, 0usize..6), 10..60),
    ) {
        let stm = Stm::default();
        let vars: Arc<Vec<TVar<i64>>> = Arc::new((0..6).map(|_| TVar::new(1000)).collect());
        let chunks: Vec<Vec<(i64, usize, usize)>> =
            deltas.chunks(10).map(<[(i64, usize, usize)]>::to_vec).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let stm = stm.clone();
                let vars = Arc::clone(&vars);
                std::thread::spawn(move || {
                    for (amount, from, to) in chunk {
                        stm.atomically(|tx| {
                            tx.modify(&vars[from], |x| x - amount)?;
                            tx.modify(&vars[to], |x| x + amount)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = vars.iter().map(TVar::snapshot).sum();
        prop_assert_eq!(total, 6000);
    }

    /// Write-then-read inside one transaction always observes the
    /// pending value, for arbitrary interleavings of ops.
    #[test]
    fn read_your_writes_always(ops in proptest::collection::vec((0usize..4, any::<i64>()), 1..30)) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(-1)).collect();
        stm.atomically(|tx| {
            let mut pending: [Option<i64>; 4] = [None; 4];
            for &(i, v) in &ops {
                tx.write(&vars[i], v)?;
                pending[i] = Some(v);
                for (j, p) in pending.iter().enumerate() {
                    let seen = tx.read(&vars[j])?;
                    let expected = p.unwrap_or(-1);
                    if seen != expected {
                        return Err(StmError::Conflict); // fail loudly via assert below
                    }
                }
            }
            Ok(())
        });
        // Reaching here means the closure committed on its first try
        // (no other threads), so all read-your-writes checks passed.
        prop_assert_eq!(stm.stats().commits(), 1);
    }
}

// ---------------------------------------------------------------------
// Hot-path fast-path properties: the access-set index switches from a
// linear-scanned small set to a hashed (spilled) representation past 16
// distinct locations, and aborted attempts recycle their allocations.
// These properties pin the engine's observable behaviour across both
// representations and across retries. The transactions are driven by
// hand (`begin_unmanaged`, test-only `chaos` feature) so a single case
// can commit one footprint and abort another deterministically.
// ---------------------------------------------------------------------

use rubic_stm::Transaction;

/// Applies `ops` to a fresh transaction over `vars`, checking
/// read-your-writes and duplicate-read agreement at every step, and
/// returns the model state the commit should publish.
fn apply_ops(
    tx: &mut Transaction,
    vars: &[TVar<i64>],
    ops: &[(usize, Option<i64>)],
) -> Vec<Option<i64>> {
    let mut pending: Vec<Option<i64>> = vec![None; vars.len()];
    for &(i, write) in ops {
        let i = i % vars.len();
        match write {
            Some(v) => {
                tx.write(&vars[i], v).unwrap();
                pending[i] = Some(v);
            }
            None => {
                let seen = tx.read(&vars[i]).unwrap();
                let expected = pending[i].unwrap_or(i as i64);
                assert_eq!(seen, expected, "read-your-writes / stable read violated");
                // Duplicate read must agree with the first one.
                assert_eq!(tx.read(&vars[i]).unwrap(), expected);
            }
        }
    }
    pending
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Commit and abort behave identically whether the access-set index
    /// is in its small-set (linear scan) or spilled (hashed)
    /// representation: commit publishes exactly the model state, abort
    /// publishes nothing and leaks no lock.
    #[test]
    fn commit_abort_equivalence_across_index_representations(
        n_vars in 2usize..48,
        ops in proptest::collection::vec(
            (0usize..48, proptest::option::of(-1000i64..1000)),
            1..96,
        ),
        commit in any::<bool>(),
    ) {
        let vars: Vec<TVar<i64>> = (0..n_vars).map(|i| TVar::new(i as i64)).collect();
        let mut tx = Transaction::begin_unmanaged();
        let pending = apply_ops(&mut tx, &vars, &ops);
        if commit {
            tx.commit_unmanaged().unwrap();
            for (i, var) in vars.iter().enumerate() {
                prop_assert_eq!(var.snapshot(), pending[i].unwrap_or(i as i64));
            }
        } else {
            tx.abort_unmanaged();
            for (i, var) in vars.iter().enumerate() {
                prop_assert_eq!(var.snapshot(), i as i64, "abort must not publish");
            }
        }
        // Either way every lock must be free again: a fresh writer can
        // take any variable without conflict.
        let mut probe = Transaction::begin_unmanaged();
        for var in &vars {
            probe.write(var, -7).unwrap();
        }
        probe.abort_unmanaged();
    }

    /// A retry that replays the same footprint allocates nothing: the
    /// abort parks every slot and handle on the spare lists, and the
    /// replay drains them back without growing any capacity.
    #[test]
    fn retry_replay_allocates_nothing(
        n_vars in 1usize..40,
        ops in proptest::collection::vec(
            (0usize..40, proptest::option::of(-1000i64..1000)),
            1..80,
        ),
    ) {
        let vars: Vec<TVar<i64>> = (0..n_vars).map(|i| TVar::new(i as i64)).collect();
        let mut tx = Transaction::begin_unmanaged();
        apply_ops(&mut tx, &vars, &ops);
        let live_reads = tx.read_set_len();
        let live_writes = tx.write_set_len();
        tx.abort_unmanaged();
        let parked = tx.footprint();
        prop_assert_eq!(parked.spare_read_handles, live_reads);
        prop_assert_eq!(parked.spare_write_slots, live_writes);

        tx.restart_unmanaged();
        apply_ops(&mut tx, &vars, &ops);
        let replayed = tx.footprint();
        prop_assert_eq!(replayed.spare_read_handles, 0, "handles must be reused");
        prop_assert_eq!(replayed.spare_write_slots, 0, "slots must be reused");
        prop_assert_eq!(replayed.reads_capacity, parked.reads_capacity);
        prop_assert_eq!(replayed.writes_capacity, parked.writes_capacity);
        prop_assert_eq!(replayed.read_index_capacity, parked.read_index_capacity);
        prop_assert_eq!(replayed.write_index_capacity, parked.write_index_capacity);
        tx.commit_unmanaged().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TMap transactions compose with raw TVar operations atomically:
    /// an index cell always matches the map's size.
    #[test]
    fn tmap_and_tvar_compose(keys in proptest::collection::vec(0u64..64, 1..60)) {
        let stm = Stm::default();
        let map: Arc<TMap<u64, u64>> = Arc::new(TMap::new());
        let size_cell = Arc::new(TVar::new(0usize));
        let handles: Vec<_> = keys
            .chunks(15)
            .map(|chunk| {
                let stm = stm.clone();
                let map = Arc::clone(&map);
                let size_cell = Arc::clone(&size_cell);
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for k in chunk {
                        stm.atomically(|tx| {
                            let fresh = map.insert(tx, k, k)?.is_none();
                            if fresh {
                                tx.modify(&size_cell, |s| s + 1)?;
                            }
                            Ok(())
                        });
                        // Invariant visible to concurrent readers.
                        let (len, cell) = stm.atomically(|tx| {
                            Ok((map.len(tx)?, tx.read(&size_cell)?))
                        });
                        assert_eq!(len, cell, "size cell diverged from map");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(map.snapshot().len(), size_cell.snapshot());
    }
}

// ---------------------------------------------------------------------
// Read-only transactions (`Stm::read_only`): TL2's read-only protocol
// keeps no read set and requires every read to be unlocked at
// `version <= rv`. These properties hold it to the classic protocol's
// guarantees.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent writers move value between cells; every read-only
    /// sum, taken with no read set, sees the invariant total.
    #[test]
    fn read_only_never_sees_a_torn_transfer(
        n_vars in 2usize..6,
        moves in proptest::collection::vec((-50i64..50, 0usize..6, 0usize..6), 40..160),
    ) {
        let stm = Stm::default();
        let vars: Arc<Vec<TVar<i64>>> = Arc::new((0..n_vars).map(|_| TVar::new(100)).collect());
        let total = 100 * n_vars as i64;
        let writers: Vec<_> = moves
            .chunks(40)
            .map(|chunk| {
                let (stm, vars) = (stm.clone(), Arc::clone(&vars));
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for (amount, from, to) in chunk {
                        let (from, to) = (from % vars.len(), to % vars.len());
                        stm.atomically(|tx| {
                            tx.modify(&vars[from], |x| x - amount)?;
                            tx.modify(&vars[to], |x| x + amount)
                        });
                    }
                })
            })
            .collect();
        let mut sums = 0u64;
        while !writers.iter().all(std::thread::JoinHandle::is_finished) || sums < 50 {
            let sum = stm.read_only(|tx| {
                let mut sum = 0;
                for v in vars.iter() {
                    sum += tx.read(v)?;
                }
                // No `read_set_len() == 0` check here: after eight
                // read-only aborts in a row the body reruns under the
                // classic protocol, which does record reads.
                Ok(sum)
            });
            prop_assert_eq!(sum, total, "read-only transaction saw a torn transfer");
            sums += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        prop_assert_eq!(stm.stats().ro_commits(), sums);
    }

    /// Read-only transactions observe a serial prefix: a writer stamps
    /// every cell with the same generation per transaction, so any
    /// mixture of generations inside one read-only transaction would
    /// expose a non-serial state. Successive read-only transactions on
    /// one reader must also never move backwards. The writer keeps
    /// committing until both readers are done, so every read-only
    /// transaction races it.
    #[test]
    fn read_only_observes_a_serial_prefix(
        generations in 8u64..96,
        reads_per_reader in 16usize..128,
    ) {
        let stm = Stm::default();
        let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..6).map(|_| TVar::new(0)).collect());
        let readers_left = Arc::new(AtomicUsize::new(2));

        let writer = {
            let stm = stm.clone();
            let vars = Arc::clone(&vars);
            let readers_left = Arc::clone(&readers_left);
            std::thread::spawn(move || {
                let mut g = 0u64;
                while g < generations || readers_left.load(Ordering::Acquire) > 0 {
                    g += 1;
                    stm.atomically(|tx| {
                        for v in vars.iter() {
                            tx.write(v, g)?;
                        }
                        Ok(())
                    });
                }
                g
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let stm = stm.clone();
                let vars = Arc::clone(&vars);
                let readers_left = Arc::clone(&readers_left);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut n = 0usize;
                    let mut verdict = Ok(());
                    // Until the reader has seen the writer at work, too.
                    while n < reads_per_reader || last == 0 {
                        let gens = stm.read_only(|tx| {
                            let mut out = [0u64; 6];
                            for (slot, v) in out.iter_mut().zip(vars.iter()) {
                                *slot = tx.read(v)?;
                                // Widen the window a commit can land in.
                                std::thread::yield_now();
                            }
                            Ok(out)
                        });
                        if gens.iter().any(|&g| g != gens[0]) {
                            verdict = Err(format!("read-only transaction mixed generations: {gens:?}"));
                            break;
                        }
                        if gens[0] < last {
                            verdict = Err(format!("read-only transaction went backwards: {} < {last}", gens[0]));
                            break;
                        }
                        last = gens[0];
                        n += 1;
                    }
                    // Released on every path, or the writer never stops.
                    readers_left.fetch_sub(1, Ordering::Release);
                    verdict
                })
            })
            .collect();
        let verdicts: Vec<Result<(), String>> =
            readers.into_iter().map(|r| r.join().unwrap()).collect();
        let written = writer.join().unwrap();
        for verdict in verdicts {
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
        prop_assert!(written >= generations);
        prop_assert_eq!(vars[0].snapshot(), written);
    }

    /// Uncontended read-only bodies record no read set whatever they
    /// read, and every read still counts toward `reads_per_commit`.
    #[test]
    fn read_only_reads_record_no_read_set(reads in proptest::collection::vec(0usize..8, 1..40)) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..8).map(TVar::new).collect();
        let (sum, recorded) = stm.read_only(|tx| {
            let mut sum = 0;
            for &i in &reads {
                sum += tx.read(&vars[i])?;
            }
            Ok((sum, tx.read_set_len()))
        });
        prop_assert_eq!(recorded, 0);
        prop_assert_eq!(sum, reads.iter().map(|&i| i as i64).sum::<i64>());
        prop_assert_eq!(stm.stats().reads(), reads.len() as u64);
        prop_assert_eq!(stm.stats().aborts(), 0);
    }

    /// A read-only body that writes demotes to the classic protocol and
    /// commits its writes; the demotion is not a read-only abort.
    #[test]
    fn read_only_body_that_writes_demotes_and_commits(
        writes in proptest::collection::vec((0usize..4, any::<i64>()), 1..10),
    ) {
        let stm = Stm::default();
        let vars: Vec<TVar<i64>> = (0..4).map(|_| TVar::new(0)).collect();
        let mut model = [0i64; 4];
        for &(i, v) in &writes {
            model[i] = v;
        }
        stm.read_only(|tx| {
            for &(i, v) in &writes {
                let _ = tx.read(&vars[i])?;
                tx.write(&vars[i], v)?;
            }
            Ok(())
        });
        for (var, expected) in vars.iter().zip(&model) {
            prop_assert_eq!(var.snapshot(), *expected);
        }
        prop_assert_eq!(stm.stats().ro_commits(), 1);
        prop_assert_eq!(stm.stats().ro_aborts(), 0, "a demotion is not a read-only abort");
        prop_assert_eq!(stm.stats().snap_demotions(), 1);
    }
}
