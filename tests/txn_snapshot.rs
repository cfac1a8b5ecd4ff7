//! The MVCC reader/writer split, end to end: transactional edits roll
//! back atomically, and published snapshots stay correct across threads
//! while newer versions replace them.

use qtask::prelude::*;
use qtask_partition::kernels;
use rand::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Replays the engine's current circuit on a flat vector (the shared
/// gate-at-a-time oracle).
fn oracle_state(ckt: &Ckt) -> Vec<Complex64> {
    let n = ckt.num_qubits();
    let mut state = qtask::num::vecops::ket_zero(n as usize);
    for (_, gate) in ckt.circuit().ordered_gates() {
        kernels::apply_gate(gate.kind(), gate.control_mask(), gate.targets(), &mut state);
    }
    state
}

fn random_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let mut qubits: Vec<u8> = (0..n).collect();
    qubits.shuffle(rng);
    match rng.random_range(0..8) {
        0 => (GateKind::H, vec![qubits[0]]),
        1 => (GateKind::X, vec![qubits[0]]),
        2 => (GateKind::T, vec![qubits[0]]),
        3 => (GateKind::Rz(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        4 => (GateKind::Ry(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        5 => (GateKind::Cx, vec![qubits[0], qubits[1]]),
        6 => (GateKind::Cz, vec![qubits[0], qubits[1]]),
        _ => (GateKind::Swap, vec![qubits[0], qubits[1]]),
    }
}

/// A full structural fingerprint of the engine: everything a failed
/// transaction must leave untouched.
fn fingerprint(ckt: &Ckt) -> impl PartialEq + std::fmt::Debug {
    (
        ckt.debug_partitions(),
        ckt.debug_rows(),
        ckt.state(),
        ckt.frontier_len(),
        ckt.circuit().num_gates(),
        ckt.circuit().num_nets(),
    )
}

/// Seeded rollback property: random edit batches whose last op fails
/// must leave the engine bit-identical to the pre-transaction state —
/// partitions, rows, frontier, owner index, and amplitudes alike.
#[test]
fn failed_random_edit_batches_roll_back_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for trial in 0..20 {
        let n = rng.random_range(2..=5u8);
        let block_size = 1usize << rng.random_range(0..=4u32);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = rng.random_range(1..=2);
        let mut ckt = Ckt::with_config(n, cfg);
        // Seed circuit: a few nets, a few gates, one update.
        let mut nets = Vec::new();
        for _ in 0..rng.random_range(2..5) {
            nets.push(ckt.push_net());
        }
        let mut live: Vec<GateId> = Vec::new();
        for _ in 0..rng.random_range(2..10) {
            let (kind, qubits) = random_gate(&mut rng, n);
            let net = nets[rng.random_range(0..nets.len())];
            if let Ok(gid) = ckt.insert_gate(kind, net, &qubits) {
                live.push(gid);
            }
        }
        ckt.update_state().unwrap();
        let before = fingerprint(&ckt);

        // A random batch of valid staged ops, then one that must fail.
        let batch_len = rng.random_range(0..6);
        let err = ckt
            .edit(|tx| -> Result<(), CircuitError> {
                let mut staged_nets = nets.clone();
                for _ in 0..batch_len {
                    match rng.random_range(0..4) {
                        0 => staged_nets.push(tx.push_net()),
                        1 => {
                            let (kind, qubits) = random_gate(&mut rng, n);
                            let net = staged_nets[rng.random_range(0..staged_nets.len())];
                            // Conflicts are fine mid-batch as long as we
                            // don't propagate them; the closure decides.
                            let _ = tx.insert_gate(kind, net, &qubits);
                        }
                        2 if !live.is_empty() => {
                            let gid = live[rng.random_range(0..live.len())];
                            let _ = tx.remove_gate(gid);
                        }
                        _ => {
                            let net = staged_nets[rng.random_range(0..staged_nets.len())];
                            let _ = tx.insert_net_after(net);
                        }
                    }
                }
                // The late failing op: a qubit out of range.
                tx.insert_gate(GateKind::H, staged_nets[0], &[n + 1])?;
                unreachable!("the out-of-range insertion must fail");
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Circuit(CircuitError::QubitOutOfRange { .. })
            ),
            "trial {trial}: unexpected error {err:?}"
        );
        let after = fingerprint(&ckt);
        assert_eq!(before, after, "trial {trial}: rollback not identical");
        ckt.validate_owner_index()
            .unwrap_or_else(|e| panic!("trial {trial}: owner index: {e}"));
        ckt.validate_graph()
            .unwrap_or_else(|e| panic!("trial {trial}: graph: {e}"));
    }
}

/// Committed transactions behave like the direct modifiers: the final
/// state matches the from-scratch oracle, and staged ids stay live.
#[test]
fn committed_random_edit_batches_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for trial in 0..10 {
        let n = rng.random_range(2..=5u8);
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(n, cfg);
        let mut nets = vec![ckt.push_net()];
        let mut live: Vec<GateId> = Vec::new();
        for _ in 0..8 {
            let (inserted, removed) = {
                let live_snapshot = live.clone();
                let nets_snapshot = nets.clone();
                let ((new_nets, inserted, removed), _receipt) = ckt
                    .edit(|tx| {
                        let mut new_nets = Vec::new();
                        let mut inserted = Vec::new();
                        let mut removed = Vec::new();
                        for _ in 0..rng.random_range(1..5) {
                            match rng.random_range(0..3) {
                                0 => new_nets.push(tx.push_net()),
                                1 => {
                                    let all: Vec<NetId> = nets_snapshot
                                        .iter()
                                        .chain(new_nets.iter())
                                        .copied()
                                        .collect();
                                    let (kind, qubits) = random_gate(&mut rng, n);
                                    let net = all[rng.random_range(0..all.len())];
                                    if let Ok(gid) = tx.insert_gate(kind, net, &qubits) {
                                        inserted.push(gid);
                                    }
                                }
                                _ if !live_snapshot.is_empty() => {
                                    let gid =
                                        live_snapshot[rng.random_range(0..live_snapshot.len())];
                                    if tx.remove_gate(gid).is_ok() {
                                        removed.push(gid);
                                    }
                                }
                                _ => new_nets.push(tx.push_net()),
                            }
                        }
                        Ok((new_nets, inserted, removed))
                    })
                    .unwrap();
                nets.extend(new_nets);
                (inserted, removed)
            };
            live.retain(|g| !removed.contains(g));
            live.extend(inserted);
            ckt.update_state().unwrap();
            ckt.validate_owner_index().unwrap();
        }
        let got = ckt.state();
        let want = oracle_state(&ckt);
        assert!(
            qtask::num::vecops::approx_eq(&got, &want, 1e-9),
            "trial {trial}: committed edits diverge from oracle by {}",
            qtask::num::vecops::max_abs_diff(&got, &want)
        );
        // Every gate the transactions reported inserted (and not later
        // removed) is live under its staged id.
        for gid in &live {
            assert!(ckt.circuit().gate(*gid).is_some(), "trial {trial}");
        }
    }
}

/// Cross-thread MVCC: N reader threads query snapshot v while the main
/// thread edits and publishes v+1. Both versions must match their
/// respective oracles, bit-stable, from non-owning threads.
#[test]
fn snapshot_readers_survive_concurrent_republication() {
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(6, cfg);
    let net1 = ckt.push_net();
    let net2 = ckt.push_net();
    for q in 0..6 {
        ckt.insert_gate(GateKind::H, net1, &[q]).unwrap();
    }
    let (cx, _) = ckt
        .edit(|tx| tx.insert_gate(GateKind::Cx, net2, &[0, 3]))
        .unwrap();
    ckt.update_state().unwrap();
    let snap_v1 = ckt.latest_snapshot().expect("publish policy is default");
    let oracle_v1 = oracle_state(&ckt);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|reader| {
                let snap = snap_v1.clone();
                let oracle = &oracle_v1;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(reader);
                    for _ in 0..200 {
                        let idx = rng.random_range(0..snap.state_len());
                        let amp = snap.amplitude(idx);
                        assert_eq!(amp, snap.amplitude(idx), "snapshot reads are stable");
                        assert!(
                            (amp - oracle[idx]).norm_sqr() < 1e-18,
                            "reader {reader}: idx {idx}"
                        );
                        let s = snap.sample(&mut rng);
                        assert!(oracle[s].norm_sqr() > 1e-12, "sampled a zero amplitude");
                    }
                    assert!((snap.norm_sqr() - 1.0).abs() < 1e-9);
                    snap.state()
                })
            })
            .collect();

        // Writer: replace the CNOT while the readers hammer version v.
        ckt.edit(|tx| {
            tx.remove_gate(cx)?;
            tx.insert_gate(GateKind::Cz, net2, &[1, 4])?;
            tx.insert_gate(GateKind::X, net2, &[5])
        })
        .unwrap();
        ckt.update_state().unwrap();

        let snap_v2 = ckt.latest_snapshot().unwrap();
        assert!(snap_v2.version() > snap_v1.version());
        let oracle_v2 = oracle_state(&ckt);
        assert!(
            qtask::num::vecops::approx_eq(&snap_v2.state(), &oracle_v2, 1e-9),
            "v+1 snapshot must reflect the committed edit"
        );
        // The old version is immutable: every reader saw exactly v1.
        for h in handles {
            let seen = h.join().expect("reader panicked");
            assert_eq!(seen, snap_v1.state(), "version v changed under a reader");
            assert!(
                qtask::num::vecops::approx_eq(&seen, &oracle_v1, 1e-9),
                "version v diverged from its oracle"
            );
        }
    });

    // Live queries agree with the newest snapshot.
    let latest = ckt.latest_snapshot().unwrap();
    assert_eq!(latest.state(), ckt.state());
}

/// Version bookkeeping: updates publish strictly increasing versions, a
/// removal-only update still republishes (the resolved view changed with
/// no simulation), and a no-op update does not.
#[test]
fn snapshot_versions_track_published_changes() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(3, cfg);
    assert!(ckt.latest_snapshot().is_none(), "nothing published yet");
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
    ckt.update_state().unwrap();
    let v1 = ckt.latest_snapshot().unwrap();
    // No-op update: nothing changed, no republication.
    ckt.update_state().unwrap();
    let still_v1 = ckt.latest_snapshot().unwrap();
    assert_eq!(still_v1.version(), v1.version());
    // Removal-only change: the next update has an empty frontier but
    // must still publish a fresh version that sees through the removal.
    let tail = ckt.push_net();
    let x = ckt.insert_gate(GateKind::X, tail, &[1]).unwrap();
    ckt.update_state().unwrap();
    let v2 = ckt.latest_snapshot().unwrap();
    assert!(v2.version() > v1.version());
    ckt.remove_gate(x).unwrap();
    let report = ckt.update_state().unwrap();
    assert_eq!(report.partitions_executed, 0, "removal needs no simulation");
    assert!(report.snapshot_blocks_resolved > 0, "but republishes");
    let v3 = ckt.latest_snapshot().unwrap();
    assert!(v3.version() > v2.version());
    assert!(
        qtask::num::vecops::approx_eq(&v3.state(), &oracle_state(&ckt), 1e-12),
        "post-removal snapshot sees through the cleared layer"
    );
    // The older versions still answer from their own eras.
    assert!(
        qtask::num::vecops::approx_eq(
            &v2.state(),
            &{
                let mut s = v1.state();
                kernels::apply_gate(GateKind::X, 0, &[1], &mut s);
                s
            },
            1e-12
        ),
        "v2 keeps the X gate forever"
    );
}

/// The snapshot's O(1) norm — the engine's per-block norms, summed once
/// at publication — equals an independent rescan of the published state
/// at every publication of a seeded insert/remove sequence.
#[test]
fn snapshot_norm_matches_a_rescan_at_every_publication() {
    let mut rng = StdRng::seed_from_u64(0x0A0B);
    let n = 5u8;
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(n, cfg);
    let nets: Vec<NetId> = (0..6).map(|_| ckt.push_net()).collect();
    let mut live: Vec<GateId> = Vec::new();
    let mut checked = BTreeSet::new();
    for step in 0..120 {
        if !live.is_empty() && rng.random_bool(0.4) {
            let gid = live.swap_remove(rng.random_range(0..live.len()));
            ckt.remove_gate(gid).unwrap();
        } else {
            let (kind, qubits) = random_gate(&mut rng, n);
            let net = nets[rng.random_range(0..nets.len())];
            if let Ok(gid) = ckt.insert_gate(kind, net, &qubits) {
                live.push(gid);
            }
        }
        ckt.update_state().unwrap();
        let snap = ckt.latest_snapshot().expect("the first update publishes");
        let rescan = qtask::num::vecops::norm_sqr(&snap.state());
        assert!(
            (snap.norm_sqr() - rescan).abs() < 1e-15,
            "step {step}, version {}: stored norm {} vs rescan {rescan}",
            snap.version(),
            snap.norm_sqr()
        );
        checked.insert(snap.version());
    }
    assert!(checked.len() > 60, "only {} publications", checked.len());
}

/// Records every publication's write set.
#[derive(Default)]
struct DeltaLog(std::sync::Mutex<Vec<qtask_core::BlockDelta>>);

impl qtask_core::SnapshotObserver for DeltaLog {
    fn on_publish(&self, _snap: &StateSnapshot, delta: &qtask_core::BlockDelta) {
        self.0.lock().unwrap().push(delta.clone());
    }
}

/// What the next update must execute, read off the engine's public
/// introspection: the frontier's successor closure (from the DOT dump's
/// edges, with frontier flags from `debug_partitions`). Returns the
/// closure's size and the union of its non-sync partitions' block spans.
fn pending_write_set(ckt: &Ckt) -> (usize, BTreeSet<usize>) {
    // DOT nodes: `  p<slot> [label="<row>[<lo>,<hi>]" shape=<shape>];`
    // and edges: `  p<a> -> p<b>;`.
    let dot = ckt.dump_graph_string();
    let mut node_of = HashMap::new();
    let mut span_of = HashMap::new();
    let mut succs: HashMap<usize, Vec<usize>> = HashMap::new();
    for line in dot.lines().map(str::trim) {
        if let Some((a, b)) = line.split_once(" -> ") {
            let a: usize = a[1..].parse().unwrap();
            let b: usize = b.trim_end_matches(';')[1..].parse().unwrap();
            succs.entry(a).or_default().push(b);
        } else if let Some((id, rest)) = line.split_once(" [label=\"") {
            let id: usize = id[1..].parse().unwrap();
            let (label, shape) = rest.split_once("\" shape=").unwrap();
            let (row, range) = label.split_once('[').unwrap();
            let (lo, hi) = range.trim_end_matches(']').split_once(',').unwrap();
            let (lo, hi): (u32, u32) = (lo.parse().unwrap(), hi.parse().unwrap());
            assert!(
                node_of.insert((row.to_string(), lo, hi), id).is_none(),
                "partition names are unique in this circuit"
            );
            let sync = shape.starts_with("diamond");
            span_of.insert(id, (!sync).then_some(lo as usize..=hi as usize));
        }
    }
    let mut stack: Vec<usize> = ckt
        .debug_partitions()
        .into_iter()
        .filter(|p| p.5)
        .map(|(row, lo, hi, ..)| node_of[&(row, lo, hi)])
        .collect();
    let mut closure = BTreeSet::new();
    while let Some(p) = stack.pop() {
        if closure.insert(p) {
            stack.extend(succs.get(&p).into_iter().flatten().copied());
        }
    }
    let blocks = closure
        .iter()
        .filter_map(|p| span_of[p].clone())
        .flatten()
        .collect();
    (closure.len(), blocks)
}

/// The write set a publication reports is exactly the work it did. The
/// first publication after a full build resolves every block once and
/// announces a `full` delta; after a later edit (one gate inserted
/// mid-circuit, one removed), `BlockDelta::dirty` is sorted and equals
/// the spans of the executed non-sync partitions plus the blocks the
/// removed row owned.
#[test]
fn block_delta_is_the_update_write_set() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(6, cfg);
    let log = Arc::new(DeltaLog::default());
    ckt.attach_observer(log.clone());
    let mut nets = Vec::new();
    for layer in 0..6u8 {
        let net = ckt.push_net();
        nets.push(net);
        match layer % 3 {
            0 => {
                ckt.insert_gate(GateKind::H, net, &[layer % 6]).unwrap();
                ckt.insert_gate(GateKind::Ry(0.3), net, &[(layer + 3) % 6])
                    .unwrap();
            }
            1 => {
                ckt.insert_gate(GateKind::Cx, net, &[layer % 6, (layer + 2) % 6])
                    .unwrap();
            }
            _ => {
                ckt.insert_gate(GateKind::T, net, &[layer % 6]).unwrap();
                ckt.insert_gate(GateKind::X, net, &[(layer + 1) % 6])
                    .unwrap();
            }
        }
    }
    let num_blocks = ckt.geometry().num_blocks();
    let report = ckt.update_state().unwrap();
    assert_eq!(
        report.snapshot_blocks_resolved, num_blocks as u64,
        "the first publication resolves every block exactly once"
    );
    {
        let deltas = log.0.lock().unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].full, "first publication is a full rebuild");
        assert!(deltas[0].dirty.is_empty());
        assert_eq!(deltas[0].prev_version, 0);
    }

    // One gate inserted mid-circuit, and the first X removed: its row's
    // owned blocks resolve through to earlier rows now.
    let x_gate = ckt
        .circuit()
        .ordered_gates()
        .find(|(_, g)| g.kind() == GateKind::X)
        .map(|(id, _)| id)
        .unwrap();
    ckt.insert_gate(GateKind::S, nets[1], &[4]).unwrap();
    let rows_before = ckt.debug_rows();
    ckt.remove_gate(x_gate).unwrap();
    let rows_after: BTreeSet<String> = ckt.debug_rows().into_iter().map(|r| r.0).collect();
    let removed_blocks: BTreeSet<usize> = rows_before
        .into_iter()
        .filter(|(label, _)| !rows_after.contains(label))
        .flat_map(|(_, owned)| owned)
        .collect();
    assert!(!removed_blocks.is_empty(), "the removed row owned blocks");
    let (executed, mut expected) = pending_write_set(&ckt);
    expected.extend(removed_blocks);

    let report = ckt.update_state().unwrap();
    assert_eq!(report.partitions_executed, executed);
    let deltas = log.0.lock().unwrap();
    assert_eq!(deltas.len(), 2);
    let delta = &deltas[1];
    assert!(!delta.full);
    assert!(
        delta.dirty.windows(2).all(|w| w[0] < w[1]),
        "dirty is strictly ascending: {:?}",
        delta.dirty
    );
    assert_eq!(delta.dirty, expected.into_iter().collect::<Vec<_>>());
    assert_eq!(report.snapshot_blocks_resolved, delta.dirty.len() as u64);
    assert!(qtask::num::vecops::approx_eq(
        &ckt.latest_snapshot().unwrap().state(),
        &oracle_state(&ckt),
        1e-12
    ));
}
