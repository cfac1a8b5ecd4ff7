//! Engine correctness tests against a flat-vector oracle.
//!
//! The oracle replays the circuit gate-by-gate with the shared
//! `qtask_partition::kernels`, which are themselves validated against the
//! dense-matrix construction in their own tests. Every engine result —
//! full simulation, and any sequence of incremental modifier+update
//! steps — must match the oracle on the final circuit.

use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::kernels;
use rand::prelude::*;

/// Replays the engine's current circuit on a flat vector.
fn oracle_state(ckt: &Ckt) -> Vec<Complex64> {
    let n = ckt.num_qubits();
    let mut state = vecops::ket_zero(n as usize);
    for (_, gate) in ckt.circuit().ordered_gates() {
        kernels::apply_gate(gate.kind(), gate.control_mask(), gate.targets(), &mut state);
    }
    state
}

fn assert_matches_oracle(ckt: &Ckt, what: &str) {
    let got = ckt.state();
    let want = oracle_state(ckt);
    assert!(
        vecops::approx_eq(&got, &want, 1e-9),
        "{what}: max diff {}",
        vecops::max_abs_diff(&got, &want)
    );
    let norm = ckt.norm_sqr();
    assert!((norm - 1.0).abs() < 1e-9, "{what}: norm {norm}");
}

/// Builds the paper's Figure 2 circuit on a [`Ckt`], returning the net and
/// gate handles in Listing 1's naming.
fn figure2_ckt(block_size: usize) -> (Ckt, Vec<qtask_circuit::NetId>, Vec<qtask_circuit::GateId>) {
    // The paper groups all of a net's superposition gates into one MxV
    // row; lift the engineering cap so the figures' structure reproduces.
    let mut cfg = SimConfig::with_block_size(block_size);
    cfg.mxv_group_max = usize::MAX;
    let mut ckt = Ckt::with_config(5, cfg);
    let net1 = ckt.insert_net_front();
    let net2 = ckt.insert_net_after(net1).unwrap();
    let net3 = ckt.insert_net_after(net2).unwrap();
    let net4 = ckt.insert_net_after(net3).unwrap();
    let net5 = ckt.insert_net_after(net4).unwrap();
    let (q4, q3, q2, q1, q0) = (4u8, 3, 2, 1, 0);
    let mut gates = Vec::new();
    for q in [q4, q3, q2, q1, q0] {
        gates.push(ckt.insert_gate(GateKind::H, net1, &[q]).unwrap());
    }
    gates.push(ckt.insert_gate(GateKind::Cx, net2, &[q4, q3]).unwrap()); // G6
    gates.push(ckt.insert_gate(GateKind::Cx, net3, &[q4, q1]).unwrap()); // G7
    gates.push(ckt.insert_gate(GateKind::Cx, net4, &[q3, q2]).unwrap()); // G8
    gates.push(ckt.insert_gate(GateKind::Cx, net5, &[q2, q0]).unwrap()); // G9
    (ckt, vec![net1, net2, net3, net4, net5], gates)
}

#[test]
fn initial_state_before_any_update() {
    let ckt = Ckt::new(4);
    assert!(ckt.amplitude(0).is_one(1e-12));
    assert!(ckt.amplitude(7).is_zero(1e-12));
    assert!((ckt.norm_sqr() - 1.0).abs() < 1e-12);
}

#[test]
fn figure2_full_simulation() {
    let (mut ckt, _, _) = figure2_ckt(4);
    ckt.validate_graph().unwrap();
    let report = ckt.update_state().unwrap();
    assert!(report.partitions_executed > 0);
    assert_matches_oracle(&ckt, "figure2 full");
    // All 32 amplitudes of H^{⊗5} then CNOTs have magnitude 1/√32.
    let probs = ckt.probabilities();
    for p in probs {
        assert!((p - 1.0 / 32.0).abs() < 1e-9);
    }
}

#[test]
fn figure2_partition_structure() {
    let (ckt, _, _) = figure2_ckt(4);
    // 8 MxV partitions + 1 sync + G6 (1) + G7 (2) + G8 (2) + G9 (2) = 16.
    assert_eq!(ckt.num_partitions(), 16);
    // Rows: sync + MxV + 4 CNOT rows.
    assert_eq!(ckt.num_rows(), 6);
    let dot = ckt.dump_graph_string();
    assert!(dot.contains("sync"));
    assert!(dot.contains("MxV"));
    // G6's single partition spans blocks 4..7 and is a subflow (box).
    assert!(dot.contains("G6[4,7]\" shape=box"), "{dot}");
    assert!(dot.contains("G7[4,5]"));
    assert!(dot.contains("G7[6,7]"));
    assert!(dot.contains("G8[2,3]"));
    assert!(dot.contains("G9[1,3]"));
    assert!(dot.contains("G9[5,7]"));
}

#[test]
fn figure7_to_11_incremental_walkthrough() {
    // The paper's running modifier example: remove G8, insert G10, update.
    let (mut ckt, nets, gates) = figure2_ckt(4);
    ckt.update_state().unwrap();
    let g8 = gates[7];
    ckt.remove_gate(g8).unwrap();
    ckt.validate_graph().unwrap();
    let g10 = ckt.insert_gate(GateKind::Cx, nets[3], &[2, 1]).unwrap(); // CNOT(ctrl q2, tgt q1)
    ckt.validate_graph().unwrap();
    let report = ckt.update_state().unwrap();
    assert!(report.partitions_executed > 0);
    assert_matches_oracle(&ckt, "figure8 incremental");
    // And removing G10 again restores the G8-less circuit.
    ckt.remove_gate(g10).unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "G10 removed");
}

#[test]
fn incremental_update_touches_fewer_partitions() {
    let (mut ckt, nets, _) = figure2_ckt(4);
    let full = ckt.update_state().unwrap();
    // Modify only the last net: insert an X gate (anti-diagonal row).
    ckt.insert_gate(GateKind::X, nets[4], &[1]).unwrap();
    let inc = ckt.update_state().unwrap();
    assert!(
        inc.partitions_executed < full.partitions_executed,
        "incremental {} vs full {}",
        inc.partitions_executed,
        full.partitions_executed
    );
    assert_matches_oracle(&ckt, "last-net insertion");
}

#[test]
fn update_with_empty_frontier_is_noop() {
    let (mut ckt, _, _) = figure2_ckt(4);
    ckt.update_state().unwrap();
    let second = ckt.update_state().unwrap();
    assert_eq!(second.partitions_executed, 0);
}

#[test]
fn removal_then_query_without_update_is_visible_after_update() {
    let (mut ckt, _, gates) = figure2_ckt(4);
    ckt.update_state().unwrap();
    // Remove one Hadamard; after update the state must match the oracle.
    ckt.remove_gate(gates[2]).unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "H removed");
}

#[test]
fn identity_gates_create_no_rows() {
    let mut ckt = Ckt::new(3);
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::Id, net, &[0]).unwrap();
    ckt.insert_gate(GateKind::Rz(0.0), net, &[1]).unwrap();
    assert_eq!(ckt.num_rows(), 0);
    assert_eq!(ckt.num_partitions(), 0);
    ckt.update_state().unwrap();
    assert!(ckt.amplitude(0).is_one(1e-12));
}

#[test]
fn dense_gates_group_into_one_mxv_row() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.mxv_group_max = usize::MAX;
    let mut ckt = Ckt::with_config(4, cfg);
    let net = ckt.push_net();
    for q in 0..4 {
        ckt.insert_gate(GateKind::H, net, &[q]).unwrap();
    }
    // One sync + one MxV row despite four dense gates.
    assert_eq!(ckt.num_rows(), 2);
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "H⊗4 net");
    let amp = 1.0 / 4.0;
    for i in 0..16 {
        assert!((ckt.amplitude(i).re - amp).abs() < 1e-9);
    }
}

#[test]
fn capped_mxv_groups_chain_and_match_oracle() {
    // With the default cap of 2, a net of 5 Hadamards becomes 3 chained
    // sync+MxV pairs; results must be identical, and removing gates must
    // drop exactly the emptied pair.
    let mut ckt = Ckt::with_config(5, SimConfig::with_block_size(4));
    assert_eq!(SimConfig::default().mxv_group_max, 2);
    let net = ckt.push_net();
    let mut hs = Vec::new();
    for q in 0..5 {
        hs.push(ckt.insert_gate(GateKind::H, net, &[q]).unwrap());
    }
    assert_eq!(ckt.num_rows(), 6); // 3 × (sync + MxV)
    ckt.validate_graph().unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "chained MxV groups");
    // Remove the 5th H (alone in its pair): rows drop by 2.
    ckt.remove_gate(hs[4]).unwrap();
    assert_eq!(ckt.num_rows(), 4);
    ckt.validate_graph().unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "chained MxV after removal");
}

#[test]
fn removing_last_dense_gate_drops_mxv_and_sync() {
    let mut ckt = Ckt::with_config(3, SimConfig::with_block_size(2));
    let net = ckt.push_net();
    let h = ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
    let x = ckt.insert_gate(GateKind::X, net, &[1]).unwrap();
    assert_eq!(ckt.num_rows(), 3); // sync + MxV + X row
    ckt.update_state().unwrap();
    ckt.remove_gate(h).unwrap();
    assert_eq!(ckt.num_rows(), 1);
    ckt.validate_graph().unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "dense gate removed");
    ckt.remove_gate(x).unwrap();
    assert_eq!(ckt.num_rows(), 0);
    ckt.update_state().unwrap();
    assert!(ckt.amplitude(0).is_one(1e-9));
}

#[test]
fn cow_shares_untouched_blocks() {
    // A CNOT touches only half the state: its row must own only the
    // touched blocks (the paper's COW optimization).
    let mut ckt = Ckt::with_config(5, SimConfig::with_block_size(4));
    let net1 = ckt.push_net();
    let net2 = ckt.push_net();
    ckt.insert_gate(GateKind::H, net1, &[4]).unwrap();
    ckt.insert_gate(GateKind::Cx, net2, &[4, 3]).unwrap();
    ckt.update_state().unwrap();
    let stats = ckt.memory_stats();
    // MxV owns all 8 blocks; the CNOT row owns only blocks 4..7.
    assert_eq!(stats.owned_blocks, 8 + 4);
    assert_matches_oracle(&ckt, "cow sharing");
}

#[test]
fn remove_net_removes_all_rows() {
    let (mut ckt, nets, _) = figure2_ckt(4);
    ckt.update_state().unwrap();
    ckt.remove_net(nets[0]).unwrap(); // drop all the Hadamards
    ckt.validate_graph().unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "net removed");
    // Only CNOT rows remain; on |00000> CNOTs do nothing.
    assert!(ckt.amplitude(0).is_one(1e-9));
}

#[test]
fn swap_and_diag_and_ccx_mix() {
    let mut ckt = Ckt::with_config(4, SimConfig::with_block_size(2));
    let n1 = ckt.push_net();
    let n2 = ckt.push_net();
    let n3 = ckt.push_net();
    let n4 = ckt.push_net();
    ckt.insert_gate(GateKind::H, n1, &[0]).unwrap();
    ckt.insert_gate(GateKind::H, n1, &[1]).unwrap();
    ckt.insert_gate(GateKind::Swap, n2, &[0, 2]).unwrap();
    ckt.insert_gate(GateKind::T, n2, &[3]).unwrap();
    ckt.insert_gate(GateKind::Ccx, n3, &[0, 1, 3]).unwrap();
    ckt.insert_gate(GateKind::Cp(0.7), n4, &[2, 0]).unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "mixed gate kinds");
}

#[test]
fn modifiers_across_block_sizes_match_oracle() {
    for block_size in [1usize, 2, 8, 64, 1024] {
        let (mut ckt, nets, gates) = figure2_ckt(block_size);
        ckt.update_state().unwrap();
        ckt.remove_gate(gates[6]).unwrap(); // G7
        ckt.insert_gate(GateKind::Z, nets[2], &[4]).unwrap();
        ckt.update_state().unwrap();
        assert_matches_oracle(&ckt, &format!("block size {block_size}"));
    }
}

fn random_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let mut qubits: Vec<u8> = (0..n).collect();
    qubits.shuffle(rng);
    match rng.random_range(0..12) {
        0 => (GateKind::H, vec![qubits[0]]),
        1 => (GateKind::X, vec![qubits[0]]),
        2 => (GateKind::Y, vec![qubits[0]]),
        3 => (GateKind::T, vec![qubits[0]]),
        4 => (GateKind::Rz(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        5 => (GateKind::Ry(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        6 => (GateKind::Cx, vec![qubits[0], qubits[1]]),
        7 => (GateKind::Cz, vec![qubits[0], qubits[1]]),
        8 => (
            GateKind::Cp(rng.random_range(-3.0..3.0)),
            vec![qubits[0], qubits[1]],
        ),
        9 => (GateKind::Swap, vec![qubits[0], qubits[1]]),
        10 if n >= 3 => (GateKind::Ccx, vec![qubits[0], qubits[1], qubits[2]]),
        _ => (GateKind::S, vec![qubits[0]]),
    }
}

/// The paper's core claim, as a randomized invariant: any sequence of
/// modifiers + incremental updates ends in the same state a from-scratch
/// replay produces.
#[test]
fn random_modifier_storm_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..12 {
        let n = rng.random_range(2..=6u8);
        let block_size = 1usize << rng.random_range(0..=5u32);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = rng.random_range(1..=4);
        let mut ckt = Ckt::with_config(n, cfg);
        let mut nets = Vec::new();
        let mut live_gates: Vec<qtask_circuit::GateId> = Vec::new();
        for _ in 0..rng.random_range(3..8) {
            nets.push(ckt.push_net());
        }
        for step in 0..60 {
            let insert = live_gates.is_empty() || rng.random_bool(0.65);
            if insert {
                let (kind, qubits) = random_gate(&mut rng, n);
                let net = nets[rng.random_range(0..nets.len())];
                if let Ok(gid) = ckt.insert_gate(kind, net, &qubits) {
                    live_gates.push(gid);
                }
            } else {
                let i = rng.random_range(0..live_gates.len());
                let gid = live_gates.swap_remove(i);
                ckt.remove_gate(gid).unwrap();
            }
            ckt.validate_graph()
                .unwrap_or_else(|e| panic!("trial {trial} step {step}: {e}"));
            ckt.validate_owner_index()
                .unwrap_or_else(|e| panic!("trial {trial} step {step}: owner index: {e}"));
            if rng.random_bool(0.3) {
                ckt.update_state().unwrap();
                ckt.validate_owner_index()
                    .unwrap_or_else(|e| panic!("trial {trial} step {step}: post-update: {e}"));
            }
        }
        ckt.update_state().unwrap();
        assert_matches_oracle(
            &ckt,
            &format!("storm trial {trial} (n={n}, B={block_size})"),
        );
    }
}

#[test]
fn deep_narrow_circuit() {
    // vqe_uccsd-like shape: few qubits, long chain of nets — exercises
    // long COW chains and per-row linking.
    let mut ckt = Ckt::with_config(3, SimConfig::with_block_size(256));
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..200 {
        let net = ckt.push_net();
        let (kind, qubits) = random_gate(&mut rng, 3);
        ckt.insert_gate(kind, net, &qubits).unwrap();
    }
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "deep narrow");
}

#[test]
fn level_by_level_protocol() {
    // The Table III "inc" protocol: build level by level, updating after
    // each net; the final state must equal full simulation.
    let mut ckt = Ckt::with_config(5, SimConfig::with_block_size(4));
    let layers: Vec<Vec<(GateKind, Vec<u8>)>> = vec![
        (0..5).map(|q| (GateKind::H, vec![q])).collect(),
        vec![(GateKind::Cx, vec![4, 3])],
        vec![(GateKind::Cx, vec![4, 1])],
        vec![(GateKind::Cx, vec![3, 2])],
        vec![(GateKind::Cx, vec![2, 0])],
    ];
    for layer in &layers {
        let net = ckt.push_net();
        for (kind, qubits) in layer {
            ckt.insert_gate(*kind, net, qubits).unwrap();
        }
        ckt.update_state().unwrap();
    }
    assert_matches_oracle(&ckt, "level-by-level");
}

#[test]
fn insert_into_middle_net_after_update() {
    let (mut ckt, nets, _) = figure2_ckt(4);
    ckt.update_state().unwrap();
    // Insert a dense gate into net3 (which already has a CNOT): forces
    // sync+MxV insertion *before* existing linear rows mid-chain.
    ckt.insert_gate(GateKind::Ry(0.9), nets[2], &[0]).unwrap();
    ckt.validate_graph().unwrap();
    ckt.update_state().unwrap();
    assert_matches_oracle(&ckt, "mid-chain dense insertion");
}

/// Builds a depth-`depth` phase-gate chain on the top qubit, one gate per
/// net. T touches only the target=1 half of the state, so every chain row
/// owns only the top-half blocks — a read of a bottom-half block from the
/// chain's tail must look past the entire chain, which is exactly the
/// depth-proportional pattern the owner index collapses.
fn phase_chain(depth: usize) -> Ckt {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(4, cfg);
    for _ in 0..depth {
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::T, net, &[3]).unwrap();
    }
    ckt
}

#[test]
fn owner_index_probe_cost_is_depth_independent() {
    // After a one-gate incremental update at the tail of a deep chain,
    // every resolution costs ~log2(owners) probes, not a walk
    // proportional to the chain, and doubling the depth must not grow
    // that cost (the O(d) → O(log) claim, asymptotically).
    let mut costs = Vec::new();
    for depth in [128usize, 512] {
        let mut ckt = phase_chain(depth);
        ckt.update_state().unwrap();
        // One trailing X(q0): touches every block, so its task reads the
        // bottom-half blocks that no chain row owns.
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::X, net, &[0]).unwrap();
        let report = ckt.update_state().unwrap();
        assert!(
            report.blocks_resolved > 0,
            "depth {depth}: resolved no blocks"
        );
        assert_matches_oracle(&ckt, &format!("depth-{depth} chain"));
        costs.push(report.owner_probes as f64 / report.blocks_resolved as f64);
    }
    assert!(
        costs[1] < 16.0,
        "owner-index probes must stay logarithmic at depth 512: {costs:?}"
    );
    assert!(
        costs[1] <= costs[0] * 1.5 + 2.0,
        "probe cost grew with depth: {costs:?}"
    );
}

#[test]
fn owner_index_consistent_after_removal_storm_on_deep_chain() {
    // Remove every third gate of a deep chain (no update in between),
    // then update: the index must match ground truth and the state the
    // oracle.
    let mut ckt = phase_chain(120);
    ckt.update_state().unwrap();
    let gates: Vec<qtask_circuit::GateId> =
        ckt.circuit().ordered_gates().map(|(gid, _)| gid).collect();
    for gid in gates.iter().step_by(3) {
        ckt.remove_gate(*gid).unwrap();
        ckt.validate_owner_index().unwrap();
    }
    ckt.update_state().unwrap();
    ckt.validate_owner_index().unwrap();
    assert_matches_oracle(&ckt, "post-removal deep chain");
}

#[test]
fn query_reports_surface_resolution_work() {
    use qtask_core::QueryReport;
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(6, cfg);
    for target in [0u8, 3, 5] {
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::H, net, &[target]).unwrap();
    }
    ckt.update_state().unwrap();
    // A single amplitude resolves exactly one block.
    let (amp, report) = ckt.amplitude_reported(0);
    assert_eq!(report.blocks_resolved, 1);
    assert!(report.owner_probes >= 1, "{report:?}");
    assert!((amp.norm_sqr() - 1.0 / 8.0).abs() < 1e-12);
    // Materializing the state resolves every block once.
    let (state, report) = ckt.state_reported();
    assert_eq!(state.len(), 1 << 6);
    assert_eq!(report.blocks_resolved, ckt.geometry().num_blocks() as u64);
    assert!(report.owner_probes >= report.blocks_resolved);
    // Reports are deltas, not running totals.
    let (_, again) = ckt.amplitude_reported(0);
    assert_eq!(again.blocks_resolved, 1);
    assert_eq!(QueryReport::default().blocks_resolved, 0);

    // The owner index answers a read past a deep chain in O(log owners):
    // block 0 is owned only by early rows, so a walk would visit all 64.
    let deep = 64usize;
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(8, cfg);
    for _ in 0..deep {
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::T, net, &[7]).unwrap();
    }
    ckt.update_state().unwrap();
    let (_, report) = ckt.amplitude_reported(0);
    assert_eq!(report.blocks_resolved, 1);
    assert!(
        report.owner_probes * 4 < deep as u64,
        "owner index should binary-search the chain, not walk it: {report:?}"
    );
}
