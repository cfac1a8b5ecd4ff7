//! Randomized differential test of the engine's kernels.
//!
//! Drives random circuits — every `LinearOp` class plus dense gates —
//! through the engine on random block geometries and group caps, and
//! checks the state against the flat scalar kernels applied
//! gate-at-a-time. Exact equality is not guaranteed here: the engine may
//! reorder commuting gates within a net, which reassociates products in
//! the last ulp, so the check is a tight tolerance. Bit-for-bit
//! agreement of the batched and scalar kernels is pinned per partition
//! by the unit tests in `src/exec.rs`.

use qtask_circuit::NetId;
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::kernels;
use rand::prelude::*;

mod common;
use common::{random_circuit, NetGates};

/// Builds and simulates `nets`; returns the engine and its net ids.
fn build(nets: &NetGates, n: u8, cfg: SimConfig) -> (Ckt, Vec<NetId>) {
    let mut ckt = Ckt::with_config(n, cfg);
    let ids = nets
        .iter()
        .map(|net_gates| {
            let net = ckt.push_net();
            for (kind, qubits) in net_gates {
                ckt.insert_gate(*kind, net, qubits).unwrap();
            }
            net
        })
        .collect();
    ckt.update_state().unwrap();
    (ckt, ids)
}

/// Flat-kernel oracle: apply the nets gate-at-a-time with the shared flat
/// kernels. Within a net all gates act on disjoint qubits and commute, so
/// insertion order is as good as the engine's row order (up to last-ulp
/// reassociation, covered by the tolerance).
fn oracle_state(nets: &NetGates, n: u8) -> Vec<Complex64> {
    let mut state = vecops::ket_zero(n as usize);
    for net_gates in nets {
        for (kind, qubits) in net_gates {
            let controls = &qubits[..kind.num_controls()];
            let targets = &qubits[kind.num_controls()..];
            let cmask: u64 = controls.iter().map(|&c| 1u64 << c).sum();
            kernels::apply_gate(*kind, cmask, targets, &mut state);
        }
    }
    state
}

#[test]
fn random_circuits_agree_across_kernel_policies() {
    let mut rng = StdRng::seed_from_u64(20260729);
    for case in 0..60u64 {
        let n = rng.random_range(3..=8u8);
        let block_size = 1usize << rng.random_range(0..=5u32);
        let mxv_cap = rng.random_range(1..=3);
        let nets = random_circuit(&mut rng, n);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 2;
        cfg.mxv_group_max = mxv_cap;
        let batched = build(&nets, n, cfg).0.state();
        // vs the flat oracle: tight tolerance, not exactness — the engine
        // reorders commuting gates within a net and the MxV sums source
        // terms in fused-row order, which reassociates the last ulp.
        let want = oracle_state(&nets, n);
        assert!(
            vecops::approx_eq(&batched, &want, 1e-12),
            "case {case}: engine vs flat oracle, max diff {} (n={n}, B={block_size}, cap={mxv_cap})",
            vecops::max_abs_diff(&batched, &want)
        );
        // Physicality: unitary circuits preserve the norm.
        assert!((vecops::norm_sqr(&batched) - 1.0).abs() < 1e-10);
    }
}

#[test]
fn incremental_toggles_agree_across_kernel_policies() {
    // Oracle agreement must survive incremental restructuring, not just
    // build-once circuits: toggle gates in and out between updates and
    // check every published state.
    let mut rng = StdRng::seed_from_u64(777);
    for _ in 0..10 {
        let n = rng.random_range(4..=7u8);
        let block_size = 1usize << rng.random_range(1..=4u32);
        let nets = random_circuit(&mut rng, n);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 1;
        let (mut ckt, net_ids) = build(&nets, n, cfg);
        let base = oracle_state(&nets, n);
        for round in 0..4 {
            let target = rng.random_range(0..n);
            let kind = if round % 2 == 0 {
                GateKind::H
            } else {
                GateKind::S
            };
            let pick = rng.random_range(0..nets.len());
            let gid = ckt.insert_gate(kind, net_ids[pick], &[target]);
            ckt.update_state().unwrap();
            if let Ok(gid) = gid {
                // Within a net gates act on disjoint qubits and commute,
                // so appending the toggled gate is the oracle's order.
                let mut toggled = nets.clone();
                toggled[pick].push((kind, vec![target]));
                let want = oracle_state(&toggled, n);
                assert!(
                    vecops::approx_eq(&ckt.state(), &want, 1e-12),
                    "round {round}: toggled-in state diverged from the oracle"
                );
                ckt.remove_gate(gid).unwrap();
                ckt.update_state().unwrap();
            }
            assert!(
                vecops::approx_eq(&ckt.state(), &base, 1e-12),
                "round {round}: state after the toggle diverged from the oracle by {}",
                vecops::max_abs_diff(&ckt.state(), &base)
            );
        }
    }
}
