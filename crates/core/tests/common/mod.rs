//! The random-circuit generator shared by `tests/kernel_equivalence.rs`
//! and the kernel bit-exactness unit tests in `src/exec.rs` (which
//! include this file by path, so the library itself carries no test
//! code).

use qtask_gates::GateKind;
use rand::prelude::*;

/// A circuit as a per-net gate list; the gates of a net act on disjoint
/// qubits.
pub type NetGates = Vec<Vec<(GateKind, Vec<u8>)>>;

/// A random circuit of 2–5 nets with 1–4 gate attempts each, drawn from
/// every `LinearOp` class plus dense gates.
pub fn random_circuit(rng: &mut StdRng, n: u8) -> NetGates {
    const KINDS: [GateKind; 14] = [
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::H,
        GateKind::S,
        GateKind::T,
        GateKind::Rz(0.9),
        GateKind::Ry(1.3),
        GateKind::U3(0.3, 0.8, 1.1),
        GateKind::Cx,
        GateKind::Cz,
        GateKind::Ch,
        GateKind::Swap,
        GateKind::Ccx,
    ];
    (0..rng.random_range(2..=5))
        .map(|_| {
            let mut occupied = 0u64;
            (0..rng.random_range(1..=4))
                .filter_map(|_| {
                    let kind = KINDS[rng.random_range(0..KINDS.len())];
                    let mut pool: Vec<u8> = (0..n).filter(|q| occupied & (1 << q) == 0).collect();
                    if pool.len() < kind.arity() {
                        return None;
                    }
                    let qubits: Vec<u8> = (0..kind.arity())
                        .map(|_| pool.swap_remove(rng.random_range(0..pool.len())))
                        .collect();
                    for &q in &qubits {
                        occupied |= 1 << q;
                    }
                    Some((kind, qubits))
                })
                .collect()
        })
        .collect()
}
