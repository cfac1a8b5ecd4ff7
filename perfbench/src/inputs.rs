//! Seeded workload inputs: OpenQASM text for catalog circuits, and the
//! random edit streams the clients submit.
//!
//! The program under test only ever sees what these functions generate:
//! the gate structure of a catalog circuit, with every rotation angle
//! shifted by a seeded offset, rendered as QASM text.

use qtask_circuit::Circuit;
use qtask_gates::GateKind;
use rand::prelude::*;

/// QASM text for catalog circuit `name` at `qubits` qubits. Levels and
/// gates are the catalog's; each rotation angle is moved by a uniform
/// offset in [-0.5, 0.5) drawn from `rng`, so two seeds give two inputs
/// of identical shape and cost.
pub fn catalog_qasm(name: &str, qubits: u8, rng: &mut StdRng) -> String {
    let base = qtask_bench_circuits::catalog::build(name, Some(qubits))
        .unwrap_or_else(|| panic!("unknown catalog circuit '{name}'"));
    let mut out = Circuit::new(qubits);
    for src_net in base.net_ids() {
        let net = out.push_net();
        for (_, gate) in base.net_gates(src_net) {
            let kind = reangle(gate.kind(), rng);
            out.insert_gate(kind, net, gate.qubits())
                .expect("replaying a valid level cannot conflict");
        }
    }
    qtask_qasm::circuit_to_qasm(&out)
}

fn reangle(kind: GateKind, rng: &mut StdRng) -> GateKind {
    let params = kind.params();
    if params.is_empty() {
        return kind;
    }
    let moved: Vec<f64> = params
        .iter()
        .map(|p| p + rng.random_range(-0.5..0.5))
        .collect();
    GateKind::from_qasm(kind.qasm_name(), &moved).expect("same name, same arity")
}

/// Parses generated QASM text; generated inputs always parse.
pub fn parse(src: &str) -> Circuit {
    qtask_qasm::parse_to_circuit(src).expect("generated QASM parses")
}
