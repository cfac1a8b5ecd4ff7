//! `QulacsLike`: a fast full re-simulation baseline.
//!
//! Models what the paper's Qulacs comparison relies on: an optimized flat
//! state vector with specialized kernels per gate class, multi-threaded
//! with a synchronization barrier *between* gates (§IV-D contrasts
//! qTask's whole-graph scheduling with Qulacs "synchronizing work between
//! levels"). Every `update_state` re-simulates from |0…0⟩: no
//! incrementality, exactly like the real tool.

use crate::common::{ParallelFor, Simulator};
use qtask_circuit::{Circuit, CircuitError, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::{slices, vecops, Complex64, Mat2};
use qtask_partition::kernels;
use qtask_partition::{lower_gate, LinearOp, LoweredGate};
use qtask_taskflow::Executor;
use qtask_util::DisjointSlice;
use std::sync::Arc;

/// A Qulacs-style baseline: specialized kernels, per-gate parallel-for
/// with inter-gate barriers, full re-simulation per update.
pub struct QulacsLike {
    circuit: Circuit,
    state: Vec<Complex64>,
    par: ParallelFor,
}

impl QulacsLike {
    /// Creates a baseline with its own executor.
    pub fn new(num_qubits: u8, num_threads: usize) -> QulacsLike {
        QulacsLike::with_executor(num_qubits, Arc::new(Executor::new(num_threads)))
    }

    /// Creates a baseline sharing an executor.
    pub fn with_executor(num_qubits: u8, executor: Arc<Executor>) -> QulacsLike {
        QulacsLike {
            circuit: Circuit::new(num_qubits),
            state: vecops::ket_zero(num_qubits as usize),
            par: ParallelFor::new(executor),
        }
    }

    /// Read access to the wrapped circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    fn apply_gate_parallel(&mut self, kind: GateKind, controls: u64, targets: &[u8]) {
        let n = self.num_qubits();
        match lower_gate(kind, controls, targets) {
            LoweredGate::Identity => {}
            LoweredGate::Linear(op) => {
                let total = op.pattern(n).num_items();
                let Some(chunk) = self.par.chunk_size(total) else {
                    kernels::apply_linear(&op, n, &mut self.state);
                    return;
                };
                let view = DisjointSlice::new(&mut self.state);
                self.par.run(total, chunk, &|ranks| {
                    apply_linear_view(&op, n, view, ranks)
                });
            }
            LoweredGate::Dense {
                controls,
                target,
                mat,
            } => {
                let total = kernels::dense_pattern(controls, target, n).num_items();
                let Some(chunk) = self.par.chunk_size(total) else {
                    kernels::apply_dense(controls, target, &mat, n, &mut self.state);
                    return;
                };
                let view = DisjointSlice::new(&mut self.state);
                self.par.run(total, chunk, &|ranks| {
                    apply_dense_view(controls, target, &mat, n, view, ranks)
                });
            }
        }
    }
}

/// Applies a linear op's rank range through a disjoint-write view, a
/// whole run at a time (the same batched [`qtask_num::slices`] primitives
/// the qTask engine uses, so the comparison stays fair). Distinct rank
/// ranges touch distinct amplitudes, satisfying the view's exclusivity
/// contract; runs within one range are likewise index-disjoint.
fn apply_linear_view(
    op: &LinearOp,
    n_qubits: u8,
    view: DisjointSlice<'_, Complex64>,
    ranks: std::ops::Range<u64>,
) {
    let pattern = op.pattern(n_qubits);
    for run in pattern.iter_runs(ranks) {
        let (low, len) = (run.low_start as usize, run.len as usize);
        match *op {
            LinearOp::Diag { target, d0, d1, .. } => {
                // SAFETY: rank ranges (hence their runs) are disjoint
                // across tasks.
                let slice = unsafe { view.slice_mut(low..low + len) };
                kernels::scale_diag_run(slice, low, target, d0, d1);
            }
            LinearOp::AntiDiag { a01, a10, .. } => {
                let high = pattern.partner(run.low_start) as usize;
                debug_assert!(low + len <= high);
                // SAFETY: as above; the low and partner runs of one task
                // never overlap another task's.
                let (a, b) = unsafe {
                    (
                        view.slice_mut(low..low + len),
                        view.slice_mut(high..high + len),
                    )
                };
                slices::butterfly_slices(a, b, a01, a10);
            }
            LinearOp::Swap { .. } => {
                let high = pattern.partner(run.low_start) as usize;
                debug_assert!(low + len <= high);
                // SAFETY: as above.
                let (a, b) = unsafe {
                    (
                        view.slice_mut(low..low + len),
                        view.slice_mut(high..high + len),
                    )
                };
                a.swap_with_slice(b);
            }
        }
    }
}

/// Dense butterfly over a rank range, through a disjoint-write view —
/// whole-run 2×2 butterflies.
fn apply_dense_view(
    controls: u64,
    target: u8,
    mat: &Mat2,
    n_qubits: u8,
    view: DisjointSlice<'_, Complex64>,
    ranks: std::ops::Range<u64>,
) {
    let pattern = kernels::dense_pattern(controls, target, n_qubits);
    let tbit = 1usize << target;
    for run in pattern.iter_runs(ranks) {
        let (low, len) = (run.low_start as usize, run.len as usize);
        let high = low | tbit;
        debug_assert!(low + len <= high);
        // SAFETY: pair ranks are disjoint across tasks.
        let (a, b) = unsafe {
            (
                view.slice_mut(low..low + len),
                view.slice_mut(high..high + len),
            )
        };
        slices::mat2_butterfly_slices(a, b, mat.at(0, 0), mat.at(0, 1), mat.at(1, 0), mat.at(1, 1));
    }
}

impl Simulator for QulacsLike {
    fn name(&self) -> &str {
        "qulacs-like"
    }

    fn num_qubits(&self) -> u8 {
        self.circuit.num_qubits()
    }

    fn push_net(&mut self) -> NetId {
        self.circuit.push_net()
    }

    fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, CircuitError> {
        self.circuit.insert_gate(kind, net, qubits)
    }

    fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError> {
        self.circuit.remove_gate(gate).map(|_| ())
    }

    fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError> {
        self.circuit.remove_net(net).map(|_| ())
    }

    fn update_state(&mut self) {
        self.state = vecops::ket_zero(self.num_qubits() as usize);
        let gates: Vec<(GateKind, u64, Vec<u8>)> = self
            .circuit
            .ordered_gates()
            .map(|(_, g)| (g.kind(), g.control_mask(), g.targets().to_vec()))
            .collect();
        for (kind, controls, targets) in gates {
            // Barrier between gates: the gate's parallel-for returns only
            // once every chunk completed (the Qulacs synchronization model).
            self.apply_gate_parallel(kind, controls, &targets);
        }
    }

    fn amplitude(&self, idx: usize) -> Complex64 {
        self.state[idx]
    }

    fn state_vec(&self) -> Vec<Complex64> {
        self.state.clone()
    }

    fn num_gates(&self) -> usize {
        self.circuit.num_gates()
    }
}
