//! The simulator protocol shared by qTask and the baselines, and the
//! per-gate parallel-for the multi-threaded baselines share.

use qtask_circuit::{CircuitError, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::Complex64;
use qtask_taskflow::{Executor, NodeId, RetainedGraph};
use std::ops::Range;
use std::sync::Arc;

/// Minimum items per parallel chunk; below this the per-task overhead
/// dominates and a gate is applied serially.
const MIN_PAR_ITEMS: u64 = 4096;

/// A per-gate parallel-for on an executor: a retained graph holding one
/// fan node of `threads * 4` chunks, re-marked dirty and run once per
/// gate. Each chunk maps to one item range of the gate; chunks past the
/// last range do nothing.
pub(crate) struct ParallelFor {
    executor: Arc<Executor>,
    graph: RetainedGraph,
    fan: NodeId,
    chunks: u64,
}

impl ParallelFor {
    /// A parallel-for sized for `executor`'s workers.
    pub(crate) fn new(executor: Arc<Executor>) -> ParallelFor {
        let chunks = executor.num_threads() as u64 * 4;
        let mut graph = RetainedGraph::new();
        let fan = graph.insert(0, chunks as u32, Arc::from("gate-chunk"));
        ParallelFor {
            executor,
            graph,
            fan,
            chunks,
        }
    }

    /// Items per chunk for a gate of `total` items, or `None` if the gate
    /// is too small to split and should be applied serially. At most
    /// `threads * 4` chunks of this size cover `total`.
    pub(crate) fn chunk_size(&self, total: u64) -> Option<u64> {
        let chunk = total.div_ceil(self.chunks).max(MIN_PAR_ITEMS);
        (chunk < total).then_some(chunk)
    }

    /// Runs `body` on every `chunk`-item range of `0..total` in parallel
    /// and returns once all of them finished: the barrier between gates.
    ///
    /// # Panics
    /// Re-raises a panic of `body` as a panic of the caller.
    pub(crate) fn run(&mut self, total: u64, chunk: u64, body: &(dyn Fn(Range<u64>) + Sync)) {
        self.graph.mark_dirty(self.fan);
        let invoke = |_: u64, c: u32| {
            let start = u64::from(c) * chunk;
            if start < total {
                body(start..(start + chunk).min(total));
            }
        };
        if let Err(panic) = self.executor.run_dirty(&mut self.graph, &invoke) {
            panic!("{panic}");
        }
    }
}

/// A state-vector simulator driven by the benchmark protocol: circuit
/// modifiers followed by update calls (incremental for qTask, full
/// re-simulation for the baselines), then state queries.
pub trait Simulator {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Number of qubits.
    fn num_qubits(&self) -> u8;

    /// Appends an empty net.
    fn push_net(&mut self) -> NetId;

    /// Inserts a gate into a net.
    fn insert_gate(
        &mut self,
        kind: GateKind,
        net: NetId,
        qubits: &[u8],
    ) -> Result<GateId, CircuitError>;

    /// Removes a gate.
    fn remove_gate(&mut self, gate: GateId) -> Result<(), CircuitError>;

    /// Removes a net and all its gates.
    fn remove_net(&mut self, net: NetId) -> Result<(), CircuitError>;

    /// Brings the state up to date with the circuit.
    fn update_state(&mut self);

    /// The amplitude of basis state `idx` (after `update_state`).
    fn amplitude(&self, idx: usize) -> Complex64;

    /// The full state vector (after `update_state`).
    fn state_vec(&self) -> Vec<Complex64>;

    /// Gate count (diagnostics).
    fn num_gates(&self) -> usize;
}
