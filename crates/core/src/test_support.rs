//! Hidden hooks for the workspace's own integration tests.
//!
//! The allocation-profile test (`tests/mxv_alloc.rs`) must re-run the MxV
//! execution path *in isolation* — outside `update_state`, whose graph
//! construction legitimately allocates — inside a binary whose global
//! allocator counts every heap call. The engine internals it needs are
//! `pub(crate)`, so this module re-exposes exactly the two operations the
//! test performs. Not a public API; hidden from docs and subject to
//! change.
//!
//! The engine's own published snapshot pins every final block, so a
//! re-executing partition could not reclaim its buffer. The hooks
//! therefore first detach the partitions' blocks from that snapshot, as
//! `update_state` does before execution.

use crate::engine::Ckt;
use crate::exec::{self, ExecView};
use crate::row::{PartId, RowKind};

/// All partitions of MxV rows, in row order.
pub fn mxv_partitions(ckt: &Ckt) -> Vec<PartId> {
    partitions_of_kind(ckt, |kind| matches!(kind, RowKind::MxV))
}

/// All partitions of linear rows, in row order.
pub fn linear_partitions(ckt: &Ckt) -> Vec<PartId> {
    partitions_of_kind(ckt, |kind| matches!(kind, RowKind::Linear(_)))
}

fn partitions_of_kind(ckt: &Ckt, want: impl Fn(&RowKind) -> bool) -> Vec<PartId> {
    ckt.rows
        .keys()
        .filter(|k| want(&ckt.rows[*k].kind))
        .flat_map(|k| ckt.rows[k].parts.clone())
        .collect()
}

pub(crate) fn exec_view(ckt: &Ckt) -> ExecView<'_> {
    ExecView {
        rows: &ckt.rows,
        parts: &ckt.parts,
        owners: &ckt.owners,
        stats: &ckt.resolve_stats,
        geom: ckt.geom,
        n_qubits: ckt.num_qubits(),
    }
}

/// Detaches the blocks of `pids` from the engine's published snapshot,
/// as `update_state` does before execution, so the partitions can
/// reclaim their buffers. The detached spine is dropped, not republished
/// — publication allocates the snapshot handle — so the next
/// `update_state` recaptures every block. A no-op once detached, which
/// keeps repeated calls allocation-free.
fn detach_from_snapshot(ckt: &mut Ckt, pids: &[PartId]) {
    if ckt.latest.is_some() {
        drop(ckt.detach_for_rewrite(pids));
    }
}

/// Re-executes the given MxV partitions once, serially, on the calling
/// thread — the body an incremental update would run for them.
pub fn reexec_mxv_partitions(ckt: &mut Ckt, pids: &[PartId]) {
    detach_from_snapshot(ckt, pids);
    let view = exec_view(ckt);
    for &pid in pids {
        exec::exec_mxv_partition(view, pid);
    }
}

/// Re-executes the given linear partitions once, serially, on the
/// calling thread, each as a single whole-range task (the `n_tasks <= 1`
/// shape of `update_state`). Idempotent: tasks re-materialize their
/// blocks from the *previous* row's resolved content before applying the
/// gate.
pub fn reexec_linear_partitions(ckt: &mut Ckt, pids: &[PartId]) {
    detach_from_snapshot(ckt, pids);
    let view = exec_view(ckt);
    for &pid in pids {
        let ranks = {
            let spec = &ckt.parts[pid.key()].spec;
            spec.item_start..spec.item_end
        };
        exec::exec_linear_partition(view, pid, ranks);
    }
}
