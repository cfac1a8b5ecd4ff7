//! Partition execution kernels over copy-on-write blocks.
//!
//! A linear partition task materializes fresh copies of the blocks its
//! items touch (reading through the COW chain of the *previous* row),
//! applies the swap/scale items, and publishes the blocks into its row's
//! vector. Distinct tasks of one partition touch disjoint blocks — the
//! chunk size equals the power-of-two block size and task boundaries align
//! with the scattered-bit structure of the item pattern — so tasks
//! publish independently with no synchronization beyond the slot locks.
//!
//! An MxV partition computes one output block of the net's grouped
//! superposition operator: each output amplitude accumulates its fused
//! sparse row ([`crate::fused::FusedOp`], precomputed once per group
//! change) against sources read through the COW chain.
//!
//! Linear items are applied a whole *run* at a time: the item pattern
//! decomposes into maximal contiguous low-index stretches
//! ([`qtask_partition::ItemPattern::iter_runs`]), so Diag becomes strided
//! slice scaling and AntiDiag/Swap become two-slice butterflies over the
//! block buffers — the autovectorized primitives in [`qtask_num::slices`].
//! The kernel is a fact of the input, not a setting: a pattern whose
//! runs are single items (`run_len_log2() == 0`) takes the
//! one-amplitude-at-a-time loop, and an MxV row whose group is too wide
//! to fuse ([`FusedOp::MAX_SIG_BITS`]) expands its factor product per
//! amplitude. The unit tests below pin both pairs bit-for-bit.
//!
//! Steady-state incremental updates are allocation-free: re-executing
//! partitions reclaim their previously published buffers *with* their
//! `Arc` wrapper ([`crate::cow::RowVector::take_reusable_arc`]), mutate in
//! place, and republish the same allocation.

use crate::cow::{self, BlockData, Resolved};
use crate::fused::FusedOp;
use crate::owners::{OwnerIndex, ResolveStats};
use crate::row::{PartId, Partition, Row, RowId, RowKind};
use qtask_num::{slices, Complex64};
use qtask_partition::{kernels, BlockGeometry, LinearOp};
use qtask_util::{Arena, LinkedArena};
use std::cell::Cell;
use std::sync::Arc;

/// Shared read-only view of the engine internals used by executing tasks.
/// Mutation happens only through the row vectors' slot locks and the
/// owner index's per-block locks.
#[derive(Clone, Copy)]
pub struct ExecView<'a> {
    /// All rows in order.
    pub rows: &'a LinkedArena<Row>,
    /// All partitions.
    pub parts: &'a Arena<Partition>,
    /// Per-block owner lists.
    pub owners: &'a OwnerIndex,
    /// Resolution counters for the current update.
    pub stats: &'a ResolveStats,
    /// Block geometry.
    pub geom: BlockGeometry,
    /// Qubit count.
    pub n_qubits: u8,
}

impl<'a> ExecView<'a> {
    #[inline]
    fn label_of(&self, row: RowId) -> u64 {
        self.rows
            .order_label(row.key())
            .expect("owner index holds only live rows")
    }

    /// Resolves block `b` as seen *before* `row` (i.e. the previous row's
    /// logical content): a binary search of the block's owner list.
    pub fn resolve_before(&self, row: RowId, b: usize) -> Resolved {
        self.owners
            .resolve_before(
                b,
                self.label_of(row),
                |r| self.label_of(r),
                |r| self.rows[r.key()].vector.owned(b),
                self.stats,
            )
            .map_or(Resolved::Initial, Resolved::Data)
    }

    /// Publishes `data` as block `b` of `row`, registering the row in the
    /// owner index. All executor-side publications go through here so the
    /// index never misses an ownership change — and so one probe covers
    /// every publication (`exec/publish_row` panics mid-publish;
    /// `exec/corrupt_row` poisons an amplitude with NaN/Inf to exercise
    /// the numerical policy).
    pub fn publish(&self, row_id: RowId, row: &Row, b: usize, data: BlockData) {
        qtask_faults::fault_point!("exec/publish_row");
        #[cfg(feature = "faults")]
        let mut data = data;
        qtask_faults::fault_point_corrupt!("exec/corrupt_row", |v: f64| {
            if let Some(buf) = Arc::get_mut(&mut data) {
                if let Some(z) = buf.first_mut() {
                    *z = Complex64 { re: v, im: v };
                }
            }
        });
        row.vector.publish(b, data);
        self.owners.add(b, row_id, |r| self.label_of(r));
    }
}

thread_local! {
    /// The calling thread's [`BlockSet`] entry vector, lent to one task
    /// at a time. A worker runs one task at a time, so one vector per
    /// thread serves every partition, and once it has grown to the widest
    /// task's working set, tasks allocate nothing for their bookkeeping.
    static BLOCK_SCRATCH: Cell<Vec<(usize, BlockData)>> = const { Cell::new(Vec::new()) };
}

/// A small ordered working set of materialized blocks for one task. Each
/// entry keeps its `Arc` (uniquely owned by construction), so
/// publication moves the allocation instead of re-wrapping it. The entry
/// vector itself is borrowed from the thread's scratch and returned after
/// publication, so warm re-executions allocate nothing.
struct BlockSet {
    entries: Vec<(usize, BlockData)>,
}

impl BlockSet {
    /// Borrows the thread's entry vector (a task that panicked mid-way
    /// took it with it; the next task then starts an empty one).
    fn from_scratch() -> BlockSet {
        let entries = BLOCK_SCRATCH.take();
        debug_assert!(entries.is_empty(), "scratch returned drained");
        BlockSet { entries }
    }

    /// Index of block `b`, materializing it from `view` if needed. The
    /// row's stale output buffer for `b` is reclaimed when uniquely owned,
    /// so repeated incremental updates allocate nothing.
    fn ensure(&mut self, view: &ExecView<'_>, row_id: RowId, row: &Row, b: usize) -> usize {
        // Blocks arrive in short runs; scan from the back.
        if let Some(pos) = self.entries.iter().rposition(|(blk, _)| *blk == b) {
            return pos;
        }
        let resolved = view.resolve_before(row_id, b);
        let data = match row.vector.take_reusable_arc(b) {
            Some(mut arc) => {
                let buf = Arc::get_mut(&mut arc).expect("reclaimed buffer is unique");
                resolved.fill_into(b, buf);
                arc
            }
            None => {
                // Simulated allocation failure lands here: the cold path
                // that materializes a fresh working buffer.
                qtask_faults::fault_point!("exec/alloc_block");
                resolved.to_block(b, view.geom.block_size())
            }
        };
        self.entries.push((b, data));
        self.entries.len() - 1
    }

    /// Mutable buffer of entry `i`.
    #[inline]
    fn buf_mut(&mut self, i: usize) -> &mut [Complex64] {
        Arc::get_mut(&mut self.entries[i].1).expect("working blocks are unique")
    }

    /// Two distinct mutable buffers.
    fn pair_mut(&mut self, i: usize, j: usize) -> (&mut [Complex64], &mut [Complex64]) {
        debug_assert_ne!(i, j);
        let (lo, hi, swap) = if i < j { (i, j, false) } else { (j, i, true) };
        let (a, b) = self.entries.split_at_mut(hi);
        let first = Arc::get_mut(&mut a[lo].1).expect("working blocks are unique");
        let second = Arc::get_mut(&mut b[0].1).expect("working blocks are unique");
        if swap {
            (second, first)
        } else {
            (first, second)
        }
    }

    /// Publishes every materialized block and returns the drained entry
    /// vector to the thread's scratch. Tasks of one partition touch
    /// disjoint blocks, so these publications never collide.
    fn publish(mut self, view: &ExecView<'_>, row_id: RowId, row: &Row) {
        for (b, data) in self.entries.drain(..) {
            view.publish(row_id, row, b, data);
        }
        BLOCK_SCRATCH.set(self.entries);
    }
}

/// Executes the item-rank range `ranks` of a linear partition: the body of
/// one intra-partition task.
pub fn exec_linear_partition(view: ExecView<'_>, pid: PartId, ranks: std::ops::Range<u64>) {
    qtask_faults::fault_point!("exec/linear_task");
    let part = &view.parts[pid.key()];
    let row_id = part.row;
    let row = &view.rows[row_id.key()];
    let RowKind::Linear(op) = row.kind else {
        unreachable!("linear execution on non-linear row");
    };
    let pattern = op.pattern(view.n_qubits);
    let mut blocks = BlockSet::from_scratch();
    // Run decomposition only pays when runs are real (length > 1).
    if pattern.run_len_log2() > 0 {
        linear_batched(&view, row_id, row, &op, &pattern, &mut blocks, ranks);
    } else {
        linear_scalar(&view, row_id, row, &op, &pattern, &mut blocks, ranks);
    }
    blocks.publish(&view, row_id, row);
}

/// The scalar item loop: one amplitude (pair) per step — the kernel for
/// patterns whose runs are single items.
fn linear_scalar(
    view: &ExecView<'_>,
    row_id: RowId,
    row: &Row,
    op: &LinearOp,
    pattern: &qtask_partition::ItemPattern,
    blocks: &mut BlockSet,
    ranks: std::ops::Range<u64>,
) {
    let geom = &view.geom;
    for low in pattern.iter_lows(ranks) {
        let low = low as usize;
        match *op {
            LinearOp::Diag { target, d0, d1, .. } => {
                let pos = blocks.ensure(view, row_id, row, geom.block_of(low));
                let off = geom.offset_in_block(low);
                let d = if low & (1usize << target) != 0 {
                    d1
                } else {
                    d0
                };
                blocks.buf_mut(pos)[off] *= d;
            }
            LinearOp::AntiDiag { a01, a10, .. } => {
                let high = pattern.partner(low as u64) as usize;
                let (bl, bh) = (geom.block_of(low), geom.block_of(high));
                let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
                if bl == bh {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    let buf = blocks.buf_mut(pos);
                    let (x, y) = (buf[ol], buf[oh]);
                    buf[ol] = a01 * y;
                    buf[oh] = a10 * x;
                } else {
                    let pl = blocks.ensure(view, row_id, row, bl);
                    let ph = blocks.ensure(view, row_id, row, bh);
                    let (bufl, bufh) = blocks.pair_mut(pl, ph);
                    let (x, y) = (bufl[ol], bufh[oh]);
                    bufl[ol] = a01 * y;
                    bufh[oh] = a10 * x;
                }
            }
            LinearOp::Swap { .. } => {
                let high = pattern.partner(low as u64) as usize;
                let (bl, bh) = (geom.block_of(low), geom.block_of(high));
                let (ol, oh) = (geom.offset_in_block(low), geom.offset_in_block(high));
                if bl == bh {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    blocks.buf_mut(pos).swap(ol, oh);
                } else {
                    let pl = blocks.ensure(view, row_id, row, bl);
                    let ph = blocks.ensure(view, row_id, row, bh);
                    let (bufl, bufh) = blocks.pair_mut(pl, ph);
                    std::mem::swap(&mut bufl[ol], &mut bufh[oh]);
                }
            }
        }
    }
}

/// The batched path: whole runs of consecutive items applied as slice
/// operations, split at block boundaries.
///
/// Geometry invariants (checked by debug asserts): a run's low indices are
/// consecutive and start aligned to the run span, so with power-of-two
/// blocks a segment clipped at a low-side block boundary never straddles a
/// boundary on the partner side — the partner offset is the low offset
/// shifted by a constant that is either block-local or a whole multiple of
/// the block size.
fn linear_batched(
    view: &ExecView<'_>,
    row_id: RowId,
    row: &Row,
    op: &LinearOp,
    pattern: &qtask_partition::ItemPattern,
    blocks: &mut BlockSet,
    ranks: std::ops::Range<u64>,
) {
    let geom = &view.geom;
    let bs = geom.block_size();
    for run in pattern.iter_runs(ranks) {
        let len = run.len as usize;
        let mut done = 0usize;
        while done < len {
            let low = run.low_start as usize + done;
            let bl = geom.block_of(low);
            let ol = geom.offset_in_block(low);
            let seg = (bs - ol).min(len - done);
            match *op {
                LinearOp::Diag { target, d0, d1, .. } => {
                    let pos = blocks.ensure(view, row_id, row, bl);
                    let buf = blocks.buf_mut(pos);
                    kernels::scale_diag_run(&mut buf[ol..ol + seg], low, target, d0, d1);
                }
                LinearOp::AntiDiag { a01, a10, .. } => {
                    let high = pattern.partner(low as u64) as usize;
                    let (bh, oh) = (geom.block_of(high), geom.offset_in_block(high));
                    debug_assert!(oh + seg <= bs, "partner run straddles a block");
                    if bl == bh {
                        let pos = blocks.ensure(view, row_id, row, bl);
                        let buf = blocks.buf_mut(pos);
                        debug_assert!(ol + seg <= oh, "pair slices overlap");
                        let (a, b) = buf.split_at_mut(oh);
                        slices::butterfly_slices(&mut a[ol..ol + seg], &mut b[..seg], a01, a10);
                    } else {
                        let pl = blocks.ensure(view, row_id, row, bl);
                        let ph = blocks.ensure(view, row_id, row, bh);
                        let (bufl, bufh) = blocks.pair_mut(pl, ph);
                        slices::butterfly_slices(
                            &mut bufl[ol..ol + seg],
                            &mut bufh[oh..oh + seg],
                            a01,
                            a10,
                        );
                    }
                }
                LinearOp::Swap { .. } => {
                    let high = pattern.partner(low as u64) as usize;
                    let (bh, oh) = (geom.block_of(high), geom.offset_in_block(high));
                    debug_assert!(oh + seg <= bs, "partner run straddles a block");
                    if bl == bh {
                        let pos = blocks.ensure(view, row_id, row, bl);
                        let buf = blocks.buf_mut(pos);
                        debug_assert!(ol + seg <= oh, "pair slices overlap");
                        let (a, b) = buf.split_at_mut(oh);
                        a[ol..ol + seg].swap_with_slice(&mut b[..seg]);
                    } else {
                        let pl = blocks.ensure(view, row_id, row, bl);
                        let ph = blocks.ensure(view, row_id, row, bh);
                        let (bufl, bufh) = blocks.pair_mut(pl, ph);
                        bufl[ol..ol + seg].swap_with_slice(&mut bufh[oh..oh + seg]);
                    }
                }
            }
            done += seg;
        }
    }
}

/// Resolved source blocks of one MxV task, in a fixed-capacity cache:
/// sources cluster into at most `2^g` distinct blocks, so [`Self::CAP`]
/// slots cover every practical group without heap allocation. Overflow
/// reads fall through to direct resolution (correct, just uncached).
struct SourceCache {
    entries: [Option<(usize, Resolved)>; SourceCache::CAP],
    len: usize,
}

impl SourceCache {
    /// Covers every distinct source block of a group with `2^g ≤ 16`
    /// fused entries; wider groups (signature near `MAX_SIG_BITS`) spill
    /// to uncached resolution, trading lookups for zero allocation.
    const CAP: usize = 16;

    fn new() -> SourceCache {
        SourceCache {
            entries: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    #[inline]
    fn read(&mut self, view: &ExecView<'_>, row_id: RowId, sb: usize, so: usize) -> Complex64 {
        for e in self.entries[..self.len].iter().flatten() {
            if e.0 == sb {
                return e.1.read(sb, so);
            }
        }
        let resolved = view.resolve_before(row_id, sb);
        let v = resolved.read(sb, so);
        if self.len < Self::CAP {
            self.entries[self.len] = Some((sb, resolved));
            self.len += 1;
        }
        v
    }
}

/// Executes one MxV partition: computes its single output block of the
/// net's grouped superposition operator.
pub fn exec_mxv_partition(view: ExecView<'_>, pid: PartId) {
    qtask_faults::fault_point!("exec/mxv_task");
    let part = &view.parts[pid.key()];
    let row_id = part.row;
    let row = &view.rows[row_id.key()];
    debug_assert!(matches!(row.kind, RowKind::MxV));
    debug_assert_eq!(part.spec.block_lo, part.spec.block_hi);
    let block = part.spec.block_lo as usize;
    let geom = &view.geom;
    let bs = geom.block_size();
    let base = block * bs;
    let mut out_arc = row.vector.take_reusable_arc(block).unwrap_or_else(|| {
        qtask_faults::fault_point!("exec/alloc_block");
        cow::new_block(bs)
    });
    let out = Arc::get_mut(&mut out_arc).expect("output buffer is unique");
    match row.fused {
        Some(ref fused) => mxv_fused(&view, row_id, fused, base, out),
        None => mxv_scalar(&view, row_id, row, base, out),
    }
    view.publish(row_id, row, block, out_arc);
}

/// The fused path: per amplitude, gather the signature bits, look up the
/// precomputed sparse row, multiply-accumulate. Zero heap allocation.
///
/// When no signature bit lies inside the block (every control and target
/// at or above the block width), the whole output block shares one fused
/// row and each entry's sources form one whole source block at identical
/// offsets — the accumulation collapses to one
/// [`slices::accumulate_scaled`] per entry, resolving each source block
/// once per block instead of once per amplitude. Both paths add the same
/// terms in the same order, so results stay `==`-identical.
fn mxv_fused(
    view: &ExecView<'_>,
    row_id: RowId,
    fused: &FusedOp,
    base: usize,
    out: &mut [Complex64],
) {
    let geom = &view.geom;
    if fused.sig_mask() & (out.len() as u64 - 1) == 0 {
        out.fill(Complex64::ZERO);
        for &(xor, coef) in fused.row_of(base as u64) {
            // xor ⊆ sig bits, all ≥ the block width: same in-block offset.
            let sb = geom.block_of(base ^ (xor as usize));
            match view.resolve_before(row_id, sb) {
                Resolved::Data(d) => slices::accumulate_scaled(out, &d, coef),
                Resolved::Initial => {
                    if sb == 0 {
                        out[0] += coef;
                    }
                }
            }
        }
        return;
    }
    let mut cache = SourceCache::new();
    for (off, out_v) in out.iter_mut().enumerate() {
        let i = (base + off) as u64;
        let mut acc = Complex64::ZERO;
        for &(xor, coef) in fused.row_of(i) {
            let src = (i ^ xor) as usize;
            let sb = geom.block_of(src);
            let so = geom.offset_in_block(src);
            acc += coef * cache.read(view, row_id, sb, so);
        }
        *out_v = acc;
    }
}

/// The scalar path: re-expand the factor product for every output
/// amplitude ("recursive tensor products… stop at zero and identity
/// patterns"). The kernel for groups whose signature exceeds
/// [`FusedOp::MAX_SIG_BITS`], so no fused row table was built.
fn mxv_scalar(view: &ExecView<'_>, row_id: RowId, row: &Row, base: usize, out: &mut [Complex64]) {
    let geom = &view.geom;
    // Resolved source-block cache (sources cluster into few blocks).
    let mut cache: Vec<(usize, Resolved)> = Vec::with_capacity(4);
    // Scratch contribution lists, reused across output amplitudes.
    let mut contrib: Vec<(u64, Complex64)> = Vec::with_capacity(8);
    let mut next: Vec<(u64, Complex64)> = Vec::with_capacity(8);
    let tol = qtask_gates::class::CLASSIFY_TOL;
    for (off, out_v) in out.iter_mut().enumerate() {
        let i = (base + off) as u64;
        contrib.clear();
        contrib.push((i, Complex64::ONE));
        for f in &row.dense {
            if i & f.controls != f.controls {
                continue; // identity row of this factor
            }
            let tbit = 1u64 << f.target;
            let out_bit = usize::from(i & tbit != 0);
            next.clear();
            for &(src, coef) in &contrib {
                for (in_bit, m) in [(0usize, f.mat.at(out_bit, 0)), (1, f.mat.at(out_bit, 1))] {
                    if m.is_zero(tol) {
                        continue;
                    }
                    let nsrc = if in_bit == 0 { src & !tbit } else { src | tbit };
                    next.push((nsrc, coef * m));
                }
            }
            std::mem::swap(&mut contrib, &mut next);
        }
        let mut acc = Complex64::ZERO;
        for &(src, coef) in &contrib {
            let sb = geom.block_of(src as usize);
            let so = geom.offset_in_block(src as usize);
            let resolved = match cache.iter().rposition(|(b, _)| *b == sb) {
                Some(pos) => &cache[pos].1,
                None => {
                    let r = view.resolve_before(row_id, sb);
                    cache.push((sb, r));
                    &cache.last().unwrap().1
                }
            };
            acc += coef * resolved.read(sb, so);
        }
        *out_v = acc;
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_circuits;

#[cfg(test)]
mod tests {
    use super::test_circuits::{random_circuit, NetGates};
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Ckt;
    use crate::test_support;
    use qtask_gates::GateKind;
    use rand::prelude::*;

    fn build(n: u8, block_size: usize, mxv_cap: usize, nets: &NetGates) -> Ckt {
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 1;
        cfg.mxv_group_max = mxv_cap;
        let mut ckt = Ckt::with_config(n, cfg);
        for gates in nets {
            let net = ckt.push_net();
            for (kind, qubits) in gates {
                ckt.insert_gate(*kind, net, qubits).unwrap();
            }
        }
        ckt.update_state().unwrap();
        ckt
    }

    /// Runs both linear kernels over a whole partition into fresh blocks
    /// (the caller pins every row buffer, so nothing is reclaimed) and
    /// returns each kernel's blocks sorted, unpublished.
    fn run_linear(ckt: &Ckt, pid: PartId) -> [Vec<(usize, BlockData)>; 2] {
        let view = test_support::exec_view(ckt);
        let part = &ckt.parts[pid.key()];
        let row = &ckt.rows[part.row.key()];
        let RowKind::Linear(op) = row.kind else {
            unreachable!("linear partition");
        };
        let pattern = op.pattern(view.n_qubits);
        let ranks = part.spec.item_start..part.spec.item_end;
        let mut sets = [(); 2].map(|_| BlockSet {
            entries: Vec::new(),
        });
        linear_batched(
            &view,
            part.row,
            row,
            &op,
            &pattern,
            &mut sets[0],
            ranks.clone(),
        );
        linear_scalar(&view, part.row, row, &op, &pattern, &mut sets[1], ranks);
        sets.map(|mut set| {
            set.entries.sort_by_key(|(b, _)| *b);
            set.entries
        })
    }

    /// Runs both MxV kernels on one partition into fresh output buffers.
    fn run_mxv(ckt: &Ckt, pid: PartId) -> Option<(Vec<Complex64>, Vec<Complex64>)> {
        let view = test_support::exec_view(ckt);
        let part = &ckt.parts[pid.key()];
        let row = &ckt.rows[part.row.key()];
        let fused = row.fused.as_ref()?;
        let bs = view.geom.block_size();
        let base = part.spec.block_lo as usize * bs;
        let mut fused_out = vec![Complex64::ZERO; bs];
        let mut scalar_out = vec![Complex64::ZERO; bs];
        mxv_fused(&view, part.row, fused, base, &mut fused_out);
        mxv_scalar(&view, part.row, row, base, &mut scalar_out);
        Some((fused_out, scalar_out))
    }

    /// Asserts batched ≡ scalar bit-for-bit on every partition of `ckt`.
    /// Returns how many (linear, MxV) partitions were compared.
    fn assert_kernels_agree(ckt: &Ckt, what: &str) -> (usize, usize) {
        // Pin every row buffer, so the kernels materialize fresh copies
        // instead of reclaiming (and unpublishing) the rows' outputs.
        let _pins: Vec<BlockData> = ckt
            .rows
            .keys()
            .flat_map(|k| {
                (0..ckt.geom.num_blocks()).filter_map(move |b| ckt.rows[k].vector.owned(b))
            })
            .collect();
        let linear = test_support::linear_partitions(ckt);
        for &pid in &linear {
            let [batched, scalar] = run_linear(ckt, pid);
            assert_eq!(batched, scalar, "{what}: linear batched vs scalar diverged");
        }
        let mut mxv = 0;
        for pid in test_support::mxv_partitions(ckt) {
            if let Some((fused, scalar)) = run_mxv(ckt, pid) {
                assert_eq!(fused, scalar, "{what}: fused vs scalar MxV diverged");
                mxv += 1;
            }
        }
        (linear.len(), mxv)
    }

    /// The batched kernels (run slices, fused MxV rows) perform the same
    /// floating-point operations as the scalar loops, so on random
    /// circuits over random block geometries and group caps they agree
    /// bit-for-bit, partition by partition.
    #[test]
    fn random_circuits_batched_kernels_match_scalar_exactly() {
        let mut rng = StdRng::seed_from_u64(20260729);
        let (mut linear, mut mxv) = (0, 0);
        for case in 0..60u64 {
            let n = rng.random_range(3..=8u8);
            let block_size = 1usize << rng.random_range(0..=5u32);
            let mxv_cap = rng.random_range(1..=3);
            let nets = random_circuit(&mut rng, n);
            let ckt = build(n, block_size, mxv_cap, &nets);
            let (l, m) = assert_kernels_agree(
                &ckt,
                &format!("case {case} (n={n}, B={block_size}, cap={mxv_cap})"),
            );
            linear += l;
            mxv += m;
        }
        assert!(linear > 100 && mxv > 100, "{linear} linear, {mxv} MxV");
    }

    /// The fused MxV path agrees with the per-amplitude factor expansion
    /// bit-for-bit on a two-factor group whose signature spans in-block
    /// and cross-block bits.
    #[test]
    fn scalar_and_fused_mxv_agree_exactly() {
        let nets = vec![vec![
            (GateKind::H, vec![0]),
            (GateKind::U3(0.3, 0.8, 1.1), vec![3]),
        ]];
        let ckt = build(5, 4, 2, &nets);
        let (_, mxv) = assert_kernels_agree(&ckt, "H(0) U3(3)");
        assert_eq!(mxv, ckt.geom.num_blocks());
    }

    /// When every signature bit sits at or above the block width, the
    /// fused path takes the whole-block `accumulate_scaled` shortcut —
    /// and must still agree exactly with the scalar expansion.
    #[test]
    fn whole_block_fused_path_agrees_exactly() {
        // Targets 3 and 5 and control 4 are all ≥ log2(block) = 2:
        // sig_mask & (block-1) == 0 → block-uniform fused rows.
        let nets = vec![
            vec![(GateKind::H, vec![3]), (GateKind::Ch, vec![4, 5])],
            vec![(GateKind::U3(0.7, 0.2, 1.9), vec![5])],
        ];
        let ckt = build(6, 4, 2, &nets);
        for pid in test_support::mxv_partitions(&ckt) {
            let fused = ckt.rows[ckt.parts[pid.key()].row.key()].fused.as_ref();
            assert_eq!(fused.unwrap().sig_mask() & 3, 0, "block-uniform rows");
        }
        assert_kernels_agree(&ckt, "whole-block group");
        let norm: f64 = ckt.state().iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }
}
