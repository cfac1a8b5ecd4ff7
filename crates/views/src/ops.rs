//! The view operators: per-block partial aggregates over a snapshot,
//! patchable in O(|Δ∩B|) from a [`BlockDelta`].
//!
//! Every operator follows the same discipline:
//!
//! * **Unscaled partials.** Per-block aggregates are computed from the
//!   snapshot's raw (unscaled) amplitudes; the renormalization scale is
//!   applied once at [`View::value`]. A publication that only changed
//!   the scale (Renormalize drift with an empty write set) therefore
//!   re-weights every view in O(1) — no block is rescanned.
//! * **Subtract-old / add-new.** [`View::patch`] retires each dirty
//!   block's stale contribution from the running total, rescans exactly
//!   that block, and adds the fresh contribution back. Applying the same
//!   patch twice is a no-op (the partial converges to the same value),
//!   which keeps patching restartable.
//! * **Support closure.** An operator whose block-b partial reads other
//!   blocks (the off-diagonal Pauli pairing) widens the dirty set to the
//!   blocks whose partials could observe the change — the analogue of
//!   cynos's Min/Max re-scan rule.
//!
//! [`NormView`] is the exception: the engine already computes every
//! block's norm at publication, so the view reads the snapshot's total
//! instead of keeping a second set of per-block partials.

use crate::value::{PatchStats, ViewValue};
use qtask_core::{BlockDelta, StateSnapshot};
use qtask_num::{c64, Complex64};
use std::sync::Arc;

/// A materialized view over the published state: holds per-block partial
/// aggregates and a running total, maintained by delta propagation.
///
/// Implementations must keep [`View::patch`] equivalent to a
/// [`View::refresh`] at the same version — the differential suite
/// asserts it at every published version, drift events and removals
/// included.
pub trait View: Send {
    /// Human-readable label (used by registries and subscriptions).
    fn label(&self) -> &str;

    /// Rebuilds every partial from scratch against `snap`.
    fn refresh(&mut self, snap: &StateSnapshot);

    /// Patches the partials for `delta`'s dirty blocks against `snap`.
    /// Only sound when this view was last refreshed/patched at
    /// `delta.prev_version` — the registry enforces that and falls back
    /// to [`View::refresh`] on any gap.
    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats;

    /// The current (scaled) value.
    fn value(&self) -> ViewValue;
}

/// The raw (unscaled) amplitude of basis state `idx` in `snap`.
fn raw_amp(snap: &StateSnapshot, idx: usize) -> Complex64 {
    let geom = snap.geometry();
    match snap.raw_block(geom.block_of(idx)) {
        Some(d) => d[geom.offset_in_block(idx)],
        None => {
            if idx == 0 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        }
    }
}

// ---- NormView -----------------------------------------------------------

/// Maintains Σ|ψ|² — the snapshot's [`StateSnapshot::norm_sqr`] as a
/// materialized view. It keeps no per-block state: the engine computes
/// each block's norm once, at publication, and the snapshot carries the
/// total, so refresh and patch are both O(1) reads of it.
#[derive(Default)]
pub struct NormView {
    value: f64,
}

impl NormView {
    pub fn new() -> NormView {
        NormView::default()
    }
}

impl View for NormView {
    fn label(&self) -> &str {
        "norm"
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        self.value = snap.norm_sqr();
    }

    fn patch(&mut self, snap: &StateSnapshot, _delta: &BlockDelta) -> PatchStats {
        self.value = snap.norm_sqr();
        PatchStats { blocks_scanned: 0 }
    }

    fn value(&self) -> ViewValue {
        ViewValue::Scalar(self.value)
    }
}

// ---- ProbabilityView ----------------------------------------------------

enum ProbKind {
    /// One basis state's probability.
    Basis(usize),
    /// Marginal distribution over a qubit subset (output bit k of the
    /// distribution index is qubit `qubits[k]` of the basis state).
    Marginal(Vec<u8>),
}

/// Maintains basis-state or marginal probabilities. Per-block partials
/// are a `dims`-long histogram (dims = 1 for basis, 2^k for a k-qubit
/// marginal), so a patch costs O(|Δ∩B| · block) regardless of depth.
pub struct ProbabilityView {
    kind: ProbKind,
    dims: usize,
    /// `num_blocks × dims`, row-major by block.
    partials: Vec<f64>,
    totals: Vec<f64>,
    scale: f64,
    label: String,
}

fn marginal_index(j: usize, qubits: &[u8]) -> usize {
    qubits
        .iter()
        .enumerate()
        .map(|(k, &q)| ((j >> q) & 1) << k)
        .sum()
}

fn prob_partial(kind: &ProbKind, snap: &StateSnapshot, b: usize, out: &mut [f64]) {
    out.fill(0.0);
    let geom = snap.geometry();
    match kind {
        ProbKind::Basis(idx) => {
            if geom.block_of(*idx) == b {
                out[0] = raw_amp(snap, *idx).norm_sqr();
            }
        }
        ProbKind::Marginal(qubits) => {
            let bs = geom.block_size();
            match snap.raw_block(b) {
                Some(d) => {
                    for (off, z) in d.iter().enumerate() {
                        out[marginal_index(b * bs + off, qubits)] += z.norm_sqr();
                    }
                }
                None => {
                    if b == 0 {
                        out[marginal_index(0, qubits)] += 1.0;
                    }
                }
            }
        }
    }
}

impl ProbabilityView {
    /// The probability of one basis state (a scalar view).
    pub fn basis(idx: usize) -> ProbabilityView {
        ProbabilityView {
            label: format!("prob[{idx}]"),
            kind: ProbKind::Basis(idx),
            dims: 1,
            partials: Vec::new(),
            totals: Vec::new(),
            scale: 1.0,
        }
    }

    /// The marginal distribution over `qubits` (a 2^k vector view; bit k
    /// of the distribution index is `qubits[k]`).
    pub fn marginal(qubits: Vec<u8>) -> ProbabilityView {
        ProbabilityView {
            label: format!("marginal{qubits:?}"),
            dims: 1 << qubits.len(),
            kind: ProbKind::Marginal(qubits),
            partials: Vec::new(),
            totals: Vec::new(),
            scale: 1.0,
        }
    }
}

impl View for ProbabilityView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        let nb = snap.geometry().num_blocks();
        self.partials.clear();
        self.partials.resize(nb * self.dims, 0.0);
        self.totals.clear();
        self.totals.resize(self.dims, 0.0);
        for b in 0..nb {
            let row = &mut self.partials[b * self.dims..(b + 1) * self.dims];
            prob_partial(&self.kind, snap, b, row);
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t += v;
            }
        }
        self.scale = snap.scale();
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        for &b in &delta.dirty {
            let row = &mut self.partials[b * self.dims..(b + 1) * self.dims];
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t -= v;
            }
            prob_partial(&self.kind, snap, b, row);
            for (t, v) in self.totals.iter_mut().zip(row.iter()) {
                *t += v;
            }
        }
        self.scale = delta.scale;
        PatchStats {
            blocks_scanned: delta.dirty.len(),
        }
    }

    fn value(&self) -> ViewValue {
        let p_scale = self.scale * self.scale;
        match self.kind {
            ProbKind::Basis(_) => {
                ViewValue::Scalar(self.totals.first().copied().unwrap_or(0.0) * p_scale)
            }
            ProbKind::Marginal(_) => {
                ViewValue::Vector(self.totals.iter().map(|p| p * p_scale).collect())
            }
        }
    }
}

// ---- ExpectationView ----------------------------------------------------

enum ObsKind {
    /// ⟨ψ| diag(w) |ψ⟩ for a basis-indexed weight function.
    Diagonal(Arc<dyn Fn(usize) -> f64 + Send + Sync>),
    /// A Pauli string: X-support `xmask`, Z-support `zmask` (Y = both).
    /// `phase` is the Hermitian prefactor i^{|Y|}.
    Pauli {
        xmask: usize,
        zmask: usize,
        phase: Complex64,
    },
}

/// Maintains an observable expectation value ⟨ψ|O|ψ⟩. Diagonal
/// observables patch exactly the dirty blocks; a Pauli string with
/// X-support widens each dirty block to its pairing partner
/// (`b ^ (xmask >> log2(block_size))`) — the support closure.
pub struct ExpectationView {
    kind: ObsKind,
    partials: Vec<Complex64>,
    total: Complex64,
    scale: f64,
    label: String,
}

fn expectation_partial(kind: &ObsKind, snap: &StateSnapshot, b: usize) -> Complex64 {
    let geom = snap.geometry();
    let bs = geom.block_size();
    let block = snap.raw_block(b);
    let amp_at = |off: usize| match block {
        Some(d) => d[off],
        None => {
            if b == 0 && off == 0 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        }
    };
    match kind {
        ObsKind::Diagonal(w) => {
            let mut acc = 0.0;
            for off in 0..bs {
                let p = amp_at(off).norm_sqr();
                if p != 0.0 {
                    acc += p * w(b * bs + off);
                }
            }
            Complex64::real(acc)
        }
        ObsKind::Pauli {
            xmask,
            zmask,
            phase,
        } => {
            let mut acc = Complex64::ZERO;
            for off in 0..bs {
                let zm = amp_at(off);
                if zm == Complex64::ZERO {
                    continue;
                }
                let m = b * bs + off;
                let partner = m ^ xmask;
                let zp = raw_amp(snap, partner);
                let sign = if (partner & zmask).count_ones() & 1 == 1 {
                    -1.0
                } else {
                    1.0
                };
                acc += zm.conj() * zp * *phase * sign;
            }
            acc
        }
    }
}

impl ExpectationView {
    /// A diagonal observable: `weight(j)` is O's eigenvalue on basis
    /// state `j`.
    pub fn diagonal(
        label: impl Into<String>,
        weight: impl Fn(usize) -> f64 + Send + Sync + 'static,
    ) -> ExpectationView {
        ExpectationView {
            kind: ObsKind::Diagonal(Arc::new(weight)),
            partials: Vec::new(),
            total: Complex64::ZERO,
            scale: 1.0,
            label: label.into(),
        }
    }

    /// A Pauli-string observable: qubit q carries X iff bit q of
    /// `xmask`, Z iff bit q of `zmask`, Y iff both. Masks are in basis
    /// index space (bit q ↔ qubit q).
    pub fn pauli(xmask: usize, zmask: usize) -> ExpectationView {
        // P = i^{|Y|} · X^x Z^z is Hermitian with this prefactor.
        let phase = match (xmask & zmask).count_ones() % 4 {
            0 => Complex64::ONE,
            1 => Complex64::I,
            2 => c64(-1.0, 0.0),
            _ => c64(0.0, -1.0),
        };
        ExpectationView {
            label: format!("pauli[x={xmask:#x},z={zmask:#x}]"),
            kind: ObsKind::Pauli {
                xmask,
                zmask,
                phase,
            },
            partials: Vec::new(),
            total: Complex64::ZERO,
            scale: 1.0,
        }
    }
}

impl View for ExpectationView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        let nb = snap.geometry().num_blocks();
        self.partials.clear();
        self.partials.resize(nb, Complex64::ZERO);
        self.total = Complex64::ZERO;
        for b in 0..nb {
            let p = expectation_partial(&self.kind, snap, b);
            self.partials[b] = p;
            self.total += p;
        }
        self.scale = snap.scale();
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        // Support closure: block b's partial reads block b ^ xhi (the
        // Pauli pairing partner), so a dirty partner invalidates b too.
        let mut rescan: Vec<usize> = match &self.kind {
            ObsKind::Diagonal(_) => delta.dirty.clone(),
            ObsKind::Pauli { xmask, .. } => {
                let bs = snap.geometry().block_size();
                let xhi = xmask >> bs.trailing_zeros();
                delta.dirty.iter().flat_map(|&b| [b, b ^ xhi]).collect()
            }
        };
        rescan.sort_unstable();
        rescan.dedup();
        for &b in &rescan {
            self.total -= self.partials[b];
            let p = expectation_partial(&self.kind, snap, b);
            self.partials[b] = p;
            self.total += p;
        }
        self.scale = delta.scale;
        PatchStats {
            blocks_scanned: rescan.len(),
        }
    }

    fn value(&self) -> ViewValue {
        ViewValue::Scalar(self.total.re * self.scale * self.scale)
    }
}

// ---- combinators --------------------------------------------------------

/// Applies a pure function to an inner view's value; maintenance
/// delegates unchanged, so the map layer adds zero patch cost.
pub struct MapView {
    label: String,
    inner: Box<dyn View>,
    f: Arc<dyn Fn(ViewValue) -> ViewValue + Send + Sync>,
}

impl MapView {
    pub fn new(
        label: impl Into<String>,
        inner: Box<dyn View>,
        f: impl Fn(ViewValue) -> ViewValue + Send + Sync + 'static,
    ) -> MapView {
        MapView {
            label: label.into(),
            inner,
            f: Arc::new(f),
        }
    }
}

impl View for MapView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        self.inner.refresh(snap);
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        self.inner.patch(snap, delta)
    }

    fn value(&self) -> ViewValue {
        (self.f)(self.inner.value())
    }
}

/// Sums its parts' values into one scalar (vector parts contribute
/// their element sum). Each part maintains its own partials; a patch
/// touches every part's Δ∩B.
pub struct SumView {
    label: String,
    parts: Vec<Box<dyn View>>,
}

impl SumView {
    pub fn new(label: impl Into<String>, parts: Vec<Box<dyn View>>) -> SumView {
        SumView {
            label: label.into(),
            parts,
        }
    }
}

impl View for SumView {
    fn label(&self) -> &str {
        &self.label
    }

    fn refresh(&mut self, snap: &StateSnapshot) {
        for p in &mut self.parts {
            p.refresh(snap);
        }
    }

    fn patch(&mut self, snap: &StateSnapshot, delta: &BlockDelta) -> PatchStats {
        let mut stats = PatchStats::default();
        for p in &mut self.parts {
            stats.blocks_scanned += p.patch(snap, delta).blocks_scanned;
        }
        stats
    }

    fn value(&self) -> ViewValue {
        let total = self
            .parts
            .iter()
            .map(|p| match p.value() {
                ViewValue::Scalar(s) => s,
                ViewValue::Vector(v) => v.iter().sum(),
            })
            .sum();
        ViewValue::Scalar(total)
    }
}
