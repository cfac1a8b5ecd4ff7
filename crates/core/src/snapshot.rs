//! Immutable, versioned state snapshots: the reader half of the engine's
//! MVCC-style reader/writer split.
//!
//! [`crate::Ckt::update_state`] publishes a [`StateSnapshot`] of the
//! freshly resolved state. A snapshot is a cheap handle (`Arc` clone)
//! over the per-block [`crate::cow::BlockData`] buffers that were current
//! at capture time; it is `Send + Sync`, so any number of threads can
//! query version *v* while the owning thread edits the circuit and
//! builds version *v+1*.
//!
//! # Isolation
//!
//! Snapshots share block buffers with the engine's copy-on-write rows —
//! no amplitude is copied at capture. Isolation falls out of the COW
//! discipline: a re-executing partition reclaims its output buffer only
//! when *no other holder shares it*
//! ([`crate::cow::RowVector::take_reusable_arc`]), so a buffer pinned by
//! a live snapshot is forked, never mutated. When nothing external holds
//! the previous snapshot, the writer steals its spine and keeps the
//! zero-allocation warm path (see `Ckt::update_state`).
//!
//! # Capture cost
//!
//! Capture is incremental: the engine re-resolves only blocks whose
//! final owner may have changed since the previous snapshot (spans of
//! executed partitions plus blocks owned by removed rows) and reuses the
//! previous snapshot's entries for the rest. The work performed is
//! surfaced in [`crate::UpdateReport::snapshot_blocks_resolved`] and
//! [`StateSnapshot::capture_report`].

use crate::queries::QueryReport;
use crate::spine::Spine;
use qtask_num::Complex64;
use qtask_partition::BlockGeometry;
use std::sync::Arc;

pub(crate) struct SnapInner {
    pub(crate) version: u64,
    pub(crate) geom: BlockGeometry,
    /// Resolved final view, one slot per block; `None` is the implicit
    /// |0…0⟩ initial block (amplitude 1 at global index 0). Chunked
    /// copy-on-write ([`Spine`]): a pinned reader shares chunks with the
    /// writer's next version instead of forcing a flat O(blocks) clone.
    pub(crate) blocks: Spine,
    /// Resolution work the capture performed (incremental: only blocks
    /// dirtied since the previous snapshot are re-resolved).
    pub(crate) capture_report: QueryReport,
    /// Renormalization scale applied to every amplitude read (1.0 unless
    /// the engine runs [`crate::NumericalPolicy::Renormalize`] and
    /// detected drift at capture). Stored rather than baked into the
    /// blocks: the buffers are shared copy-on-write with the engine's
    /// rows, so mutating them would break MVCC isolation.
    pub(crate) scale: f64,
    /// Unscaled `Σ|ψ|²` of `blocks`: the engine's per-block norm cache
    /// summed at publication (per block, then blocks in ascending
    /// order), so [`StateSnapshot::norm_sqr`] rescans nothing.
    pub(crate) raw_norm_sqr: f64,
}

impl SnapInner {
    /// Assembles a snapshot's interior. The single choke point for
    /// snapshot publication — it carries the `snapshot/publish` fault
    /// probe.
    pub(crate) fn new(
        version: u64,
        geom: BlockGeometry,
        blocks: Spine,
        capture_report: QueryReport,
        scale: f64,
        raw_norm_sqr: f64,
    ) -> SnapInner {
        qtask_faults::fault_point!("snapshot/publish");
        SnapInner {
            version,
            geom,
            blocks,
            capture_report,
            scale,
            raw_norm_sqr,
        }
    }
}

/// An immutable view of the simulated state as of one
/// [`crate::Ckt::update_state`] publication.
///
/// Cloning is an `Arc` bump; the handle is `Send + Sync`. All query
/// methods answer from the captured version forever, regardless of later
/// circuit edits or updates — pair a snapshot with
/// [`StateSnapshot::version`] to correlate results across threads.
#[derive(Clone)]
pub struct StateSnapshot {
    pub(crate) inner: Arc<SnapInner>,
}

impl StateSnapshot {
    /// The publication sequence number (strictly increasing per engine).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// Block geometry of the captured state.
    pub fn geometry(&self) -> BlockGeometry {
        self.inner.geom
    }

    /// Dimension of the state vector (`2^n`).
    pub fn state_len(&self) -> usize {
        self.inner.geom.state_len()
    }

    /// Resolution work performed when this snapshot was captured.
    pub fn capture_report(&self) -> QueryReport {
        self.inner.capture_report
    }

    /// The renormalization scale baked into every amplitude this snapshot
    /// reports: 1.0 unless the engine ran
    /// [`crate::NumericalPolicy::Renormalize`] and absorbed norm drift at
    /// capture time.
    pub fn scale(&self) -> f64 {
        self.inner.scale
    }

    /// Number of blocks holding materialized data (the rest are the
    /// implicit initial state — untouched blocks cost nothing here
    /// either).
    pub fn materialized_blocks(&self) -> usize {
        self.inner.blocks.iter().filter(|b| b.is_some()).count()
    }

    #[inline]
    fn read(&self, block: usize, offset: usize) -> Complex64 {
        match self.inner.blocks.get(block) {
            Some(d) => d[offset],
            None => {
                if block == 0 && offset == 0 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                }
            }
        }
    }

    /// The raw, **unscaled** amplitudes of block `b`, or `None` for an
    /// implicit initial block (all zero, except amplitude 1 at global
    /// index 0 when `b == 0`). This is the bulk-read surface for
    /// delta-maintained consumers (qtask-views): per-block partial
    /// aggregates are computed from the unscaled buffers so a
    /// scale-only change re-weights them in O(1). Multiply by
    /// [`StateSnapshot::scale`] to recover the amplitudes the scalar
    /// queries report.
    pub fn raw_block(&self, b: usize) -> Option<&[Complex64]> {
        self.inner.blocks.get(b).as_deref()
    }

    /// The amplitude of basis state `idx`.
    pub fn amplitude(&self, idx: usize) -> Complex64 {
        assert!(idx < self.state_len(), "basis index out of range");
        let geom = &self.inner.geom;
        self.read(geom.block_of(idx), geom.offset_in_block(idx)) * self.inner.scale
    }

    /// The probability of basis state `idx`.
    pub fn probability(&self, idx: usize) -> f64 {
        self.amplitude(idx).norm_sqr()
    }

    /// The full state vector (materializes `2^n` amplitudes).
    pub fn state(&self) -> Vec<Complex64> {
        let bs = self.inner.geom.block_size();
        let scale = self.inner.scale;
        let mut out = Vec::with_capacity(self.state_len());
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            match slot {
                // `x * 1.0` is bit-exact for finite f64, but the unscaled
                // path keeps the common case a memcpy.
                Some(d) if scale == 1.0 => out.extend_from_slice(d),
                Some(d) => out.extend(d.iter().map(|&z| z * scale)),
                None => {
                    let start = out.len();
                    out.resize(start + bs, Complex64::ZERO);
                    if b == 0 {
                        out[0] = Complex64::ONE * scale;
                    }
                }
            }
        }
        out
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        let bs = self.inner.geom.block_size();
        let p_scale = self.inner.scale * self.inner.scale;
        let mut out = Vec::with_capacity(self.state_len());
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            match slot {
                Some(d) => out.extend(d.iter().map(|z| z.norm_sqr() * p_scale)),
                None => {
                    let start = out.len();
                    out.resize(start + bs, 0.0);
                    if b == 0 {
                        out[0] = p_scale;
                    }
                }
            }
        }
        out
    }

    /// Sum of squared amplitudes (≈ 1 for a consistent state). O(1): the
    /// unscaled sum was computed once, at publication.
    pub fn norm_sqr(&self) -> f64 {
        self.inner.raw_norm_sqr * (self.inner.scale * self.inner.scale)
    }

    /// Draws one computational-basis measurement outcome.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> usize {
        let mut target: f64 = rng.random::<f64>();
        let p_scale = self.inner.scale * self.inner.scale;
        let bs = self.inner.geom.block_size();
        for (b, slot) in self.inner.blocks.iter().enumerate() {
            for off in 0..bs {
                let p = match slot {
                    Some(d) => d[off].norm_sqr() * p_scale,
                    None => {
                        if b == 0 && off == 0 {
                            p_scale
                        } else {
                            0.0
                        }
                    }
                };
                if target < p {
                    return b * bs + off;
                }
                target -= p;
            }
        }
        self.state_len() - 1 // numeric slack: return the last state
    }

    /// [`StateSnapshot::amplitude`] plus a [`QueryReport`]. Snapshot
    /// queries perform no copy-on-write resolution — the work was paid
    /// once at capture ([`StateSnapshot::capture_report`]) — so the
    /// per-query report is always zero; the variant exists so code
    /// generic over the live and snapshot query surfaces can keep one
    /// shape.
    pub fn amplitude_reported(&self, idx: usize) -> (Complex64, QueryReport) {
        (self.amplitude(idx), QueryReport::default())
    }

    /// [`StateSnapshot::state`] plus a (zero) [`QueryReport`]; see
    /// [`StateSnapshot::amplitude_reported`].
    pub fn state_reported(&self) -> (Vec<Complex64>, QueryReport) {
        (self.state(), QueryReport::default())
    }

    /// [`StateSnapshot::probability`] plus a (zero) [`QueryReport`]; see
    /// [`StateSnapshot::amplitude_reported`].
    pub fn probability_reported(&self, idx: usize) -> (f64, QueryReport) {
        (self.probability(idx), QueryReport::default())
    }

    /// [`StateSnapshot::probabilities`] plus a (zero) [`QueryReport`];
    /// see [`StateSnapshot::amplitude_reported`].
    pub fn probabilities_reported(&self) -> (Vec<f64>, QueryReport) {
        (self.probabilities(), QueryReport::default())
    }

    /// [`StateSnapshot::norm_sqr`] plus a (zero) [`QueryReport`]; see
    /// [`StateSnapshot::amplitude_reported`].
    pub fn norm_sqr_reported(&self) -> (f64, QueryReport) {
        (self.norm_sqr(), QueryReport::default())
    }

    /// [`StateSnapshot::sample`] plus a (zero) [`QueryReport`]; see
    /// [`StateSnapshot::amplitude_reported`].
    pub fn sample_reported<R: rand::Rng>(&self, rng: &mut R) -> (usize, QueryReport) {
        (self.sample(rng), QueryReport::default())
    }
}

impl std::fmt::Debug for StateSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSnapshot")
            .field("version", &self.inner.version)
            .field("state_len", &self.state_len())
            .field("materialized_blocks", &self.materialized_blocks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateSnapshot>();
    };

    fn initial_snapshot(n_qubits: u8, block_size: usize) -> StateSnapshot {
        let geom = BlockGeometry::new(n_qubits, block_size);
        StateSnapshot {
            inner: Arc::new(SnapInner::new(
                1,
                geom,
                Spine::new(geom.num_blocks()),
                QueryReport::default(),
                1.0,
                1.0,
            )),
        }
    }

    #[test]
    fn implicit_initial_blocks_answer_ket_zero() {
        let s = initial_snapshot(4, 4);
        assert!(s.amplitude(0).is_one(0.0));
        assert!(s.amplitude(5).is_zero(0.0));
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        let state = s.state();
        assert_eq!(state.len(), 16);
        assert!(state[0].is_one(0.0));
        assert!(state[1..].iter().all(|z| z.is_zero(0.0)));
        let probs = s.probabilities();
        assert_eq!(probs[0], 1.0);
        assert_eq!(probs[1..].iter().sum::<f64>(), 0.0);
        assert_eq!(s.materialized_blocks(), 0);
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), 0);
    }
}
