//! Engine configuration.

/// What the engine does when the published state's norm drifts off unity
/// (or an amplitude goes non-finite) — checked at every snapshot
/// publication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericalPolicy {
    /// Norm drift beyond [`SimConfig::norm_tolerance`] is an error: the
    /// update fails with [`crate::EngineError::NormDrift`] and the engine
    /// poisons itself (the state is numerically broken; recover or
    /// rebuild). The default.
    Strict,
    /// Drift is absorbed: the engine records a renormalization scale
    /// `1/√(norm²)` applied by every query, and counts the event in
    /// [`crate::UpdateReport::drift_events`]. Non-finite amplitudes are
    /// still an error — NaN cannot be scaled away.
    Renormalize,
}

/// Tunables of a [`crate::Ckt`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Block size in amplitudes; a power of two. The paper's default is 256.
    pub block_size: usize,
    /// Worker threads for the executor (ignored when an executor is shared
    /// via [`crate::Ckt::with_executor`]).
    pub num_threads: usize,
    /// Maximum superposition gates grouped into one matrix–vector row.
    ///
    /// The paper groups *all* of a net's superposition gates into one MxV
    /// row, whose on-the-fly row derivation costs `2^g` source terms per
    /// output amplitude — exponential in the group size, fine at Figure
    /// 2's scale but intractable for a rotation layer across 26 qubits.
    /// We therefore chain several sync+MxV pairs per net once a group
    /// exceeds this cap (grouping still halves the number of full-vector
    /// passes relative to gate-at-a-time baselines). The ablation bench
    /// sweeps this knob.
    pub mxv_group_max: usize,
    /// Numerical-health policy at publish time (see `DESIGN.md`).
    pub numerics: NumericalPolicy,
    /// Allowed `|norm² − 1|` before [`SimConfig::numerics`] engages.
    /// The default (1e-6) is far above honest f64 rounding across deep
    /// circuits and far below any real corruption.
    pub norm_tolerance: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            block_size: 256,
            num_threads: qtask_taskflow::default_threads(),
            mxv_group_max: 2,
            numerics: NumericalPolicy::Strict,
            norm_tolerance: 1e-6,
        }
    }
}

impl SimConfig {
    /// Config with a specific block size.
    pub fn with_block_size(block_size: usize) -> SimConfig {
        SimConfig {
            block_size,
            ..SimConfig::default()
        }
    }

    /// Config with a specific thread count.
    pub fn with_threads(num_threads: usize) -> SimConfig {
        SimConfig {
            num_threads,
            ..SimConfig::default()
        }
    }

    /// This config with the given numerical policy.
    pub fn with_numerics(mut self, numerics: NumericalPolicy) -> SimConfig {
        self.numerics = numerics;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.block_size, 256);
        assert!(c.num_threads >= 1);
        assert_eq!(c.mxv_group_max, 2);
        assert_eq!(c.numerics, NumericalPolicy::Strict);
        assert!(c.norm_tolerance > 0.0);
        let c = c.with_numerics(NumericalPolicy::Renormalize);
        assert_eq!(c.numerics, NumericalPolicy::Renormalize);
    }
}
