//! Differential suite for incremental views: a seeded edit storm
//! (inserts, transactional batches, gate/net removals) drives the
//! engine, and after EVERY published version each registered view's
//! incrementally maintained value is compared against an oracle
//! recomputed from scratch off the published snapshot. Runs under
//! [`qtask_core::NumericalPolicy::Renormalize`] with an impossible norm
//! tolerance, so every publication also exercises the drift/scale path
//! the views must re-weight by.

use qtask::num::vecops;
use qtask::prelude::*;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1e-9;

/// The observable vocabulary under differential test, with its oracle.
struct Tracked {
    handle: qtask::views::ViewHandle,
    oracle: Box<dyn Fn(&StateSnapshot) -> ViewValue>,
    label: &'static str,
}

fn scaled_state(snap: &StateSnapshot) -> Vec<Complex64> {
    snap.state()
}

fn oracle_pauli(snap: &StateSnapshot, xmask: usize, zmask: usize) -> f64 {
    let state = scaled_state(snap);
    let phase = match (xmask & zmask).count_ones() % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => c64(-1.0, 0.0),
        _ => c64(0.0, -1.0),
    };
    let mut acc = Complex64::ZERO;
    for (m, amp) in state.iter().enumerate() {
        let partner = m ^ xmask;
        let sign = if (partner & zmask).count_ones() & 1 == 1 {
            -1.0
        } else {
            1.0
        };
        acc += amp.conj() * state[partner] * phase * sign;
    }
    acc.re
}

fn assert_values_close(got: &ViewValue, want: &ViewValue, ctx: &str) {
    match (got, want) {
        (ViewValue::Scalar(g), ViewValue::Scalar(w)) => {
            assert!((g - w).abs() < EPS, "{ctx}: got {g}, want {w}");
        }
        (ViewValue::Vector(g), ViewValue::Vector(w)) => {
            assert_eq!(g.len(), w.len(), "{ctx}: dims");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert!((gv - wv).abs() < EPS, "{ctx}[{i}]: got {gv}, want {wv}");
            }
        }
        _ => panic!("{ctx}: scalar/vector shape mismatch"),
    }
}

fn random_kind(rng: &mut rand::StdRng) -> GateKind {
    match rng.random_range(0..10u32) {
        0 => GateKind::H,
        1 => GateKind::X,
        2 => GateKind::Y,
        3 => GateKind::Z,
        4 => GateKind::S,
        5 => GateKind::T,
        6 => GateKind::Sx,
        7 => GateKind::Rx(rng.random_range(-3.0..3.0)),
        8 => GateKind::Ry(rng.random_range(-3.0..3.0)),
        _ => GateKind::Rz(rng.random_range(-3.0..3.0)),
    }
}

fn two_qubit_kind(rng: &mut rand::StdRng) -> GateKind {
    match rng.random_range(0..3u32) {
        0 => GateKind::Cx,
        1 => GateKind::Cz,
        _ => GateKind::Swap,
    }
}

#[test]
fn views_match_oracle_at_every_version_through_edit_storm() {
    const N: u8 = 6;
    for case in 0..4u64 {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 2;
        // Impossible tolerance: every publication counts as drift and
        // re-derives the renormalization scale, so the views' scale
        // re-weighting runs on every single patch.
        cfg.norm_tolerance = -1.0;
        let cfg = cfg.with_numerics(NumericalPolicy::Renormalize);
        let mut ckt = Ckt::with_config(N, cfg);
        let registry = ViewRegistry::new();
        registry.attach(&mut ckt);

        let mut tracked: Vec<Tracked> = vec![
            Tracked {
                handle: registry.register(Box::new(NormView::new())),
                // An independent rescan: `s.norm_sqr()` would read the
                // engine's own publish-time bookkeeping back.
                oracle: Box::new(|s| ViewValue::Scalar(vecops::norm_sqr(&s.state()))),
                label: "norm",
            },
            Tracked {
                handle: registry.register(Box::new(ProbabilityView::basis(5))),
                oracle: Box::new(|s| ViewValue::Scalar(s.amplitude(5).norm_sqr())),
                label: "prob[5]",
            },
            Tracked {
                handle: registry.register(Box::new(ProbabilityView::marginal(vec![0, 3]))),
                oracle: Box::new(|s| {
                    let mut dist = vec![0.0; 4];
                    for (m, p) in s.probabilities().iter().enumerate() {
                        dist[(m & 1) | ((m >> 3) & 1) << 1] += p;
                    }
                    ViewValue::Vector(dist)
                }),
                label: "marginal[0,3]",
            },
            Tracked {
                // X on q1, Z on q4 — X-support forces the pairing-partner
                // support closure on every patch.
                handle: registry.register(Box::new(ExpectationView::pauli(0b10, 0b10000))),
                oracle: Box::new(|s| ViewValue::Scalar(oracle_pauli(s, 0b10, 0b10000))),
                label: "pauli[x=2,z=16]",
            },
            Tracked {
                // Y on q2 (X and Z both) — exercises the i^{|Y|} phase.
                handle: registry.register(Box::new(ExpectationView::pauli(0b100, 0b100))),
                oracle: Box::new(|s| ViewValue::Scalar(oracle_pauli(s, 0b100, 0b100))),
                label: "pauli[y=4]",
            },
            Tracked {
                handle: registry.register(Box::new(ExpectationView::diagonal(
                    "hamming",
                    |j: usize| j.count_ones() as f64,
                ))),
                oracle: Box::new(|s| {
                    ViewValue::Scalar(
                        s.probabilities()
                            .iter()
                            .enumerate()
                            .map(|(j, p)| p * j.count_ones() as f64)
                            .sum(),
                    )
                }),
                label: "diag:hamming",
            },
        ];

        let mut rng = rand::StdRng::seed_from_u64(0x51EE5 ^ case);
        let mut nets: Vec<NetId> = Vec::new();
        let mut gates: Vec<GateId> = Vec::new();
        for round in 0..30 {
            match rng.random_range(0..10u32) {
                // Plain insert: a new net with 1–3 single-qubit gates.
                0..=3 => {
                    let net = ckt.push_net();
                    nets.push(net);
                    for _ in 0..rng.random_range(1..4u32) {
                        let kind = random_kind(&mut rng);
                        let q = rng.random_range(0..N);
                        if let Ok(g) = ckt.insert_gate(kind, net, &[q]) {
                            gates.push(g);
                        }
                    }
                }
                // Transactional batch with a two-qubit gate.
                4..=6 => {
                    // A qubit of the pair is deliberately re-claimed by a
                    // 1q gate half the time: those transactions conflict
                    // and must roll back without perturbing any view.
                    let reclaim = rng.random_range(0..2u32) == 0;
                    let committed = ckt.edit(|tx| {
                        let net = tx.push_net();
                        let kind = two_qubit_kind(&mut rng);
                        let a = rng.random_range(0..N);
                        let b = (a + rng.random_range(1..N)) % N;
                        let g2 = tx.insert_gate(kind, net, &[a, b])?;
                        if reclaim {
                            tx.insert_gate(GateKind::H, net, &[a])?;
                        }
                        Ok((net, g2))
                    });
                    if let Ok(((net, g2), _)) = committed {
                        nets.push(net);
                        gates.push(g2);
                    }
                }
                // Removal: a random surviving gate.
                7..=8 => {
                    if !gates.is_empty() {
                        let g = gates.swap_remove(rng.random_range(0..gates.len()));
                        let _ = ckt.remove_gate(g);
                    }
                }
                // Removal: a whole net (drops its gates from the pool).
                _ => {
                    if !nets.is_empty() {
                        let net = nets.swap_remove(rng.random_range(0..nets.len()));
                        if ckt.remove_net(net).is_ok() {
                            let circuit = ckt.circuit();
                            gates.retain(|g| circuit.gate_net(*g).is_some());
                        }
                    }
                }
            }
            let report = ckt.update_state().expect("storm update");
            assert!(report.drift_events > 0, "drift path must be exercised");

            // Midway, register a NEW view: it starts at version 0, so the
            // next delta is a version gap it must full-refresh across.
            if round == 10 {
                tracked.push(Tracked {
                    handle: registry.register(Box::new(ProbabilityView::basis(0))),
                    oracle: Box::new(|s| ViewValue::Scalar(s.amplitude(0).norm_sqr())),
                    label: "prob[0] (late)",
                });
            }

            let snap = ckt.latest_snapshot().expect("published");
            for t in &tracked {
                let Some(reading) = t.handle.reading() else {
                    // Only legal for the late view before its first delta.
                    assert_eq!(t.label, "prob[0] (late)", "missing reading");
                    continue;
                };
                assert_eq!(
                    reading.version,
                    snap.version(),
                    "case {case} round {round}: {} is stale",
                    t.label
                );
                let want = (t.oracle)(&snap);
                assert_values_close(
                    &reading.value,
                    &want,
                    &format!("case {case} round {round}: {}", t.label),
                );
            }
        }

        // The storm must have taken the cheap path most of the time:
        // incremental patches, not per-publication rescans.
        let report = registry.report();
        assert!(
            report.patches > report.full_refreshes,
            "case {case}: patches {} vs full refreshes {} — delta propagation is not engaging",
            report.patches,
            report.full_refreshes
        );
    }
}
