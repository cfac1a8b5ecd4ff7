//! Registry semantics: priming, patch-vs-refresh accounting, version
//! gaps, unregistration, and query building.

use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_views::{
    ExpectationView, MapView, NormView, ProbabilityView, SumView, ViewQuery, ViewQueryError,
    ViewRegistry, ViewValue,
};

const EPS: f64 = 1e-10;

fn small_ckt() -> Ckt {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 1;
    Ckt::with_config(4, cfg)
}

fn drive_one(ckt: &mut Ckt, kind: GateKind, targets: &[u8]) {
    let net = ckt.push_net();
    ckt.insert_gate(kind, net, targets).unwrap();
    ckt.update_state().unwrap();
}

#[test]
fn register_has_no_reading_until_first_publish() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    let norm = registry.register(Box::new(NormView::new()));
    assert!(norm.reading().is_none(), "no publication seen yet");

    drive_one(&mut ckt, GateKind::H, &[0]);
    let reading = norm.reading().expect("published");
    assert!((reading.value.as_scalar().unwrap() - 1.0).abs() < EPS);
    assert_eq!(reading.version, ckt.latest_snapshot().unwrap().version());
}

#[test]
fn register_on_primes_from_latest_snapshot() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    drive_one(&mut ckt, GateKind::H, &[0]);

    let prob = registry.register_on(&ckt, Box::new(ProbabilityView::basis(1)));
    let reading = prob.reading().expect("primed");
    assert!((reading.value.as_scalar().unwrap() - 0.5).abs() < EPS);
    assert!(registry.report().full_refreshes >= 1);
}

#[test]
fn incremental_publish_patches_instead_of_refreshing() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    drive_one(&mut ckt, GateKind::H, &[0]);
    // A marginal keeps per-block partials, so its patch rescans the
    // dirty blocks (the norm view reads the snapshot's total instead).
    let _norm = registry.register_on(&ckt, Box::new(NormView::new()));
    let _marginal = registry.register_on(&ckt, Box::new(ProbabilityView::marginal(vec![1])));
    let before = registry.report();

    drive_one(&mut ckt, GateKind::X, &[1]);
    let after = registry.report();
    assert_eq!(after.publishes, before.publishes + 1);
    assert!(
        after.patches > before.patches || after.full_refreshes > before.full_refreshes,
        "every publication maintains the view one way or the other"
    );
    // An incremental edit dirties a strict subset of the state, so the
    // delta path must be cheaper than a rescan of every block.
    if after.patches > before.patches {
        let nb = ckt.geometry().num_blocks() as u64;
        let repatched = after.blocks_repatched - before.blocks_repatched;
        assert!(repatched > 0 && repatched <= nb, "{repatched} of {nb}");
    }
}

#[test]
fn version_gap_degrades_to_full_refresh() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    drive_one(&mut ckt, GateKind::H, &[0]);
    // Attach only now: the first delta the registry sees has
    // prev_version != 0, and the freshly registered view is at 0.
    registry.attach(&mut ckt);
    let norm = registry.register(Box::new(NormView::new()));

    drive_one(&mut ckt, GateKind::X, &[1]);
    let report = registry.report();
    assert!(report.full_refreshes >= 1, "gap must rescan, not patch");
    assert!((norm.reading().unwrap().value.as_scalar().unwrap() - 1.0).abs() < EPS);
}

#[test]
fn unregister_stops_maintenance() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    let norm = registry.register(Box::new(NormView::new()));
    drive_one(&mut ckt, GateKind::H, &[0]);
    assert_eq!(registry.len(), 1);
    norm.unregister();
    assert!(registry.is_empty());

    let before = registry.report();
    drive_one(&mut ckt, GateKind::X, &[1]);
    let after = registry.report();
    assert_eq!(after.publishes, before.publishes + 1);
    assert_eq!(after.patches, before.patches);
    assert_eq!(after.full_refreshes, before.full_refreshes);
}

#[test]
fn registry_survives_engine_recovery() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    let norm = registry.register(Box::new(NormView::new()));
    drive_one(&mut ckt, GateKind::H, &[0]);

    // recover() rebuilds the engine from the circuit; it must carry the
    // observer across and republish a full-refresh delta.
    ckt.recover().unwrap();
    drive_one(&mut ckt, GateKind::X, &[1]);
    let reading = norm.reading().expect("maintained after recovery");
    assert!((reading.value.as_scalar().unwrap() - 1.0).abs() < EPS);
    assert_eq!(reading.version, ckt.latest_snapshot().unwrap().version());
}

#[test]
fn combinators_compose_and_stay_maintained() {
    let mut ckt = small_ckt();
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    // 1 - P(q1=1) via Map over a marginal, plus a Sum of two scalars.
    let flip = registry.register(Box::new(MapView::new(
        "one_minus_p1",
        Box::new(ProbabilityView::marginal(vec![1])),
        |v| match v {
            ViewValue::Vector(d) => ViewValue::Scalar(1.0 - d[1]),
            other => other,
        },
    )));
    let sum = registry.register(Box::new(SumView::new(
        "norm_plus_z0",
        vec![
            Box::new(NormView::new()),
            Box::new(ExpectationView::pauli(0, 1)),
        ],
    )));

    drive_one(&mut ckt, GateKind::X, &[1]);
    assert!((flip.reading().unwrap().value.as_scalar().unwrap() - 0.0).abs() < EPS);
    // norm = 1, ⟨Z0⟩ = +1 on |0010⟩.
    assert!((sum.reading().unwrap().value.as_scalar().unwrap() - 2.0).abs() < EPS);

    drive_one(&mut ckt, GateKind::H, &[0]);
    // ⟨Z0⟩ = 0 after H(0).
    assert!((sum.reading().unwrap().value.as_scalar().unwrap() - 1.0).abs() < EPS);
}

#[test]
fn queries_build_and_validate() {
    assert_eq!(ViewQuery::Norm.build(4).unwrap().label(), "norm");
    assert_eq!(
        ViewQuery::Probability { basis: 3 }
            .build(4)
            .unwrap()
            .label(),
        "prob[3]"
    );
    assert_eq!(
        ViewQuery::Marginal { qubits: vec![0, 2] }
            .build(4)
            .unwrap()
            .label(),
        "marginal[0, 2]"
    );
    assert_eq!(
        ViewQuery::Pauli { xmask: 1, zmask: 3 }
            .build(4)
            .unwrap()
            .label(),
        "pauli[x=0x1,z=0x3]"
    );

    assert_eq!(
        ViewQuery::Probability { basis: 16 }.build(4).err().unwrap(),
        ViewQueryError::BasisOutOfRange {
            basis: 16,
            num_qubits: 4
        }
    );
    assert_eq!(
        ViewQuery::Marginal { qubits: vec![4] }
            .build(4)
            .err()
            .unwrap(),
        ViewQueryError::QubitOutOfRange {
            qubit: 4,
            num_qubits: 4
        }
    );
    assert_eq!(
        ViewQuery::Marginal { qubits: vec![1, 1] }
            .build(4)
            .err()
            .unwrap(),
        ViewQueryError::DuplicateQubit { qubit: 1 }
    );
    assert_eq!(
        ViewQuery::Marginal { qubits: vec![] }
            .build(4)
            .err()
            .unwrap(),
        ViewQueryError::EmptyMarginal
    );
    assert_eq!(
        ViewQuery::Pauli {
            xmask: 16,
            zmask: 0
        }
        .build(4)
        .err()
        .unwrap(),
        ViewQueryError::MaskOutOfRange {
            mask: 16,
            num_qubits: 4
        }
    );
}
