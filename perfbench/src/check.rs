//! Untimed correctness checks against independent references, failure
//! accounting, and the self-test showing the checks are not vacuous.

use qtask_baselines::{QulacsLike, Simulator};
use qtask_circuit::Circuit;
use qtask_num::Complex64;
use qtask_taskflow::Executor;
use qtask_views::{ViewQuery, ViewValue};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest amplitude error a state may have against the reference.
pub const STATE_TOL: f64 = 1e-8;
/// Largest difference between a pushed view value and a fresh refresh.
pub const VIEW_TOL: f64 = 1e-9;

/// Simulates `circuit` from |0…0⟩ with the Qulacs-like baseline on
/// `executor`; returns the final state and the time of the simulation
/// itself (loading the gates excluded).
pub fn reference_state(circuit: &Circuit, executor: &Arc<Executor>) -> (Vec<Complex64>, Duration) {
    let mut sim = QulacsLike::with_executor(circuit.num_qubits(), Arc::clone(executor));
    qtask_bench::load_levels(&mut sim, &qtask_bench::levels_of(circuit));
    let t = Instant::now();
    sim.update_state();
    let elapsed = t.elapsed();
    (sim.state_vec(), elapsed)
}

/// `Ok` when every amplitude of `got` is within [`STATE_TOL`] of `want`.
pub fn state_matches(got: &[Complex64], want: &[Complex64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "state length {} != reference {}",
            got.len(),
            want.len()
        ));
    }
    let (idx, err) = got
        .iter()
        .zip(want)
        .map(|(a, b)| (*a - *b).abs())
        .enumerate()
        .fold((0, 0.0f64), |acc, (i, e)| {
            if e > acc.1 || e.is_nan() {
                (i, e)
            } else {
                acc
            }
        });
    if err <= STATE_TOL {
        Ok(())
    } else {
        Err(format!(
            "amplitude {idx} off by {err:.3e} (tolerance {STATE_TOL:e})"
        ))
    }
}

/// `Ok` when two view values agree within [`VIEW_TOL`] everywhere.
pub fn values_match(got: &ViewValue, want: &ViewValue) -> Result<(), String> {
    values_within(got, want, VIEW_TOL)
}

/// `Ok` when two view values agree within `tol` everywhere.
pub fn values_within(got: &ViewValue, want: &ViewValue, tol: f64) -> Result<(), String> {
    let (a, b): (Vec<f64>, Vec<f64>) = match (got, want) {
        (ViewValue::Scalar(a), ViewValue::Scalar(b)) => (vec![*a], vec![*b]),
        (ViewValue::Vector(a), ViewValue::Vector(b)) if a.len() == b.len() => {
            (a.clone(), b.clone())
        }
        _ => return Err(format!("view shape differs: {got:?} vs {want:?}")),
    };
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let err = (x - y).abs();
        if err > tol || err.is_nan() {
            return Err(format!("view entry {i}: {x} vs expected {y}"));
        }
    }
    Ok(())
}

/// Ops attempted and failed across every client of a workload. Each
/// failure is printed as it happens, so the record survives a crash
/// later in the run; the first one is kept for the summary.
pub struct Failures {
    seed: u64,
    attempted: AtomicU64,
    failed: AtomicU64,
    first: Mutex<Option<String>>,
}

impl Failures {
    pub fn new(seed: u64) -> Failures {
        Failures {
            seed,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    /// Claims the next op index (global across clients) and announces
    /// it, so a process that dies mid-op is charged for it.
    pub fn begin(&self) -> u64 {
        let op = self.attempted.fetch_add(1, Ordering::SeqCst);
        announce("BEGIN", op);
        op
    }

    /// Announces that op `op` finished (successfully or not).
    pub fn end(&self, op: u64) {
        announce("END", op);
    }

    /// Records a failed op (never retried).
    pub fn fail(&self, op: u64, what: &str) {
        self.failed.fetch_add(1, Ordering::SeqCst);
        self.log(&format!("op={op}"), what);
    }

    /// Records a failed check outside any op (set-up, final state); it
    /// fails the run without charging an op.
    pub fn fail_at(&self, at: &str, what: &str) {
        self.log(at, what);
    }

    fn log(&self, at: &str, what: &str) {
        let line = format!("seed={} {at} {what}", self.seed);
        println!("FAIL {line}");
        let _ = std::io::stdout().flush();
        let mut first = self
            .first
            .lock()
            .expect("failure log lock is never poisoned");
        first.get_or_insert(line);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::SeqCst)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::SeqCst)
    }

    pub fn first(&self) -> Option<String> {
        self.first
            .lock()
            .expect("failure log lock is never poisoned")
            .clone()
    }
}

/// One progress line per op boundary, flushed at once: the wrapper
/// charges ops that began but never ended to a process that died.
fn announce(what: &str, op: u64) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{what} {op}");
    let _ = out.flush();
}

/// Shows that each check rejects a perturbed answer and accepts the
/// true one. Returns the first check that failed to tell them apart.
pub fn self_test(executor: &Arc<Executor>) -> Result<(), String> {
    let circuit = qtask_bench_circuits::catalog::build("qft", Some(6)).expect("catalog qft");
    let (want, _) = reference_state(&circuit, executor);
    let mut ckt = qtask_core::Ckt::from_circuit_with_executor(
        &circuit,
        qtask_core::SimConfig::default(),
        Arc::clone(executor),
    );
    ckt.update_state()
        .map_err(|e| format!("self-test engine failed: {e}"))?;
    let got = ckt
        .latest_snapshot()
        .ok_or("self-test published no snapshot")?
        .state();
    state_matches(&got, &want).map_err(|e| format!("self-test: true state rejected: {e}"))?;
    let mut perturbed = got.clone();
    perturbed[3] += qtask_num::c64(1e-6, 0.0);
    if state_matches(&perturbed, &want).is_ok() {
        return Err("self-test: perturbed state accepted".into());
    }
    let snap = ckt
        .latest_snapshot()
        .ok_or("self-test published no snapshot")?;
    for query in [
        ViewQuery::Marginal {
            qubits: vec![0, 1, 2],
        },
        ViewQuery::Pauli {
            xmask: 0,
            zmask: 0b101,
        },
    ] {
        let mut view = query
            .build(circuit.num_qubits())
            .map_err(|e| e.to_string())?;
        view.refresh(&snap);
        let value = view.value();
        values_match(&value, &value.clone())
            .map_err(|e| format!("self-test: equal {query:?} values rejected: {e}"))?;
        let perturbed = match value {
            ViewValue::Scalar(s) => ViewValue::Scalar(s + 1e-7),
            ViewValue::Vector(mut v) => {
                v[1] += 1e-7;
                ViewValue::Vector(v)
            }
        };
        if values_match(&perturbed, &view.value()).is_ok() {
            return Err(format!("self-test: perturbed {query:?} value accepted"));
        }
    }
    Ok(())
}
