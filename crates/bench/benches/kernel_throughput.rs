//! Kernel-layer throughput: scalar item loops vs batched run kernels.
//!
//! Two levels:
//! 1. **Flat kernels** at 22 qubits — the per-gate-class inner loops
//!    (`apply_*_ranks` vs `apply_*_runs`), isolating pure arithmetic
//!    throughput from engine bookkeeping.
//! 2. **Engine updates** at 20 qubits — repeated warm incremental
//!    updates of a superposition group (fused `FusedOp` rows) and of
//!    linear rows (run kernels). The engine has one kernel path, so
//!    these rows report the batched time only; the scalar-vs-batched
//!    comparison lives in the flat section.
//!
//! The acceptance bar for this layer: ≥2x batched-over-scalar on Diag and
//! Swap at ≥20 qubits. Record results in EXPERIMENTS.md.
//!
//! Emits `BENCH_kernels.json` at the workspace root. Engine rows carry
//! `updates`/`tasks_executed` counts read from the qtask-obs metrics
//! registry, so the trajectory file doubles as a check that the engine
//! counters move when the engine does.

use qtask_bench::{harness_init, median_of, write_bench_json, Opts};
use qtask_circuit::NetId;
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::{kernels, LinearOp};
use std::hint::black_box;
use std::time::Instant;

const N: u8 = 22;

fn prepared_state(n: u8) -> Vec<Complex64> {
    let mut state = vecops::ket_zero(n as usize);
    // A few H layers so amplitudes are non-trivial everywhere.
    for q in [0u8, 5, 11, 17] {
        kernels::apply_gate(GateKind::H, 0, &[q], &mut state);
    }
    state
}

/// Milliseconds per whole-state application, median over `reps`.
fn measure_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    median_of(reps, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

fn report(label: &str, scalar_ms: f64, batched_ms: f64) {
    println!(
        "{label:<28} {scalar_ms:>12.3} {batched_ms:>12.3} {:>9.2}x",
        scalar_ms / batched_ms
    );
}

/// JSON row for a flat scalar-vs-batched pair.
fn row_json(section: &str, op: &str, scalar_ms: f64, batched_ms: f64) -> String {
    format!(
        "{{\"section\": \"{section}\", \"op\": \"{op}\", \"scalar_ms\": {scalar_ms:.4}, \
         \"batched_ms\": {batched_ms:.4}, \"speedup\": {:.3}}}",
        scalar_ms / batched_ms
    )
}

/// Prints and records one engine row: the batched update time plus the
/// registry-sourced engine counters (`updates`, `tasks_executed`).
fn engine_row(rows: &mut Vec<String>, section: &str, op: &str, measured: (f64, u64, u64)) {
    let (batched_ms, updates, tasks) = measured;
    println!("{op:<28} {batched_ms:>12.3}");
    rows.push(format!(
        "{{\"section\": \"{section}\", \"op\": \"{op}\", \"batched_ms\": {batched_ms:.4}, \
         \"updates\": {updates}, \"tasks_executed\": {tasks}}}"
    ));
}

/// Milliseconds per warm toggle — insert `kind` on `qubits` into `net`,
/// update, remove it, update — median over `reps`.
fn toggle_ms(ckt: &mut Ckt, net: NetId, kind: GateKind, qubits: &[u8], reps: usize) -> f64 {
    median_of(reps, || {
        let t0 = Instant::now();
        let gid = ckt.insert_gate(kind, net, qubits).unwrap();
        ckt.update_state().unwrap();
        ckt.remove_gate(gid).unwrap();
        ckt.update_state().unwrap();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Registry deltas (`core.updates`, `core.tasks_executed`) across `f`.
fn with_engine_counters<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = qtask_obs::snapshot();
    let value = f();
    let after = qtask_obs::snapshot();
    let delta = |name: &str| after.counter_total(name) - before.counter_total(name);
    (value, delta("core.updates"), delta("core.tasks_executed"))
}

fn flat_kernels(opts: &Opts, rows: &mut Vec<String>) {
    println!("\nFlat kernels, {N} qubits ({} amplitudes):", 1u64 << N);
    println!(
        "{:<28} {:>12} {:>12} {:>9}",
        "op", "scalar (ms)", "batched (ms)", "speedup"
    );
    let reps = opts.reps.max(3);
    let mut state = prepared_state(N);

    let diag_z = LinearOp::Diag {
        controls: 0,
        target: 10,
        d0: Complex64::ONE,
        d1: -Complex64::ONE,
    };
    let diag_rz = LinearOp::Diag {
        controls: 0,
        target: 10,
        d0: Complex64::exp_i(-0.15),
        d1: Complex64::exp_i(0.15),
    };
    let antidiag_x = LinearOp::AntiDiag {
        controls: 0,
        target: 12,
        a01: Complex64::ONE,
        a10: Complex64::ONE,
    };
    let swap = LinearOp::Swap {
        controls: 0,
        t_lo: 6,
        t_hi: 14,
    };
    for (label, op) in [
        ("diag Z(q10)", diag_z),
        ("diag RZ(q10)", diag_rz),
        ("antidiag X(q12)", antidiag_x),
        ("swap (q6,q14)", swap),
    ] {
        let total = op.pattern(N).num_items();
        let scalar = measure_ms(reps, || {
            kernels::apply_linear_ranks(&op, N, black_box(&mut state), 0..total)
        });
        let batched = measure_ms(reps, || {
            kernels::apply_linear_runs(&op, N, black_box(&mut state), 0..total)
        });
        report(label, scalar, batched);
        rows.push(row_json("flat", label, scalar, batched));
    }

    let h = GateKind::H.base_matrix().unwrap();
    let total = kernels::dense_pattern(0, 9, N).num_items();
    let scalar = measure_ms(reps, || {
        kernels::apply_dense_ranks(0, 9, &h, N, black_box(&mut state), 0..total)
    });
    let batched = measure_ms(reps, || {
        kernels::apply_dense_runs(0, 9, &h, N, black_box(&mut state), 0..total)
    });
    report("dense H(q9)", scalar, batched);
    rows.push(row_json("flat", "dense H(q9)", scalar, batched));
}

/// Warm incremental MxV update cost: toggle a second dense factor into a
/// trailing group and re-update, so every MxV partition re-executes
/// against warm buffers.
fn engine_mxv(opts: &Opts, rows: &mut Vec<String>) {
    let n = 20u8;
    println!("\nEngine MxV incremental update, {n} qubits, group cap 2:");
    println!("{:<28} {:>12}", "toggle", "batched (ms)");
    let reps = opts.reps.max(3);
    let measured = with_engine_counters(|| {
        let mut ckt = Ckt::with_config(n, SimConfig::with_threads(opts.threads));
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
        ckt.update_state().unwrap();
        // One discarded toggle warms the buffers and the fused cache.
        toggle_ms(&mut ckt, net, GateKind::H, &[1], 1);
        toggle_ms(&mut ckt, net, GateKind::H, &[1], reps)
    });
    engine_row(rows, "engine_mxv", "mxv toggle H(q1)", measured);
}

/// Warm incremental linear-row update cost.
fn engine_linear(opts: &Opts, rows: &mut Vec<String>) {
    let n = 20u8;
    println!("\nEngine linear incremental update, {n} qubits:");
    println!("{:<28} {:>12}", "gate toggled", "batched (ms)");
    let reps = opts.reps.max(3);
    for (label, kind, qubits) in [
        ("Z(q10)", GateKind::Z, vec![10u8]),
        ("Swap(q6,q14)", GateKind::Swap, vec![6, 14]),
        ("X(q12)", GateKind::X, vec![12u8]),
    ] {
        let measured = with_engine_counters(|| {
            let mut ckt = Ckt::with_config(n, SimConfig::with_threads(opts.threads));
            let net = ckt.push_net();
            ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
            let tail = ckt.push_net();
            ckt.update_state().unwrap();
            toggle_ms(&mut ckt, tail, kind, &qubits, reps)
        });
        engine_row(rows, "engine_linear", label, measured);
    }
}

/// Probe overhead guard: the fault-injection probes *and* the obs trace
/// spans threaded through the update hot path compile to nothing in a
/// default build, so two back-to-back measurements of the instrumented
/// warm update must agree within measurement noise. A probe or span
/// accidentally left unconditional (fault probes take a mutex per hit;
/// spans push ring events per update phase) blows this band up on the
/// many-blocks path below. With `--features obs` the second leg runs
/// with tracing armed, so the same band bounds the *enabled* span cost
/// too (target <5%; the assert allows scheduler noise). Record the
/// numbers against the pre-probe baseline in EXPERIMENTS.md.
fn probe_overhead(opts: &Opts, rows: &mut Vec<String>) {
    let n = 20u8;
    let faults_on = cfg!(feature = "faults");
    let obs_on = cfg!(feature = "obs");
    println!(
        "\nProbe overhead, {n} qubits (faults {}, obs {}):",
        if faults_on { "ON, disarmed" } else { "off" },
        if obs_on { "ON" } else { "off" },
    );
    let reps = opts.reps.max(5);
    let measure = || {
        let mut ckt = Ckt::with_config(n, SimConfig::with_threads(opts.threads));
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
        let tail = ckt.push_net();
        ckt.update_state().unwrap();
        toggle_ms(&mut ckt, tail, GateKind::X, &[12], reps)
    };
    // Leg A: tracing off (no-op in a default build; explicit with obs).
    #[cfg(feature = "obs")]
    qtask_obs::set_trace_enabled(false);
    let a = measure();
    // Leg B: tracing armed when compiled in — the A/A band becomes an
    // enabled-vs-disabled bound on span overhead.
    #[cfg(feature = "obs")]
    qtask_obs::set_trace_enabled(true);
    let b = measure();
    let ratio = if a > b { a / b } else { b / a };
    println!(
        "{:<28} {a:>12.3} {b:>12.3} {ratio:>8.3}x",
        "warm X(q12) toggle A/A"
    );
    rows.push(format!(
        "{{\"section\": \"probe_overhead\", \"op\": \"warm X(q12) toggle A/A\", \
         \"a_ms\": {a:.4}, \"b_ms\": {b:.4}, \"ratio\": {ratio:.4}, \
         \"faults\": {faults_on}, \"obs\": {obs_on}}}"
    ));
    assert!(
        ratio < 1.5,
        "instrumented update path is not stable across identical runs \
         ({a:.3} ms vs {b:.3} ms): probes/spans may no longer be compiled \
         out (or span overhead is far above the 5% target)"
    );
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    println!(
        "Kernel throughput bench ({} threads, {} reps)",
        opts.threads, opts.reps
    );
    let mut rows = Vec::new();
    flat_kernels(&opts, &mut rows);
    engine_mxv(&opts, &mut rows);
    engine_linear(&opts, &mut rows);
    probe_overhead(&opts, &mut rows);
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"qubits\": {N},\n  \"engine_qubits\": 20,\n  \
         \"threads\": {},\n  \"reps\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        opts.threads,
        opts.reps,
        rows.iter()
            .map(|r| format!("    {r}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    write_bench_json("BENCH_kernels.json", &json);
}
