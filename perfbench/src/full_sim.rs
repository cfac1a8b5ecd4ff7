//! `full_sim`: whole circuits from QASM text to a read snapshot.
//!
//! Each op parses the QASM of `big_ising` and `big_qft` at 16 qubits,
//! builds a fresh `Ckt` for each on the shared executor, runs one
//! `update_state`, reads the snapshot's probabilities and drops the
//! engine. The first op of the process is reported apart as the cold
//! cost a one-shot user pays; it runs before any other engine or executor
//! work in the process. Set-up is what a user pays before simulating:
//! an executor and both circuits parsed and staged into engines.

use crate::check::{self, Failures};
use crate::measure::{self, Probe};
use crate::trace::{self, Tracer};
use crate::{inputs, Cfg, Report};
use qtask_core::Ckt;
use qtask_num::Complex64;
use qtask_taskflow::Executor;
use qtask_util::alloc_counter::CountingAlloc;
use rand::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CIRCUITS: [&str; 2] = ["big_ising", "big_qft"];
const QUBITS: u8 = 16;
/// Warm ops measured at least, however long they take.
const MIN_OPS: usize = 3;

/// One op's measurements.
#[derive(Default)]
struct Sample {
    latency: Duration,
    cpu_ms: f64,
    reads_us: Vec<f64>,
    update: Duration,
    parse: Duration,
    stage: Duration,
    owned_bytes: usize,
    peak_bytes: usize,
}

pub fn run(cfg: &Cfg, executor: &Arc<Executor>) -> Report {
    let failures = Failures::new(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let texts: Vec<String> = CIRCUITS
        .iter()
        .map(|c| inputs::catalog_qasm(c, QUBITS, &mut rng))
        .collect();

    let mut tracer = Tracer::new(Instant::now(), 0);
    let one_op = |i: usize, tracer: &mut Tracer| {
        let op = failures.begin();
        tracer.set_active(cfg.traced(i));
        let (sample, states) = sim_once(cfg, executor, op, tracer, &texts);
        failures.end(op);
        (op, sample, states)
    };
    // The cold op is the process's first work on the executor and the
    // engine; the references and the set-up come after it.
    let (cold_op, cold, cold_states) = one_op(0, &mut tracer);

    // Untimed references; the baseline's time is only reported by traced
    // runs, which repeat it for a steady median.
    let mut references = Vec::new();
    let mut qulacs_s = Vec::new();
    for rep in 0..if cfg.trace { 3 } else { 1 } {
        let mut total = Duration::ZERO;
        for text in &texts {
            let (state, t) = check::reference_state(&inputs::parse(text), executor);
            total += t;
            if rep == 0 {
                references.push(state);
            }
        }
        qulacs_s.push(total.as_secs_f64());
    }
    let mut checks_ok = true;
    let mut check = |op: u64, states: Vec<Result<Vec<Complex64>, String>>| {
        for (k, state) in states.into_iter().enumerate() {
            if let Err(e) = state.and_then(|s| check::state_matches(&s, &references[k])) {
                failures.fail(op, &format!("{}: {e}", CIRCUITS[k]));
                checks_ok = false;
            }
        }
    };
    check(cold_op, cold_states);

    // Set-up: what a user pays before the first simulation, an executor
    // of `nproc` workers and both circuits parsed and staged into engines
    // (no simulation). Timed once per process: an untraced run starts ten
    // processes and reports the median.
    let t = Instant::now();
    let pool = Arc::new(Executor::new(cfg.threads));
    let engines: Vec<Ckt> = texts
        .iter()
        .map(|text| {
            Ckt::from_circuit_with_executor(
                &inputs::parse(text),
                cfg.sim_config(),
                Arc::clone(&pool),
            )
        })
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    drop(engines);
    drop(pool);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("MEASURING");
    let before = Probe::take(executor);
    let mut samples = Vec::new();
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    while samples.len() < MIN_OPS || start.elapsed() < cfg.measure {
        let (op, s, states) = one_op(samples.len() + 1, &mut tracer);
        check(op, states);
        busy += s.latency;
        samples.push(s);
    }
    let delta = Probe::take(executor).since(&before);
    let spans = tracer.into_spans();

    let lat: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    let reads: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.reads_us.iter().copied())
        .collect();
    let peaks: Vec<f64> = samples.iter().map(|s| s.peak_bytes as f64 / 1e6).collect();
    let mut r = Report::new(&failures, checks_ok, &qubits());
    let n = samples.len() as f64;
    if !cfg.trace {
        r.metric("setup_s", setup_s, "s");
        r.metric("op_p50_ms", measure::median(&lat), "ms");
        r.metric("op_p90_ms", measure::quantile(&lat, 0.9), "ms");
        let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_ms).collect();
        r.metric("op_cpu_ms", measure::median(&cpu), "ms");
        r.metric("ops_per_s", n / busy.as_secs_f64(), "1/s");
        r.metric("cold_start_ms", ms(cold.latency), "ms");
        r.metric("peak_mb", measure::median(&peaks), "MB");
        r.metric("read_p50_us", measure::median(&reads), "us");
        println!(
            "full_sim: full_sim_s = {:.4} s, full_sim_cold_s = {:.4} s, peak_mb = {:.1} MB over {} warm ops",
            measure::median(&lat) / 1e3,
            ms(cold.latency) / 1e3,
            measure::median(&peaks),
            samples.len()
        );
        return r;
    }

    measure::add_layer_metrics(&mut r, &delta, n, crate::BLOCK_SIZE);
    let mean = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>() / n;
    r.metric(
        "qasm.parse_ms",
        mean(&|s| ms(s.parse)) / CIRCUITS.len() as f64,
        "ms",
    );
    r.metric(
        "circuit.stage_us",
        mean(&|s| s.stage.as_secs_f64() * 1e6),
        "us",
    );
    r.metric("mem.owned_mb", mean(&|s| s.owned_bytes as f64 / 1e6), "MB");
    r.metric(
        "snapshot.read_p99_us",
        measure::quantile(&reads, 0.99),
        "us",
    );
    let update_s: Vec<f64> = samples.iter().map(|s| s.update.as_secs_f64()).collect();
    let qulacs = measure::median(&qulacs_s);
    r.metric("reference.qulacs_full_s", qulacs, "s");
    r.metric(
        "reference.full_vs_qulacs",
        qulacs / measure::median(&update_s),
        "ratio",
    );
    crate::no_service_metrics(&mut r);
    let breakdown = trace::Breakdown::of(&spans);
    crate::finish_trace(
        &mut r,
        cfg,
        "full_sim",
        crate::split_traced(cfg, &lat),
        &breakdown,
        &spans,
    );
    r
}

fn qubits() -> Vec<(&'static str, u8)> {
    CIRCUITS.iter().map(|&c| (c, QUBITS)).collect()
}

/// One op: every circuit from text to read snapshot. Returns the timings
/// and, per circuit, the final state for the untimed check.
fn sim_once(
    cfg: &Cfg,
    executor: &Arc<Executor>,
    op: u64,
    tracer: &mut Tracer,
    texts: &[String],
) -> (Sample, Vec<Result<Vec<Complex64>, String>>) {
    let mut s = Sample::default();
    let mut snaps = Vec::new();
    CountingAlloc::reset_peak();
    let live = CountingAlloc::live_bytes();
    let cpu0 = measure::cpu_ns();
    let t_op = Instant::now();
    let mut children = Vec::new();
    for text in texts {
        let t0 = Instant::now();
        let circuit = inputs::parse(text);
        let t1 = Instant::now();
        let mut ckt =
            Ckt::from_circuit_with_executor(&circuit, cfg.sim_config(), Arc::clone(executor));
        let t2 = Instant::now();
        let result = ckt.update_state();
        let t3 = Instant::now();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                snaps.push(Err(format!("update_state: {e}")));
                continue;
            }
        };
        let snap = ckt
            .latest_snapshot()
            .expect("an update publishes a snapshot");
        black_box(snap.probabilities());
        let t4 = Instant::now();
        s.owned_bytes += ckt.memory_stats().owned_bytes;
        drop(ckt);
        let t5 = Instant::now();
        s.parse += t1 - t0;
        s.stage += t2 - t1;
        s.update += report.elapsed;
        s.reads_us.push((t4 - t3).as_secs_f64() * 1e6);
        children.push((t0, t1, t2, t3, t4, t5, report));
        snaps.push(Ok(snap));
    }
    s.latency = t_op.elapsed();
    s.cpu_ms = measure::cpu_ns().saturating_sub(cpu0) as f64 / 1e6;
    s.peak_bytes = CountingAlloc::peak_bytes().saturating_sub(live);
    let root = tracer.record(op, trace::ROOT, None, t_op, t_op + s.latency);
    for (t0, t1, t2, t3, t4, t5, report) in children {
        tracer.record(op, "qasm.parse", root, t0, t1);
        tracer.record(op, "circuit.stage", root, t1, t2);
        let update = tracer.record(op, "core.update", root, t2, t3);
        let publish = report
            .elapsed
            .saturating_sub(report.build_elapsed + report.run_elapsed);
        tracer.record_phases(
            op,
            update,
            tracer.ns(t2),
            &[
                ("core.build", report.build_elapsed),
                ("core.run", report.run_elapsed),
                ("core.publish", publish),
            ],
        );
        tracer.record(op, "snapshot.read", root, t3, t4);
        tracer.record(op, "mem.drop", root, t4, t5);
    }
    // The check reads each published state after the op's clock stopped.
    let states = snaps
        .into_iter()
        .map(|r| r.map(|snap| snap.state()))
        .collect();
    (s, states)
}
