//! `mixed_edits`: a closed loop of seeded edits on a warm engine.
//!
//! One client holds a warm `Ckt` of `big_adder` at 16 qubits (the
//! circuit of the paper's Figs 14–16). Each op either inserts a new
//! level holding one random gate after a uniformly chosen level, or
//! removes a level the client inserted earlier (50/50, so depth stays
//! stationary), then runs `update_state` and reads the snapshot. The op
//! is timed from the start of `Ckt::edit` until the read returns.

use crate::check::{self, Failures};
use crate::measure::{self, Probe};
use crate::trace::{self, Tracer};
use crate::{inputs, Cfg, Report, SETUP_REPS};
use qtask_circuit::NetId;
use qtask_core::Ckt;
use qtask_taskflow::Executor;
use qtask_util::alloc_counter::CountingAlloc;
use rand::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CIRCUIT: &str = "big_adder";
const QUBITS: u8 = 16;
/// Every this many ops, the state is checked against a full replay.
const CHECK_EVERY: usize = 16;
const MIN_OPS: usize = 20;

pub fn run(cfg: &Cfg, executor: &Arc<Executor>) -> Report {
    let failures = Failures::new(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Set-up: QASM text → parsed circuit → warm engine. Repeated; the
    // median is reported and the last engine is kept.
    let mut setups = Vec::new();
    let mut parse_ms = Vec::new();
    let mut ckt = None;
    for _ in 0..SETUP_REPS {
        drop(ckt.take());
        let t = Instant::now();
        let text = inputs::catalog_qasm(CIRCUIT, QUBITS, &mut StdRng::seed_from_u64(cfg.seed));
        let tp = Instant::now();
        let circuit = inputs::parse(&text);
        parse_ms.push(tp.elapsed().as_secs_f64() * 1e3);
        let mut warm =
            Ckt::from_circuit_with_executor(&circuit, cfg.sim_config(), Arc::clone(executor));
        warm.update_state().expect("the catalog circuit simulates");
        setups.push(t.elapsed().as_secs_f64());
        ckt = Some(warm);
    }
    let mut ckt = ckt.expect("set-up ran");
    let mut checks_ok = check_state(&ckt, executor, &failures, "set-up").is_some();
    let mut qulacs_s = Vec::new();

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut inserted: Vec<NetId> = Vec::new();
    let mut lat = Vec::new();
    let mut cpu = Vec::new();
    let mut reads = Vec::new();
    let mut stage_us = Vec::new();
    let mut peaks = Vec::new();
    let mut owned = Vec::new();
    let mut checking = Duration::ZERO;
    println!("MEASURING");
    let before = Probe::take(executor);
    let start = Instant::now();
    while lat.len() < MIN_OPS || start.elapsed() < cfg.measure {
        let k = lat.len();
        // The client picks its edit before the clock starts.
        let remove = !inserted.is_empty() && rng.random_bool(0.5);
        let target = if remove {
            inserted.swap_remove(rng.random_range(0..inserted.len()))
        } else {
            let nets: Vec<NetId> = ckt.circuit().net_ids().collect();
            nets[rng.random_range(0..nets.len())]
        };
        let (kind, qubits) = qtask_bench_circuits::random::random_gate(&mut rng, QUBITS);

        let op = failures.begin();
        tracer.set_active(cfg.traced(k + 1));
        CountingAlloc::reset_peak();
        let live = CountingAlloc::live_bytes();
        let cpu0 = measure::cpu_ns();
        let t0 = Instant::now();
        let edited = if remove {
            ckt.edit(|tx| tx.remove_net(target)).map(|_| None)
        } else {
            ckt.edit(|tx| {
                let net = tx.insert_net_after(target)?;
                tx.insert_gate(kind, net, &qubits)?;
                Ok(net)
            })
            .map(|(net, _)| Some(net))
        };
        let t1 = Instant::now();
        let updated = edited.and_then(|net| ckt.update_state().map(|report| (net, report)));
        let t2 = Instant::now();
        let (net, report) = match updated {
            Ok(done) => done,
            Err(e) => {
                failures.end(op);
                failures.fail(op, &format!("edit/update_state: {e}"));
                checks_ok = false;
                if ckt.is_poisoned() {
                    if let Err(e) = ckt.recover() {
                        failures.fail(op, &format!("recover: {e}"));
                        break;
                    }
                    inserted.clear();
                }
                continue;
            }
        };
        let snap = ckt
            .latest_snapshot()
            .expect("an update publishes a snapshot");
        black_box(snap.probabilities());
        let t3 = Instant::now();
        let op_cpu_ms = measure::cpu_ns().saturating_sub(cpu0) as f64 / 1e6;
        failures.end(op);
        inserted.extend(net);

        lat.push((t3 - t0).as_secs_f64() * 1e3);
        cpu.push(op_cpu_ms);
        reads.push((t3 - t2).as_secs_f64() * 1e6);
        stage_us.push((t1 - t0).as_secs_f64() * 1e6);
        peaks.push(CountingAlloc::peak_bytes().saturating_sub(live) as f64 / 1e6);
        let root = tracer.record(op, trace::ROOT, None, t0, t3);
        tracer.record(op, "circuit.stage", root, t0, t1);
        let update = tracer.record(op, "core.update", root, t1, t2);
        let publish = report
            .elapsed
            .saturating_sub(report.build_elapsed + report.run_elapsed);
        tracer.record_phases(
            op,
            update,
            tracer.ns(t1),
            &[
                ("core.build", report.build_elapsed),
                ("core.run", report.run_elapsed),
                ("core.publish", publish),
            ],
        );
        tracer.record(op, "snapshot.read", root, t2, t3);

        if (k + 1) % CHECK_EVERY == 0 {
            let t = Instant::now();
            match check_state(&ckt, executor, &failures, &format!("after op={op}")) {
                Some(q) => qulacs_s.push(q),
                None => checks_ok = false,
            }
            owned.push(ckt.memory_stats().owned_bytes as f64 / 1e6);
            checking += t.elapsed();
        }
    }
    let busy = start.elapsed() - checking;
    let delta = Probe::take(executor).since(&before);
    match check_state(&ckt, executor, &failures, "final") {
        Some(q) => qulacs_s.push(q),
        None => checks_ok = false,
    }
    owned.push(ckt.memory_stats().owned_bytes as f64 / 1e6);

    let mut r = Report::new(&failures, checks_ok, &[(CIRCUIT, QUBITS)]);
    let n = lat.len() as f64;
    if !cfg.trace {
        r.metric("setup_s", measure::median(&setups), "s");
        r.metric("op_p50_ms", measure::median(&lat), "ms");
        r.metric("op_p90_ms", measure::quantile(&lat, 0.9), "ms");
        r.metric("op_cpu_ms", measure::median(&cpu), "ms");
        r.metric("ops_per_s", n / busy.as_secs_f64(), "1/s");
        r.metric("cold_start_ms", setups[0] * 1e3, "ms");
        r.metric("peak_mb", measure::median(&peaks), "MB");
        r.metric("read_p50_us", measure::median(&reads), "us");
        println!(
            "mixed_edits: edit_p50_ms = {:.3} ms, edit_p90_ms = {:.3} ms, edits_per_s = {:.2} 1/s over {} edits",
            measure::median(&lat),
            measure::quantile(&lat, 0.9),
            n / busy.as_secs_f64(),
            lat.len()
        );
        return r;
    }

    measure::add_layer_metrics(&mut r, &delta, n, crate::BLOCK_SIZE);
    r.metric("qasm.parse_ms", measure::median(&parse_ms), "ms");
    r.metric("circuit.stage_us", stage_us.iter().sum::<f64>() / n, "us");
    r.metric("mem.owned_mb", measure::median(&owned), "MB");
    r.metric(
        "snapshot.read_p99_us",
        measure::quantile(&reads, 0.99),
        "us",
    );
    let qulacs = measure::median(&qulacs_s);
    r.metric("reference.qulacs_full_s", qulacs, "s");
    r.metric(
        "reference.full_vs_qulacs",
        qulacs * 1e3 / measure::median(&lat),
        "ratio",
    );
    crate::no_service_metrics(&mut r);
    let spans = tracer.into_spans();
    let breakdown = trace::Breakdown::of(&spans);
    crate::finish_trace(
        &mut r,
        cfg,
        "mixed_edits",
        crate::split_traced(cfg, &lat),
        &breakdown,
        &spans,
    );
    r
}

/// Compares the published state with a Qulacs-like replay of the
/// engine's own circuit. Returns the replay's simulation time, or
/// `None` (after recording the failure) on a mismatch.
fn check_state(ckt: &Ckt, executor: &Arc<Executor>, failures: &Failures, at: &str) -> Option<f64> {
    let (want, t) = check::reference_state(ckt.circuit(), executor);
    let got = match ckt.latest_snapshot() {
        Some(snap) => snap.state(),
        None => {
            failures.fail_at(at, "no published snapshot");
            return None;
        }
    };
    match check::state_matches(&got, &want) {
        Ok(()) => Some(t.as_secs_f64()),
        Err(e) => {
            failures.fail_at(at, &format!("state vs reference replay: {e}"));
            None
        }
    }
}
