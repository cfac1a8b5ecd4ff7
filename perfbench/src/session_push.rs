//! `session_push` and `push_one_session`: tail edits through the service
//! with pushed views.
//!
//! A `SessionManager` on the shared executor holds two sessions
//! (`session_push`) or one (`push_one_session`) of `big_ising` at 14
//! qubits, one closed-loop client thread each. Every session has two
//! subscriptions, `Marginal{[0,1,2]}` and a seeded `Pauli{zmask}`. A client submits a tail edit through
//! `SessionHandle::edit` (insert one gate in a new level within the last
//! four levels, or remove a level it inserted, 50/50) and waits until
//! both subscriptions deliver a `ViewUpdate` at the edit's version; that
//! is the op's push latency. It then reads `probabilities()` from the
//! previous snapshot, which it kept pinned across the write.
//!
//! `peak_mb` is the live-heap peak of a set-up, which loads and fully
//! simulates the circuit in every session.
//!
//! Two sessions writing on one executor hit a known engine crash
//! (SIGSEGV, stale arena keys, norm drift) in most runs; one session's
//! runs have been clean. So `push_one_session` is the workload that
//! measures the service and view layers steadily, and `session_push`
//! keeps reporting the crash.

use crate::check::{self, Failures};
use crate::measure::{self, Probe};
use crate::trace::{self, Breakdown, Span, Tracer};
use crate::{inputs, Cfg, Report, SETUP_REPS};
use qtask_circuit::{CircuitError, NetId};
use qtask_core::{EditTxn, StateSnapshot};
use qtask_service::{
    ServiceConfig, ServiceError, SessionHandle, SessionManager, Subscription, ViewQuery,
};
use qtask_taskflow::Executor;
use qtask_util::alloc_counter::CountingAlloc;
use rand::prelude::*;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CIRCUIT: &str = "big_ising";
const QUBITS: u8 = 14;
/// Tail edits land after one of this many last levels.
const TAIL: usize = 4;
const MIN_OPS_PER_CLIENT: usize = 20;
/// How long a client waits for a push before counting the op failed.
const PUSH_TIMEOUT: Duration = Duration::from_secs(30);

type EditFn = Box<dyn FnOnce(&mut EditTxn<'_>) -> Result<(), CircuitError> + Send>;

/// One session with its subscriptions, ready for a client.
struct Tenant {
    handle: SessionHandle,
    subs: Vec<Subscription>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    reads_us: Vec<f64>,
    busy: Duration,
    checks_ok: bool,
    spans: Vec<Span>,
}

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_threads(threads)
        .with_default_deadline(Duration::from_secs(30))
}

/// Opens the sessions, loads the circuit through one edit each, and
/// subscribes both views. Returns the manager, the tenants, and the QASM
/// parse time.
fn set_up(
    cfg: &Cfg,
    executor: &Arc<Executor>,
    sessions: usize,
    zmask: usize,
) -> (SessionManager, Vec<Tenant>, f64) {
    let text = inputs::catalog_qasm(CIRCUIT, QUBITS, &mut StdRng::seed_from_u64(cfg.seed));
    let tp = Instant::now();
    let circuit = inputs::parse(&text);
    let parse_ms = tp.elapsed().as_secs_f64() * 1e3;
    let levels = qtask_bench::levels_of(&circuit);
    let mgr = SessionManager::with_executor(service_config(cfg.threads), Arc::clone(executor));
    let mut tenants = Vec::new();
    for _ in 0..sessions {
        let handle = mgr
            .open(QUBITS, cfg.sim_config())
            .expect("admission below the session limit");
        let load = levels.clone();
        let loaded = handle
            .edit(move |tx| {
                for level in &load {
                    let net = tx.push_net();
                    for (kind, qubits) in level {
                        tx.insert_gate(*kind, net, qubits)?;
                    }
                }
                Ok(())
            })
            .expect("loading the catalog circuit succeeds");
        let subs: Vec<Subscription> = [
            ViewQuery::Marginal {
                qubits: vec![0, 1, 2],
            },
            ViewQuery::Pauli { xmask: 0, zmask },
        ]
        .into_iter()
        .map(|q| handle.subscribe(q).expect("two views fit the view quota"))
        .collect();
        for sub in &subs {
            wait_for(sub, loaded.version).expect("the loaded version is pushed");
        }
        tenants.push(Tenant { handle, subs });
    }
    (mgr, tenants, parse_ms)
}

/// Blocks until `sub` delivers a value at `version` or later.
fn wait_for(sub: &Subscription, version: u64) -> Result<qtask_service::ViewUpdate, String> {
    loop {
        match sub.recv_timeout(PUSH_TIMEOUT) {
            Ok(update) if update.version >= version => return Ok(update),
            Ok(_) => continue,
            Err(e) => {
                return Err(format!(
                    "{}: {e} waiting for version {version}",
                    sub.query().label()
                ))
            }
        }
    }
}

pub fn run(cfg: &Cfg, executor: &Arc<Executor>, sessions: usize) -> Report {
    let workload = if sessions == 1 {
        "push_one_session"
    } else {
        "session_push"
    };
    let failures = Failures::new(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let zmask = rng.random_range(1..(1usize << QUBITS));

    // Set-up, repeated; the median is reported and the last kept.
    let mut setups = Vec::new();
    let mut parse_ms = Vec::new();
    let mut peaks = Vec::new();
    let mut current: Option<(SessionManager, Vec<Tenant>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((mgr, tenants)) = current.take() {
            drop(tenants);
            mgr.shutdown();
        }
        CountingAlloc::reset_peak();
        let live = CountingAlloc::live_bytes();
        let t = Instant::now();
        let (mgr, tenants, parse) = set_up(cfg, executor, sessions, zmask);
        setups.push(t.elapsed().as_secs_f64());
        peaks.push(CountingAlloc::peak_bytes().saturating_sub(live) as f64 / 1e6);
        parse_ms.push(parse);
        current = Some((mgr, tenants));
    }
    let (mgr, tenants) = current.expect("set-up ran");

    println!("MEASURING");
    let before = Probe::take(executor);
    let epoch = Instant::now();
    let deadline = epoch + cfg.measure;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(c, tenant)| {
                let seed = rng.random::<u64>();
                let failures = &failures;
                scope.spawn(move || client(cfg, c as u32, seed, tenant, failures, epoch, deadline))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let delta = Probe::take(executor).since(&before);

    // Final state of every session against a replay of its circuit.
    let mut checks_ok = logs.iter().all(|l| l.checks_ok);
    let mut qulacs_s = Vec::new();
    for tenant in &tenants {
        match tenant.handle.circuit() {
            Ok((circuit, version)) => {
                let (want, t) = check::reference_state(&circuit, executor);
                qulacs_s.push(t.as_secs_f64());
                let snap = tenant
                    .handle
                    .snapshot()
                    .expect("a live session has a snapshot");
                let verdict = if snap.version() != version {
                    Err(format!(
                        "snapshot version {} != circuit version {version}",
                        snap.version()
                    ))
                } else {
                    check::state_matches(&snap.state(), &want)
                };
                if let Err(e) = verdict {
                    failures.fail_at("final", &format!("session {:?}: {e}", tenant.handle.id()));
                    checks_ok = false;
                }
            }
            Err(e) => {
                failures.fail_at(
                    "final",
                    &format!("session {:?}: circuit: {e}", tenant.handle.id()),
                );
                checks_ok = false;
            }
        }
    }
    let mut view_reports = Vec::new();
    for tenant in &tenants {
        view_reports.push(tenant.handle.view_report().ok());
    }
    drop(tenants);
    for report in mgr.shutdown() {
        if report.recoveries > 0 || report.last_error.is_some() {
            println!("session {:?} autopsy: {report:?}", report.session);
        }
    }

    let lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let reads: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.reads_us.iter().copied())
        .collect();
    let rate: f64 = logs
        .iter()
        .map(|l| l.latency_ms.len() as f64 / l.busy.as_secs_f64())
        .sum();
    let mut r = Report::new(&failures, checks_ok, &[(CIRCUIT, QUBITS)]);
    let n = lat.len() as f64;
    if !cfg.trace {
        r.metric("setup_s", measure::median(&setups), "s");
        r.metric("op_p50_ms", measure::median(&lat), "ms");
        r.metric("op_p90_ms", measure::quantile(&lat, 0.9), "ms");
        r.metric("op_p99_ms", measure::quantile(&lat, 0.99), "ms");
        r.metric("ops_per_s", rate, "1/s");
        r.metric("cold_start_ms", setups[0] * 1e3, "ms");
        r.metric("read_p50_us", measure::median(&reads), "us");
        r.metric("peak_mb", measure::median(&peaks), "MB");
        println!(
            "{workload}: push_p50_ms = {:.3} ms, push_p99_ms = {:.3} ms, edits_per_s = {rate:.1} 1/s, \
             read_p50_us = {:.1} us over {} pushes",
            measure::median(&lat),
            measure::quantile(&lat, 0.99),
            measure::median(&reads),
            lat.len()
        );
        return r;
    }

    measure::add_layer_metrics(&mut r, &delta, n, crate::BLOCK_SIZE);
    let per = |v: f64| v / n.max(1.0);
    let queue = per(delta.get("service.queue_delay_us"));
    let update = per(delta.get("core.update_us"));
    let mean_us = lat.iter().sum::<f64>() / n.max(1.0) * 1e3;
    r.metric("qasm.parse_ms", measure::median(&parse_ms), "ms");
    // Staging and engine memory sit behind the session's writer thread;
    // the service API exposes neither.
    r.metric("circuit.stage_us", 0.0, "us");
    r.metric("mem.owned_mb", 0.0, "MB");
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
    r.metric("service.queue_delay_us", queue, "us");
    r.metric("service.update_us", update, "us");
    r.metric("service.delivery_us", mean_us - queue - update, "us");
    println!("view reports: {view_reports:?}");

    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut stores = Vec::new();
    for log in logs {
        let (t, u) = crate::split_traced(cfg, &log.latency_ms);
        traced.extend(t);
        untraced.extend(u);
        stores.push(log.spans);
    }
    let spans = trace::merge(stores);
    let mut breakdown = Breakdown::of(&spans);
    // The engine's phases run inside the writer, within `service.edit`;
    // their per-op means come from the always-on histograms.
    breakdown.split(
        "service.edit",
        &[
            ("core.build", per(delta.get("core.update_build_us"))),
            ("core.run", per(delta.get("core.update_run_us"))),
            (
                "core.publish",
                per(delta.get("core.update_us")
                    - delta.get("core.update_build_us")
                    - delta.get("core.update_run_us")),
            ),
        ],
    );
    crate::finish_trace(
        &mut r,
        cfg,
        workload,
        (traced, untraced),
        &breakdown,
        &spans,
    );
    r
}

/// One closed-loop client on `tenant` until `deadline`.
fn client(
    cfg: &Cfg,
    c: u32,
    seed: u64,
    tenant: &Tenant,
    failures: &Failures,
    epoch: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracer = Tracer::new(epoch, c);
    let mut log = ClientLog {
        checks_ok: true,
        ..ClientLog::default()
    };
    let h = &tenant.handle;
    let queue_hist = qtask_obs::registry().histogram_with(
        "service.queue_delay_us",
        Some(("session", h.id().0.to_string().as_str())),
    );
    let mut levels: Vec<NetId> = match h.circuit() {
        Ok((circuit, _)) => circuit.net_ids().collect(),
        Err(e) => {
            failures.fail_at("set-up", &format!("circuit: {e}"));
            log.checks_ok = false;
            return log;
        }
    };
    let mut mine: Vec<NetId> = Vec::new();
    let mut pinned: Option<StateSnapshot> = h.snapshot();
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    let mut k = 0usize;
    while k < MIN_OPS_PER_CLIENT || Instant::now() < deadline {
        k += 1;
        // The client picks its edit before the clock starts.
        let remove = !mine.is_empty() && rng.random_bool(0.5);
        let created = Arc::new(Mutex::new(None));
        let (after, edit): (usize, EditFn) = if remove {
            let net = mine.swap_remove(rng.random_range(0..mine.len()));
            levels.retain(|&l| l != net);
            (0, Box::new(move |tx: &mut EditTxn<'_>| tx.remove_net(net)))
        } else {
            let pos = levels.len() - 1 - rng.random_range(0..TAIL.min(levels.len()));
            let (kind, qubits) = qtask_bench_circuits::random::random_gate(&mut rng, QUBITS);
            let after = levels[pos];
            let slot = Arc::clone(&created);
            (
                pos,
                Box::new(move |tx: &mut EditTxn<'_>| {
                    let net = tx.insert_net_after(after)?;
                    tx.insert_gate(kind, net, &qubits)?;
                    *slot.lock().expect("slot lock is never poisoned") = Some(net);
                    Ok(())
                }),
            )
        };

        let op = failures.begin();
        tracer.set_active(cfg.traced(k));
        let queued_before = queue_hist.sum();
        let t0 = Instant::now();
        let outcome = h.edit(edit);
        let t1 = Instant::now();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                failures.end(op);
                failures.fail(op, &format!("session {:?} edit: {e}", h.id()));
                if matches!(e, ServiceError::SessionPoisoned { .. }) {
                    println!("session {:?} poisoned at op {op}", h.id());
                }
                log.checks_ok = false;
                // Untimed: re-read the level list, since a failed edit or a
                // recovery may leave it other than the client assumed. The
                // failed op itself is not retried.
                let tc = Instant::now();
                if let Ok((circuit, _)) = h.circuit() {
                    levels = circuit.net_ids().collect();
                    mine.retain(|n| levels.contains(n));
                }
                checking += tc.elapsed();
                continue;
            }
        };
        let mut pushed = Vec::new();
        let mut push_error = None;
        for sub in &tenant.subs {
            match wait_for(sub, outcome.version) {
                Ok(update) => pushed.push(update),
                Err(e) => push_error = Some(e),
            }
        }
        let t2 = Instant::now();
        failures.end(op);
        if let Some(net) = created.lock().expect("slot lock is never poisoned").take() {
            levels.insert(after + 1, net);
            mine.push(net);
        }
        if let Some(e) = push_error {
            failures.fail(op, &e);
            log.checks_ok = false;
            continue;
        }
        let queued_us = queue_hist.sum() - queued_before;

        // The pinned reader: the previous version, read beside the writes.
        let t3 = Instant::now();
        if let Some(prev) = &pinned {
            black_box(prev.probabilities());
        }
        let t4 = Instant::now();
        log.latency_ms.push((t2 - t0).as_secs_f64() * 1e3);
        log.reads_us.push((t4 - t3).as_secs_f64() * 1e6);
        let root = tracer.record(op, trace::ROOT, None, t0, t2);
        let edit_span = tracer.record(op, "service.edit", root, t0, t1);
        let t0_ns = tracer.ns(t0);
        tracer.record_ns(
            op,
            "service.queue_delay",
            edit_span,
            t0_ns,
            t0_ns + queued_us * 1000,
        );
        tracer.record(op, "views.deliver", root, t1, t2);

        // Untimed: each pushed value against a fresh refresh of the same
        // query on that version's snapshot.
        let tc = Instant::now();
        let snap = h.snapshot();
        match &snap {
            Some(snap) if snap.version() == outcome.version => {
                for (sub, update) in tenant.subs.iter().zip(&pushed) {
                    let mut view = sub
                        .query()
                        .build(QUBITS)
                        .expect("subscribed queries are valid");
                    view.refresh(snap);
                    if let Err(e) = check::values_match(&update.value, &view.value()) {
                        failures.fail(
                            op,
                            &format!(
                                "{} at version {}: {e}",
                                sub.query().label(),
                                outcome.version
                            ),
                        );
                        log.checks_ok = false;
                    }
                }
            }
            other => {
                let v = other.as_ref().map(|s| s.version());
                failures.fail(
                    op,
                    &format!("snapshot version {v:?} != pushed {}", outcome.version),
                );
                log.checks_ok = false;
            }
        }
        pinned = snap;
        checking += tc.elapsed();
    }
    log.busy = start.elapsed() - checking;
    log.spans = tracer.into_spans();
    log
}
