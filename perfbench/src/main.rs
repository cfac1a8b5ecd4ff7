//! qTask end-to-end benchmark: the workload process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! with `<name>` one of `full_sim`, `mixed_edits`, `session_push` and
//! `push_one_session` (see each module).
//!
//! Drives the public API only (`qtask_qasm`, `Ckt`, `SessionManager` /
//! `SessionHandle`, `Subscription`) from one process: at most `nproc`
//! client threads over one shared executor of `nproc` workers. Inputs
//! come from the seed. Every answer is checked against an independent
//! reference (untimed), and ops attempted and failed are counted.
//!
//! Output protocol (read by `run.py`): `BEGIN <op>` / `END <op>` around
//! every op, `MEASURING` when the timed loop starts, `FAIL ...` per
//! failed op, human-readable tables, and last a `RESULT {json}` line.
//! With `--trace 0` the result holds the end-to-end metrics, measured
//! untraced; with `--trace 1` the per-layer metrics, from spans recorded
//! around each public call, the reports those calls return, and the
//! always-on `qtask-obs` counters.

mod check;
mod full_sim;
mod inputs;
mod measure;
mod mixed_edits;
mod session_push;
mod trace;

use qtask_taskflow::Executor;
use qtask_util::alloc_counter::CountingAlloc;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Block size of every engine the benchmark builds (the engine default).
pub const BLOCK_SIZE: usize = 256;
/// Times a workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Run parameters shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    pub threads: usize,
    pub out_dir: PathBuf,
}

impl Cfg {
    /// The engine configuration every workload uses.
    pub fn sim_config(&self) -> qtask_core::SimConfig {
        qtask_core::SimConfig {
            block_size: BLOCK_SIZE,
            num_threads: self.threads,
            ..qtask_core::SimConfig::default()
        }
    }

    /// Whether op `i` records spans: in a traced run every other op, so
    /// the untraced half prices the tracing itself.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// What a workload measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks_passed: bool,
    pub first_failure: Option<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub qubits: Vec<(String, u8)>,
}

impl Report {
    /// A fresh report carrying the failure accounting so far.
    pub fn new(failures: &check::Failures, checks_passed: bool, qubits: &[(&str, u8)]) -> Report {
        Report {
            attempted: failures.attempted(),
            failed: failures.failed(),
            checks_passed,
            first_failure: failures.first(),
            metrics: Vec::new(),
            qubits: qubits.iter().map(|&(c, n)| (c.to_string(), n)).collect(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// The service-layer metrics, for workloads that bypass the service.
pub fn no_service_metrics(r: &mut Report) {
    for name in [
        "service.queue_delay_us",
        "service.update_us",
        "service.delivery_us",
    ] {
        r.metric(name, 0.0, "us");
    }
}

/// Splits one client's op latencies (in op order) into the traced and
/// untraced halves of a traced run; op `k` was traced iff
/// `cfg.traced(k + 1)`.
pub fn split_traced(cfg: &Cfg, latency_ms: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (k, &l) in latency_ms.iter().enumerate() {
        if cfg.traced(k + 1) {
            traced.push(l);
        } else {
            untraced.push(l);
        }
    }
    (traced, untraced)
}

/// Ends a traced run: prints the per-layer waterfall, writes the spans
/// as a Chrome trace, and reports the tracing overhead (median traced
/// over median untraced op latency).
pub fn finish_trace(
    r: &mut Report,
    cfg: &Cfg,
    workload: &str,
    (traced, untraced): (Vec<f64>, Vec<f64>),
    breakdown: &trace::Breakdown,
    spans: &[trace::Span],
) {
    breakdown.print(workload);
    r.metric(
        "trace.unattributed_us",
        breakdown.layer_us("unattributed"),
        "us",
    );
    r.metric(
        "trace.overhead_ratio",
        measure::median(&traced) / measure::median(&untraced),
        "ratio",
    );
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-{}.json", cfg.seed));
    match trace::write_chrome(&path, spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench-out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            "--out" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Cfg {
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace: trace == 1,
        threads,
        out_dir,
    };

    let executor = Arc::new(Executor::new(threads));
    let t0 = Instant::now();
    let report = match workload.as_str() {
        "full_sim" => full_sim::run(&cfg, &executor),
        "mixed_edits" => mixed_edits::run(&cfg, &executor),
        "session_push" => session_push::run(&cfg, &executor, 2),
        "push_one_session" => session_push::run(&cfg, &executor, 1),
        _ => usage(),
    };
    let wall = t0.elapsed().as_secs_f64();
    // After the workload, so its first op is the process's first engine
    // work.
    let self_test = check::self_test(&executor);
    match &self_test {
        Ok(()) => println!("self-test: the checks reject a perturbed state and view values"),
        Err(e) => println!("FAIL seed={seed} op=self-test {e}"),
    }

    let qubits: Vec<String> = report
        .qubits
        .iter()
        .map(|(c, n)| format!("\"{c}\": {n}"))
        .collect();
    println!(
        "PROVENANCE {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {threads}, \
         \"executor_threads\": {}, \"client_threads_max\": {threads}, \"block_size\": {BLOCK_SIZE}, \
         \"qubits\": {{{}}}, \"malloc_arena_max\": \"{}\", \"trace\": {trace}, \"wall_s\": {wall:.3}}}",
        executor.num_threads(),
        qubits.join(", "),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into()),
    );
    if let Some(first) = &report.first_failure {
        println!("first failure: {first}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let correct = report.checks_passed && self_test.is_ok() && report.failed == 0;
    println!(
        "RESULT {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    let _ = std::io::stdout().flush();
}

/// A finite JSON number with every digit the measurement has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
