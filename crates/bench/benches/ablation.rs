//! Ablation of qTask's MxV group cap (§III-F): how many superposition
//! gates share one matrix–vector row (group 1 = gate-at-a-time; larger
//! groups halve full-vector passes but square the per-amplitude source
//! terms). The cap is the one engine knob with no single right value;
//! the engine's other design choices (owner-index resolution, batched
//! kernels, snapshot publication, row order) have one path each. See
//! `kernel_throughput` for the isolated kernel-layer numbers.

use qtask_bench::*;
use qtask_core::SimConfig;
use qtask_taskflow::Executor;
use std::sync::Arc;

fn measure(opts: &Opts, ex: &Arc<Executor>, name: &str, config: &SimConfig) -> (f64, f64) {
    let (circuit, n) = opts.build_circuit(name);
    let levels = levels_of(&circuit);
    let full = median_of(opts.reps, || {
        let mut sim = make_sim(SimKind::QTask, n, ex, config);
        full_sim_ms(sim.as_mut(), &levels)
    });
    let inc = median_of(opts.reps, || {
        let mut sim = make_sim(SimKind::QTask, n, ex, config);
        incremental_sim_ms(sim.as_mut(), &levels)
    });
    (full, inc)
}

fn main() {
    harness_init();
    let opts = Opts::from_env();
    let ex = Arc::new(Executor::new(opts.threads));
    println!("Ablation bench ({} threads)\n", opts.threads);

    println!("MxV group cap (superposition gates per matrix-vector row):");
    println!(
        "{:<12} {:>6} {:>12} {:>12}",
        "circuit", "cap", "full (ms)", "inc (ms)"
    );
    for name in ["qft", "ising", "dnn"] {
        for cap in [1usize, 2, 3, 4] {
            let config = SimConfig {
                mxv_group_max: cap,
                ..SimConfig::default()
            };
            let (full, inc) = measure(&opts, &ex, name, &config);
            println!("{name:<12} {cap:>6} {full:>12.2} {inc:>12.2}");
        }
    }
}
