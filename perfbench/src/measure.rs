//! Sampling helpers: percentiles, process statistics from `/proc`, and
//! deltas of the always-on `qtask-obs` registry, the executor and the
//! counting allocator.

use qtask_taskflow::Executor;
use qtask_util::alloc_counter::CountingAlloc;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Minor page faults, user and system CPU seconds of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    pub minor_faults: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; zeros where it is unavailable.
    pub fn now() -> ProcStat {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name, which may hold spaces.
        let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
            return ProcStat::default();
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        // `rest` starts at field 3 (state): minflt is field 10, utime 14,
        // stime 15, in clock ticks of 1/100 s on Linux.
        ProcStat {
            minor_faults: num(7),
            user_s: num(11) / 100.0,
            sys_s: num(12) / 100.0,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    qtask_util::alloc_counter::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

/// The obs counters every workload reads, as registered by the engine,
/// executor, views and service.
const COUNTERS: &[&str] = &[
    "core.updates",
    "core.partitions_executed",
    "core.tasks_executed",
    "core.blocks_resolved",
    "core.owner_probes",
    "core.snapshot_blocks_resolved",
    "core.graph_nodes_reused",
    "core.graph_nodes_patched",
    "core.staged_ops",
    "taskflow.steals",
    "taskflow.parks",
    "views.patches",
    "views.full_refreshes",
    "views.blocks_repatched",
    "views.blocks_rescanned",
    "views.pushed",
    "views.push_lagged",
];

/// The obs histograms whose sums the workloads read (all in µs).
const HISTOGRAMS: &[&str] = &[
    "core.update_us",
    "core.update_build_us",
    "core.update_run_us",
    "service.queue_delay_us",
];

/// A point-in-time reading of every counter the benchmark reports.
#[derive(Clone, Debug)]
pub struct Probe {
    values: Vec<(&'static str, f64)>,
    pub proc: ProcStat,
}

impl Probe {
    pub fn take(executor: &Executor) -> Probe {
        let reg = qtask_obs::registry();
        let mut values: Vec<(&'static str, f64)> = COUNTERS
            .iter()
            .map(|&n| (n, reg.counter(n).get() as f64))
            .collect();
        values.extend(
            HISTOGRAMS
                .iter()
                .map(|&n| (n, reg.histogram(n).sum() as f64)),
        );
        values.push(("taskflow.tasks_run", executor.tasks_run() as f64));
        values.push(("mem.alloc_calls", CountingAlloc::alloc_calls() as f64));
        Probe {
            values,
            proc: ProcStat::now(),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("probe has no value '{name}'"))
    }

    /// The change of every value from `earlier` to `self`.
    pub fn since(&self, earlier: &Probe) -> Delta {
        Delta {
            values: self
                .values
                .iter()
                .map(|&(n, v)| (n, v - earlier.get(n)))
                .collect(),
            proc: ProcStat {
                minor_faults: self.proc.minor_faults - earlier.proc.minor_faults,
                user_s: self.proc.user_s - earlier.proc.user_s,
                sys_s: self.proc.sys_s - earlier.proc.sys_s,
            },
        }
    }
}

/// The difference of two [`Probe`]s.
#[derive(Clone, Debug)]
pub struct Delta {
    values: Vec<(&'static str, f64)>,
    pub proc: ProcStat,
}

impl Delta {
    /// Change of counter or histogram sum `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("probe has no value '{name}'"))
    }
}

/// Adds the per-layer metrics every workload reports from the obs,
/// executor, allocator and `/proc` deltas over its measured ops, as
/// means per op. `block_size` prices resolved blocks in bytes.
pub fn add_layer_metrics(r: &mut crate::Report, d: &Delta, ops: f64, block_size: usize) {
    let per = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    let build = d.get("core.update_build_us");
    let run = d.get("core.update_run_us");
    let update = d.get("core.update_us");
    let resolved = d.get("core.blocks_resolved");
    r.metric("core.staged_ops", per(d.get("core.staged_ops")), "count");
    r.metric("core.build_us", per(build), "us");
    r.metric("core.run_us", per(run), "us");
    r.metric(
        "core.publish_us",
        per((update - build - run).max(0.0)),
        "us",
    );
    for (name, unit) in [
        ("core.partitions_executed", "count"),
        ("core.graph_nodes_patched", "count"),
        ("core.graph_nodes_reused", "count"),
        ("core.tasks_executed", "count"),
        ("core.blocks_resolved", "count"),
        ("core.owner_probes", "count"),
        ("core.snapshot_blocks_resolved", "count"),
        ("taskflow.tasks_run", "count"),
        ("taskflow.steals", "count"),
        ("taskflow.parks", "count"),
        ("mem.alloc_calls", "count"),
        ("views.patches", "count"),
        ("views.full_refreshes", "count"),
        ("views.blocks_repatched", "count"),
        ("views.blocks_rescanned", "count"),
        ("views.pushed", "count"),
        ("views.push_lagged", "count"),
    ] {
        r.metric(name, per(d.get(name)), unit);
    }
    let probes = d.get("core.owner_probes");
    r.metric(
        "core.probes_per_resolve",
        if resolved > 0.0 {
            probes / resolved
        } else {
            0.0
        },
        "ratio",
    );
    let amp_bytes = (block_size * std::mem::size_of::<qtask_num::Complex64>()) as f64;
    r.metric(
        "core.amp_mb_computed",
        per(resolved * amp_bytes / 1e6),
        "MB",
    );
    r.metric("mem.minor_faults", per(d.proc.minor_faults), "count");
    r.metric("mem.sys_cpu_s", per(d.proc.sys_s), "s");
    r.metric("mem.user_cpu_s", per(d.proc.user_s), "s");
    r.metric("mem.rss_peak_mb", rss_peak_mb(), "MB");
    let patches = d.get("views.patches");
    let refreshes = d.get("views.full_refreshes");
    r.metric(
        "views.patch_ratio",
        if patches + refreshes > 0.0 {
            patches / (patches + refreshes)
        } else {
            0.0
        },
        "ratio",
    );
}

/// CPU time all threads of this process have run so far, in ns, from
/// `/proc/self/task/*/schedstat` (time stolen by the hypervisor is left
/// out). Against wall time it shows how well an op used the workers.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
