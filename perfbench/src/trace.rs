//! In-memory spans recorded around each public call the benchmark makes.
//!
//! Every span carries the id of the op that caused it and the index of
//! its parent span, so an op's spans form a tree rooted at its `op` span.
//! A layer's self time is its span's duration minus its children's, and
//! the root's self time is the explicit unattributed remainder: per op,
//! the layers' self times plus the remainder add up to the op's latency.
//! Spans stay in memory while the workload runs and are written out as a
//! Chrome trace at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every op.
pub const ROOT: &str = "op";

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub client: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Index of a span in its [`Tracer`]; `None` when tracing was off.
pub type SpanId = Option<usize>;

/// Per-client span store. Recording is a no-op while inactive, so the
/// same workload code runs traced and untraced ops.
pub struct Tracer {
    epoch: Instant,
    client: u32,
    active: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: u32) -> Tracer {
        Tracer {
            epoch,
            client,
            active: false,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Turns recording on or off for the following spans.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval `[start, end]` under `parent`.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record_ns(op, name, parent, self.ns(start), self.ns(end))
    }

    /// [`Tracer::record`] with offsets from the epoch, for intervals the
    /// program reports as durations (placed back to back by the caller).
    pub fn record_ns(
        &mut self,
        op: u64,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.active {
            return None;
        }
        self.spans.push(Span {
            op,
            client: self.client,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Records phases reported as durations (`UpdateReport` phases)
    /// back to back from `start_ns` under `parent`.
    pub fn record_phases(
        &mut self,
        op: u64,
        parent: SpanId,
        start_ns: u64,
        phases: &[(&'static str, std::time::Duration)],
    ) {
        let mut t = start_ns;
        for &(name, d) in phases {
            let end = t + d.as_nanos() as u64;
            self.record_ns(op, name, parent, t, end);
            t = end;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer self time over a set of ops, in µs per op.
pub struct Breakdown {
    pub ops: usize,
    /// Mean root (op) latency, µs.
    pub latency_us: f64,
    /// `(layer, mean self time µs)`, the root's self time listed as
    /// `unattributed`.
    pub layers: Vec<(String, f64)>,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        // Spans are stored per client and merged with offsets, so parent
        // indices refer to positions within the merged slice.
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut ops = 0usize;
        let mut root_ns = 0u64;
        let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur as f64 - child_ns[i] as f64;
            let name = if s.name == ROOT {
                ops += 1;
                root_ns += dur;
                "unattributed"
            } else {
                s.name
            };
            *self_ns.entry(name).or_default() += own;
        }
        let per_op = |ns: f64| if ops == 0 { 0.0 } else { ns / ops as f64 / 1e3 };
        Breakdown {
            ops,
            latency_us: per_op(root_ns as f64),
            layers: self_ns
                .into_iter()
                .map(|(k, v)| (k.to_string(), per_op(v)))
                .collect(),
        }
    }

    /// Mean self time of `layer` per op, µs (0 when never recorded).
    pub fn layer_us(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| n == layer)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Moves `parts` (mean µs per op, measured elsewhere) out of the self
    /// time of `from`, for layers the spans cannot see into. The total
    /// is unchanged.
    pub fn split(&mut self, from: &str, parts: &[(&str, f64)]) {
        let moved: f64 = parts.iter().map(|p| p.1).sum();
        if let Some(entry) = self.layers.iter_mut().find(|(n, _)| n == from) {
            entry.1 -= moved;
        }
        self.layers
            .extend(parts.iter().map(|&(n, us)| (n.to_string(), us)));
    }

    /// Prints the waterfall: every layer's self time and the remainder,
    /// which add up to the mean op latency.
    pub fn print(&self, workload: &str) {
        println!(
            "breakdown {workload}: {} traced ops, mean op latency {:.1} us",
            self.ops, self.latency_us
        );
        let mut sum = 0.0;
        for (name, us) in &self.layers {
            sum += us;
            let share = if self.latency_us > 0.0 {
                100.0 * us / self.latency_us
            } else {
                0.0
            };
            println!("  {name:<28} {us:>12.1} us  {share:>5.1}%");
        }
        println!(
            "  {:<28} {sum:>12.1} us  (sum of layers = op latency)",
            "total"
        );
    }
}

/// Merges per-client span stores, rebasing parent indices.
pub fn merge(stores: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in stores {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Writes `spans` as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.client,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
