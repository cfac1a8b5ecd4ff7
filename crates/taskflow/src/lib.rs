//! A work-stealing task-graph executor — the from-scratch substitute for
//! the Taskflow C++ library the paper builds on (the paper's reference
//! 31).
//!
//! qTask uses exactly two Taskflow features (paper §III-F), and both map
//! onto one structure, the [`RetainedGraph`]:
//!
//! 1. **Static tasking** — a DAG of named tasks with precedence edges,
//!    used for inter-gate operation parallelism between partitions. Each
//!    task is a retained node; each precedence is an edge.
//! 2. **Joined subflow** — a task that fans out into parallel children,
//!    with its successors waiting for every child. Used for intra-gate
//!    operation parallelism inside a partition. Here it is a node with
//!    `chunks > 1`: one `invoke(payload, chunk)` call per chunk.
//!
//! Nodes store no closures, only a `u64` payload; the caller passes one
//! `invoke` closure to [`Executor::run_dirty`], which runs exactly the
//! nodes marked dirty since the previous run on a persistent pool of
//! workers with crossbeam-deque work stealing and condition-variable
//! parking — the "work-stealing runtime" of the paper's reference 47.
//!
//! # Example
//! ```
//! use qtask_taskflow::{Executor, RetainedGraph};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let executor = Executor::new(4);
//! let counter = AtomicUsize::new(0);
//! let mut graph = RetainedGraph::new();
//! let a = graph.insert(1, 1, Arc::from("a")); // a static task
//! let fan = graph.insert(2, 8, Arc::from("fan")); // a joined 8-way fan
//! graph.add_edge(a, fan);
//! let invoke = |_payload: u64, _chunk: u32| {
//!     counter.fetch_add(1, Ordering::SeqCst);
//! };
//! let stats = executor.run_dirty(&mut graph, &invoke).unwrap();
//! assert_eq!((stats.nodes_run, stats.tasks_run), (2, 9));
//! assert_eq!(counter.load(Ordering::SeqCst), 9);
//!
//! // Re-running touches only what was marked dirty again.
//! graph.mark_dirty(fan);
//! executor.run_dirty(&mut graph, &invoke).unwrap();
//! assert_eq!(counter.load(Ordering::SeqCst), 17);
//! ```

pub mod executor;
pub mod retained;

pub use executor::{Executor, TaskPanic};
pub use retained::{DirtyRunStats, NodeId, RetainedGraph};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
