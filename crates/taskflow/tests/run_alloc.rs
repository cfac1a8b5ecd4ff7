//! Allocation profile of a cold retained-graph run.
//!
//! `Executor::run_dirty` keeps its run state flat: join counts and chunk
//! countdowns live in the retained nodes, and successors are read from
//! the retained edge lists. So the first run of a freshly built graph
//! allocates the same (constant) number of times whatever its size.
//!
//! This test lives in its own binary: it installs the counting global
//! allocator, whose counters are process-global, and compares exact
//! counts over a code region.

use qtask_taskflow::{Executor, RetainedGraph};
use qtask_util::alloc_counter::CountingAlloc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A chain of `n` nodes in which every eighth node is an 8-chunk fan and
/// every sixteenth a barrier (no invoke at all).
fn chain_with_fans(n: usize) -> RetainedGraph {
    let name: Arc<str> = Arc::from("node");
    let mut g = RetainedGraph::new();
    let mut prev = None;
    for i in 0..n {
        let chunks = match i % 16 {
            0 => 0,
            7 | 15 => 8,
            _ => 1,
        };
        let id = g.insert(i as u64, chunks, Arc::clone(&name));
        if let Some(p) = prev {
            g.add_edge(p, id);
        }
        prev = Some(id);
    }
    g
}

/// Builds a fresh graph of `n` nodes and returns the heap allocations of
/// its first (cold) run.
fn cold_run_allocs(ex: &Executor, n: usize) -> usize {
    let mut g = chain_with_fans(n);
    let calls = AtomicUsize::new(0);
    let invoke = |_: u64, _: u32| {
        calls.fetch_add(1, Ordering::Relaxed);
    };
    let before = CountingAlloc::alloc_calls();
    let stats = ex.run_dirty(&mut g, &invoke).unwrap();
    let allocs = CountingAlloc::alloc_calls() - before;
    assert_eq!(stats.nodes_run, n);
    assert_eq!(stats.tasks_run, calls.load(Ordering::Relaxed));
    assert_eq!(g.dirty_len(), 0);
    allocs
}

#[test]
fn cold_run_allocations_do_not_grow_with_the_graph() {
    // One worker: no steals, so no counter is interned mid-measurement.
    let ex = Executor::new(1);
    // A throwaway run grows the worker's deque and interns the
    // executor's counters.
    cold_run_allocs(&ex, 10_000);
    let small = cold_run_allocs(&ex, 100);
    let large = cold_run_allocs(&ex, 10_000);
    assert_eq!(
        small, large,
        "a cold run of 10,000 nodes allocated {large} times, one of 100 nodes {small}"
    );
}
