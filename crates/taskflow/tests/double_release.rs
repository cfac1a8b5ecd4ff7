//! Root publication of `Executor::run_dirty` under a busy pool.
//!
//! `run_dirty` must decide which dirty nodes are roots before it
//! publishes the first job. If it tested the live join counts while
//! publishing, a worker that is already awake (here: running another
//! thread's graph) could finish an early root, drop a later node's join
//! count to zero and release it — and the publishing loop would then see
//! that zero and publish the same node a second time. The node would run
//! twice, and the run's pending count would reach zero while a job still
//! pointed into the caller's stack.

use qtask_taskflow::{Executor, NodeId, RetainedGraph};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Independent roots published between `r` and its successor `s`.
const ROOTS: usize = 200;
const ROUNDS: usize = 2000;

/// Payload of the node whose invocations are counted.
const S: u64 = u64::MAX;

#[test]
fn successor_of_an_early_root_runs_exactly_once() {
    let ex = Executor::new(2);
    let name: Arc<str> = Arc::from("n");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Keeps both workers awake with another graph's jobs, so a
        // worker can pick up `r` while the main thread is still
        // publishing roots.
        scope.spawn(|| {
            let mut g = RetainedGraph::new();
            let ids: Vec<NodeId> = (0..64).map(|i| g.insert(i, 1, Arc::clone(&name))).collect();
            for pair in ids.windows(2).step_by(2) {
                g.add_edge(pair[0], pair[1]);
            }
            while !stop.load(Ordering::Relaxed) {
                for &id in &ids {
                    g.mark_dirty(id);
                }
                ex.run_dirty(&mut g, &|_, _| std::hint::spin_loop())
                    .unwrap();
            }
        });

        // Stops the background thread even if an assertion below fails,
        // so a failure reports instead of hanging the scope.
        let _stop = StopOnDrop(&stop);
        for round in 0..ROUNDS {
            let mut g = RetainedGraph::new();
            let r = g.insert(0, 1, Arc::clone(&name));
            for i in 0..ROOTS {
                g.insert(1 + i as u64, 1, Arc::clone(&name));
            }
            let s = g.insert(S, 1, Arc::clone(&name));
            g.add_edge(r, s);
            let s_runs = AtomicUsize::new(0);
            let stats = ex
                .run_dirty(&mut g, &|payload, _| {
                    if payload == S {
                        s_runs.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .unwrap();
            assert_eq!(stats.nodes_run, ROOTS + 2);
            assert_eq!(
                s_runs.load(Ordering::SeqCst),
                1,
                "round {round}: the successor of an early root ran more than once"
            );
        }
    });
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
