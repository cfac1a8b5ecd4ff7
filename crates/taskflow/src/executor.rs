//! The work-stealing executor.
//!
//! A persistent pool of workers executes the dirty subset of a
//! [`RetainedGraph`] ([`Executor::run_dirty`]). A run builds no per-node
//! objects: join counts and chunk countdowns live in the retained nodes
//! themselves, and successors are read from the retained edge lists.
//! There is one job kind, a chunk `(run, node, chunk)`; a node's last
//! chunk to finish releases its dirty successors. Workers pop jobs from
//! their local LIFO deque, then steal from the global injector and from
//! each other (crossbeam-deque), and park on a condition variable when
//! idle.
//!
//! # Safety model
//!
//! A job holds a raw pointer to the `RetainedRun` on the stack of the
//! blocking `run_dirty` call that published it. Three invariants make
//! this sound:
//!
//! 1. **Stability** — the retained graph is mutably borrowed for the
//!    whole `run_dirty` call, so its nodes cannot move or change shape
//!    while jobs point into it; workers mutate only the atomic
//!    countdowns.
//! 2. **Exactly-once release** — each dirty node's jobs are published
//!    once: a root by `run_dirty` (the root set is collected from the
//!    join counts before the first job is published), any other node by
//!    the completion that drops its join count to zero.
//!    So `pending`, which starts at the run's job count, reaches zero only
//!    after every job completed.
//! 3. **Liveness** — `run_dirty` keeps its `RetainedRun` (and the
//!    `invoke` closure it borrows) alive until the done gate opens, and
//!    the gate opens only on the final `pending` decrement, which is each
//!    job's last access to the run. The done gate itself is a separate
//!    `Arc` cloned *before* that decrement.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::retained::{DirtyRunStats, KahnScratch, NodeId, RetainedGraph, RetainedNode};
use qtask_util::Arena;

/// Structured description of a task panic, returned by
/// [`Executor::run_dirty`]. The run is always drained before this is
/// produced — no job is left queued and the executor stays usable.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Name of the first node that panicked.
    pub task: Arc<str>,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task '{}' panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a panic payload as text for [`TaskPanic::message`].
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-injection probe on the per-task execution path (inside the
/// per-task `catch_unwind`, so an injected panic is contained exactly
/// like a real task panic). Compiles to nothing without the `faults`
/// feature.
#[inline]
fn task_probe() {
    qtask_faults::fault_point!("taskflow/task");
}

/// A unit of scheduled work: one chunk of a dirty retained-graph node
/// (chunk 0 for barriers and single calls).
#[derive(Clone, Copy)]
struct Job {
    run: *const RetainedRun<'static>,
    node: NodeId,
    chunk: u32,
}

// SAFETY: the run outlives every job it published (module safety model),
// and workers mutate it only through atomics and the panic mutex.
unsafe impl Send for Job {}

struct DoneGate {
    lock: Mutex<bool>,
    cv: Condvar,
}

/// First panic observed in a run: the task's name plus its payload.
type FirstPanic = Mutex<Option<(Arc<str>, Box<dyn Any + Send + 'static>)>>;

/// Completion bookkeeping shared by every job of one run: the pending
/// count, the cancellation flag, the first panic and the done gate. A
/// retained graph keeps one across runs, so a warm `run_dirty` allocates
/// none of it.
pub(crate) struct RunState {
    /// Jobs not yet completed.
    pending: AtomicUsize,
    /// Set when a task panicked; remaining invocations are skipped.
    cancelled: AtomicBool,
    /// First panic: the task's name plus its payload.
    panic: FirstPanic,
    done: Arc<DoneGate>,
}

impl Default for RunState {
    fn default() -> RunState {
        RunState {
            pending: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Arc::new(DoneGate {
                lock: Mutex::new(false),
                cv: Condvar::new(),
            }),
        }
    }
}

impl RunState {
    /// Re-arms the state for a run of `jobs` jobs.
    fn arm(&self, jobs: usize) {
        self.pending.store(jobs, Ordering::SeqCst);
        self.cancelled.store(false, Ordering::SeqCst);
        *self.panic.lock() = None;
        *self.done.lock.lock() = false;
    }

    /// Records a task panic (the first one wins) and cancels the rest of
    /// the run.
    fn record_panic(&self, task: &Arc<str>, payload: Box<dyn Any + Send + 'static>) {
        self.cancelled.store(true, Ordering::Relaxed);
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some((Arc::clone(task), payload));
        }
    }

    /// Counts one job done; the last one opens the done gate. This is the
    /// job's final access to the run: the gate is cloned *before* the
    /// decrement, so the signal never touches freed run memory.
    fn job_done(&self) {
        let done = Arc::clone(&self.done);
        let pending = self.pending.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(pending > 0, "a run completed more jobs than it published");
        if pending == 1 {
            let mut flag = done.lock.lock();
            *flag = true;
            done.cv.notify_all();
        }
    }

    /// Blocks until the done gate opens, then takes the first panic.
    fn wait(&self) -> Option<(Arc<str>, Box<dyn Any + Send + 'static>)> {
        {
            let mut flag = self.done.lock.lock();
            while !*flag {
                self.done.cv.wait(&mut flag);
            }
        }
        self.panic.lock().take()
    }
}

/// The context of one [`Executor::run_dirty`] call, held on the caller's
/// stack for the duration of the (blocking) run.
struct RetainedRun<'a> {
    nodes: &'a Arena<RetainedNode>,
    invoke: &'a (dyn Fn(u64, u32) + Send + Sync),
    state: &'a RunState,
}

impl RetainedRun<'_> {
    /// The jobs of a node whose dirty predecessors have all completed:
    /// one per chunk, or one for a barrier.
    fn jobs_of(&self, id: NodeId, chunks: u32) -> impl Iterator<Item = Job> {
        // Jobs erase the borrow; `run_dirty` outlives them (safety model).
        let run: *const RetainedRun<'static> = (self as *const Self).cast();
        (0..chunks.max(1)).map(move |chunk| Job {
            run,
            node: id,
            chunk,
        })
    }
}

struct SleepCtl {
    /// Bumped on every job publication; prevents lost wakeups.
    epoch: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

struct Inner {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep: SleepCtl,
    shutdown: AtomicBool,
    /// Lifetime count of jobs executed (barriers and cancelled chunks
    /// included — they're still drained through a worker).
    tasks_run: AtomicU64,
}

/// A persistent work-stealing thread pool executing [`RetainedGraph`]s.
pub struct Executor {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    num_threads: usize,
}

impl Executor {
    /// Creates an executor with `num_threads` workers (at least one).
    pub fn new(num_threads: usize) -> Executor {
        let num_threads = num_threads.max(1);
        let deques: Vec<WorkerDeque<Job>> =
            (0..num_threads).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            sleep: SleepCtl {
                epoch: AtomicU64::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
            tasks_run: AtomicU64::new(0),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(idx, deque)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qtask-worker-{idx}"))
                    .spawn(move || worker_loop(inner, deque, idx))
                    .expect("spawn worker thread")
            })
            .collect();
        Executor {
            inner,
            handles,
            num_threads,
        }
    }

    /// Creates an executor sized to the machine's available parallelism.
    pub fn with_default_threads() -> Executor {
        Executor::new(crate::default_threads())
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Lifetime count of tasks this pool has executed, across every
    /// graph and every caller sharing it. Service/bench observability:
    /// a shared pool multiplexing N sessions reports aggregate task
    /// throughput here without per-session bookkeeping.
    pub fn tasks_run(&self) -> u64 {
        self.inner.tasks_run.load(Ordering::Relaxed)
    }

    /// Executes the dirty subset of a [`RetainedGraph`], blocking the
    /// caller, and clears the dirty flags.
    ///
    /// Only edges between two dirty nodes gate execution — a clean
    /// predecessor's output is already materialized, so it never blocks a
    /// dirty successor. Each dirty node runs according to its chunk
    /// shape: barriers complete immediately, single nodes call
    /// `invoke(payload, 0)`, fans call `invoke(payload, chunk)` for every
    /// chunk in parallel with successors gated on all of them.
    ///
    /// The run state is flat: each dirty node's join count and chunk
    /// countdown live in the retained node itself, and completing jobs
    /// read successors straight from the retained edge lists. Staging a
    /// run is a few passes over the dirty nodes and their edges; it
    /// builds no per-node objects, so a run allocates nothing however
    /// many nodes it executes.
    ///
    /// Panics in `invoke` are contained: the run is drained, downstream
    /// dirty nodes are cancelled, the first panic is reported as a
    /// [`TaskPanic`], and both the graph and the executor stay usable.
    ///
    /// # Panics
    /// Panics if the dirty subset contains a dependency cycle (a
    /// caller-side graph-construction bug).
    pub fn run_dirty(
        &self,
        graph: &mut RetainedGraph,
        invoke: &(dyn Fn(u64, u32) + Send + Sync),
    ) -> Result<DirtyRunStats, TaskPanic> {
        if graph.dirty.is_empty() {
            return Ok(DirtyRunStats::default());
        }
        // Pass 1: reset each dirty node's counters and size the run.
        let mut stats = DirtyRunStats {
            nodes_run: graph.dirty.len(),
            ..DirtyRunStats::default()
        };
        let mut jobs = 0usize;
        for (slot, &d) in graph.dirty.iter().enumerate() {
            let node = &mut graph.nodes[d.key()];
            debug_assert!(node.dirty, "stale entry in dirty list");
            if !node.fresh {
                stats.nodes_reused += 1;
            }
            stats.tasks_run += node.chunks as usize;
            jobs += node.chunks.max(1) as usize;
            node.slot = slot as u32;
            *node.join.get_mut() = 0;
            *node.chunks_left.get_mut() = node.chunks;
        }
        // Pass 2: join counts — every edge between two dirty nodes gates
        // its target. Clean neighbours are skipped entirely. Relaxed is
        // enough: workers first see these counts through the injector's
        // lock once the roots are published.
        let nodes = &graph.nodes;
        for &d in &graph.dirty {
            for s in &nodes[d.key()].succs {
                let succ = &nodes[s.key()];
                if succ.dirty {
                    succ.join.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Pass 3, in every build: reject a cycle before anything is
        // published — it would strand the pending counter and hang the
        // run, including one reachable from a root (`r → a → b → a`).
        // The same pass collects the roots (dirty nodes without a dirty
        // predecessor). They must be fixed before the first publication:
        // after it, a worker (awake on another caller's run) may complete
        // a root and drop a later node's count to zero, and that node is
        // then released by the worker — testing `join == 0` while
        // publishing would publish it a second time.
        let roots = topo_order(nodes, &graph.dirty, &mut graph.kahn);

        // Publish the roots and wait for the drain.
        graph.run.arm(jobs);
        let run = RetainedRun {
            nodes,
            invoke,
            state: &graph.run,
        };
        for &d in &graph.kahn.order[..roots] {
            for job in run.jobs_of(d, nodes[d.key()].chunks) {
                self.inner.injector.push(job);
            }
        }
        wake_workers(&self.inner);
        let panic = run.state.wait();

        // The run is drained: clear the dirty window.
        for &d in &graph.dirty {
            let node = &mut graph.nodes[d.key()];
            node.dirty = false;
            node.fresh = false;
        }
        graph.dirty.clear();
        match panic {
            None => Ok(stats),
            Some((task, payload)) => Err(TaskPanic {
                task,
                message: panic_message(payload.as_ref()),
            }),
        }
    }
}

/// Kahn's algorithm over the dirty subset of a retained graph, seeded
/// from the pre-publication join counts. Leaves a topological order of
/// the dirty nodes in `kahn.order` and returns how many lead it with a
/// zero count: the run's roots. Panics on a cycle. The buffers are reused
/// across runs and reserved to the dirty-set size, so the check adds no
/// allocation that grows with the graph.
fn topo_order(nodes: &Arena<RetainedNode>, dirty: &[NodeId], kahn: &mut KahnScratch) -> usize {
    let KahnScratch { indeg, order } = kahn;
    indeg.clear();
    indeg.extend(
        dirty
            .iter()
            .map(|d| nodes[d.key()].join.load(Ordering::Relaxed)),
    );
    order.clear();
    order.reserve(dirty.len());
    order.extend(
        dirty
            .iter()
            .copied()
            .filter(|d| indeg[nodes[d.key()].slot as usize] == 0),
    );
    let roots = order.len();
    let mut next = 0;
    while let Some(&d) = order.get(next) {
        next += 1;
        for &s in &nodes[d.key()].succs {
            let succ = &nodes[s.key()];
            if succ.dirty {
                let deg = &mut indeg[succ.slot as usize];
                *deg -= 1;
                if *deg == 0 {
                    order.push(s);
                }
            }
        }
    }
    assert_eq!(
        order.len(),
        dirty.len(),
        "retained dirty subset has a dependency cycle"
    );
    roots
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.sleep.epoch.fetch_add(1, Ordering::SeqCst);
        {
            let _g = self.inner.sleep.lock.lock();
            self.inner.sleep.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bumps the publication epoch and wakes sleeping workers.
fn wake_workers(inner: &Inner) {
    inner.sleep.epoch.fetch_add(1, Ordering::SeqCst);
    if inner.sleep.sleepers.load(Ordering::SeqCst) > 0 {
        let _g = inner.sleep.lock.lock();
        inner.sleep.cv.notify_all();
    }
}

fn find_work(inner: &Inner, local: &WorkerDeque<Job>, my_idx: usize) -> Option<Job> {
    if let Some(j) = local.pop() {
        return Some(j);
    }
    // Drain the injector (batched to amortize).
    loop {
        match inner.injector.steal_batch_and_pop(local) {
            Steal::Success(j) => return Some(j),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    // Steal from siblings.
    for (i, st) in inner.stealers.iter().enumerate() {
        if i == my_idx {
            continue;
        }
        loop {
            match st.steal() {
                Steal::Success(j) => {
                    qtask_obs::counter!("taskflow.steals").inc();
                    return Some(j);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

fn worker_loop(inner: Arc<Inner>, local: WorkerDeque<Job>, idx: usize) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = find_work(&inner, &local, idx) {
            // SAFETY: a job's run stays alive until the job completed
            // (module safety model).
            unsafe { execute(job, &inner, &local) };
            continue;
        }
        // Slow path: re-scan once against the publication epoch, then park.
        let observed = inner.sleep.epoch.load(Ordering::SeqCst);
        if let Some(job) = find_work(&inner, &local, idx) {
            unsafe { execute(job, &inner, &local) };
            continue;
        }
        let mut guard = inner.sleep.lock.lock();
        inner.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        if inner.sleep.epoch.load(Ordering::SeqCst) == observed
            && !inner.shutdown.load(Ordering::Acquire)
        {
            qtask_obs::counter!("taskflow.parks").inc();
            inner.sleep.cv.wait(&mut guard);
        }
        inner.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one chunk of a retained node. The node completes with its last
/// chunk, which releases every dirty successor whose join count it
/// drops to zero.
///
/// # Safety
/// The job's run must be live: the job was published by a `run_dirty`
/// call that has not yet drained (module safety model).
unsafe fn execute(job: Job, inner: &Inner, local: &WorkerDeque<Job>) {
    inner.tasks_run.fetch_add(1, Ordering::Relaxed);
    qtask_obs::counter!("taskflow.tasks_run").inc();
    // SAFETY: `run_dirty` holds its `RetainedRun` (and the graph it
    // borrows) until every job of the run completed.
    let run = unsafe { &*job.run };
    let node = &run.nodes[job.node.key()];
    let task_span = qtask_obs::span!(Arc::clone(&node.name));
    if node.chunks > 0 && !run.state.cancelled.load(Ordering::Relaxed) {
        let (payload, chunk) = (node.payload, job.chunk);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
            task_probe();
            (run.invoke)(payload, chunk)
        })) {
            run.state.record_panic(&node.name, p);
        }
    }
    drop(task_span);
    // AcqRel on both countdowns: each decrement releases this job's
    // writes, and the decrement that reaches zero acquires those of every
    // earlier chunk and predecessor before the node (or successor) runs.
    if node.chunks <= 1 || node.chunks_left.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut released = false;
        for &s in &node.succs {
            let succ = &run.nodes[s.key()];
            if succ.dirty && succ.join.fetch_sub(1, Ordering::AcqRel) == 1 {
                released = true;
                for job in run.jobs_of(s, succ.chunks) {
                    local.push(job);
                }
            }
        }
        if released {
            wake_workers(inner);
        }
    }
    run.state.job_done();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as O};
    use std::sync::Mutex as StdMutex;

    fn name(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// Marks every live node of `g` dirty.
    fn mark_all(g: &mut RetainedGraph, ids: &[NodeId]) {
        for &id in ids {
            g.mark_dirty(id);
        }
    }

    #[test]
    fn runs_all_tasks_once() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        for i in 0..100 {
            g.insert(i, 1, name("t"));
        }
        ex.run_dirty(&mut g, &|_, _| {
            count.fetch_add(1, O::SeqCst);
        })
        .unwrap();
        assert_eq!(count.load(O::SeqCst), 100);
    }

    #[test]
    fn tasks_run_counts_across_graphs() {
        let ex = Executor::new(2);
        assert_eq!(ex.tasks_run(), 0);
        let mut g = RetainedGraph::new();
        let ids: Vec<NodeId> = (0..10).map(|i| g.insert(i, 1, name("t"))).collect();
        ex.run_dirty(&mut g, &|_, _| {}).unwrap();
        assert_eq!(ex.tasks_run(), 10);
        mark_all(&mut g, &ids);
        ex.run_dirty(&mut g, &|_, _| {}).unwrap();
        assert_eq!(ex.tasks_run(), 20);
        // A second graph counts into the same lifetime total.
        let mut h = RetainedGraph::new();
        h.insert(0, 4, name("fan"));
        ex.run_dirty(&mut h, &|_, _| {}).unwrap();
        assert_eq!(ex.tasks_run(), 24);
    }

    #[test]
    fn respects_dependencies() {
        let ex = Executor::new(8);
        let log = StdMutex::new(Vec::new());
        let mut g = RetainedGraph::new();
        let [a, b, c, d] = [b'a', b'b', b'c', b'd'].map(|p| g.insert(p as u64, 1, name("t")));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        ex.run_dirty(&mut g, &|p, _| log.lock().unwrap().push(p as u8 as char))
            .unwrap();
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0], 'a');
        assert_eq!(log[3], 'd');
    }

    #[test]
    fn diamond_chain_order_stress() {
        // A long chain of diamonds; every stage must observe the previous
        // stage's writes (tests join-counter + memory-ordering correctness).
        let ex = Executor::new(8);
        let stages = 200;
        let cells: Vec<AtomicUsize> = (0..stages).map(|_| AtomicUsize::new(0)).collect();
        let mut g = RetainedGraph::new();
        let mut prev: Option<NodeId> = None;
        for i in 0..stages as u64 {
            let left = g.insert(i, 1, name("l"));
            let right = g.insert(i, 1, name("r"));
            let join = g.insert(i, 0, name("j"));
            if let Some(p) = prev {
                g.add_edge(p, left);
                g.add_edge(p, right);
            }
            g.add_edge(left, join);
            g.add_edge(right, join);
            prev = Some(join);
        }
        ex.run_dirty(&mut g, &|stage, _| {
            let i = stage as usize;
            if i > 0 {
                assert_eq!(cells[i - 1].load(O::SeqCst), 2);
            }
            cells[i].fetch_add(1, O::SeqCst);
        })
        .unwrap();
        assert!(cells.iter().all(|c| c.load(O::SeqCst) == 2));
    }

    #[test]
    fn subflow_children_run_and_join() {
        // The retained joined subflow: a 16-chunk fan whose successor
        // waits for every chunk.
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let after = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let fan = g.insert(0, 16, name("fan"));
        let post = g.insert(1, 1, name("post"));
        g.add_edge(fan, post);
        ex.run_dirty(&mut g, &|p, _| {
            if p == 0 {
                count.fetch_add(1, O::SeqCst);
            } else {
                assert_eq!(count.load(O::SeqCst), 16);
                after.fetch_add(1, O::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(count.load(O::SeqCst), 16);
        assert_eq!(after.load(O::SeqCst), 1);
    }

    #[test]
    fn empty_subflow_completes() {
        // A zero-chunk node invokes nothing but still releases its
        // successors.
        let ex = Executor::new(2);
        let done = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let s = g.insert(0, 0, name("empty"));
        let p = g.insert(1, 1, name("post"));
        g.add_edge(s, p);
        ex.run_dirty(&mut g, &|payload, _| {
            assert_eq!(payload, 1);
            done.fetch_add(1, O::SeqCst);
        })
        .unwrap();
        assert_eq!(done.load(O::SeqCst), 1);
    }

    #[test]
    fn borrows_environment() {
        // `invoke` borrows a local vector; each node writes its own cell.
        let ex = Executor::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let mut g = RetainedGraph::new();
        for i in 0..64 {
            g.insert(i, 1, name("w"));
        }
        ex.run_dirty(&mut g, &|i, _| {
            data[i as usize].store(i as usize + 1, O::SeqCst)
        })
        .unwrap();
        for (i, cell) in data.iter().enumerate() {
            assert_eq!(cell.load(O::SeqCst), i + 1);
        }
    }

    #[test]
    fn rerunnable_graph() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let a = g.insert(1, 1, name("a"));
        let b = g.insert(10, 1, name("b"));
        g.add_edge(a, b);
        for _ in 0..5 {
            mark_all(&mut g, &[a, b]);
            ex.run_dirty(&mut g, &|p, _| {
                count.fetch_add(p as usize, O::SeqCst);
            })
            .unwrap();
        }
        assert_eq!(count.load(O::SeqCst), 55);
    }

    #[test]
    fn empty_graph_is_noop() {
        let ex = Executor::new(2);
        let mut g = RetainedGraph::new();
        // Must not hang.
        let stats = ex.run_dirty(&mut g, &|_, _| panic!("no nodes")).unwrap();
        assert_eq!(stats, DirtyRunStats::default());
    }

    /// Maps fan chunk `chunk` to its slice of `0..total`, `size` items a
    /// chunk — the parallel-for pattern the baselines use.
    fn chunk_range(chunk: u32, size: usize, total: usize) -> std::ops::Range<usize> {
        let start = (chunk as usize * size).min(total);
        start..(start + size).min(total)
    }

    #[test]
    fn single_thread_executor_works() {
        let ex = Executor::new(1);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let count = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let fan = g.insert(0, 100u32.div_ceil(7), name("fan"));
        let c = g.insert(1, 1, name("count"));
        g.add_edge(fan, c);
        ex.run_dirty(&mut g, &|p, chunk| {
            if p == 0 {
                for i in chunk_range(chunk, 7, 100) {
                    hits[i].fetch_add(1, O::SeqCst);
                }
            } else {
                count.fetch_add(1, O::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(count.load(O::SeqCst), 1);
        assert!(hits.iter().all(|h| h.load(O::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_covers_range() {
        // More chunks than the range needs: the trailing ones are empty.
        let ex = Executor::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let mut g = RetainedGraph::new();
        g.insert(0, 20, name("fan"));
        ex.run_dirty(&mut g, &|_, chunk| {
            for i in chunk_range(chunk, 64, 1000) {
                hits[i].fetch_add(1, O::SeqCst);
            }
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(O::SeqCst) == 1));
    }

    #[test]
    fn panic_propagates_and_executor_survives() {
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        g.insert(0, 1, name("boom"));
        let err = ex
            .run_dirty(&mut g, &|_, _| panic!("task exploded"))
            .unwrap_err();
        assert_eq!(&*err.task, "boom");
        assert!(err.message.contains("task exploded"), "{err}");
        assert!(err.to_string().contains("boom"));
        // Executor still usable afterwards, on a fresh graph.
        let ok = AtomicUsize::new(0);
        let mut g2 = RetainedGraph::new();
        g2.insert(0, 1, name("fine"));
        ex.run_dirty(&mut g2, &|_, _| {
            ok.fetch_add(1, O::SeqCst);
        })
        .unwrap();
        assert_eq!(ok.load(O::SeqCst), 1);
    }

    #[test]
    fn try_run_reports_structured_panic() {
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        let a = g.insert(0, 1, name("ok"));
        let b = g.insert(1, 1, name("kaboom"));
        g.add_edge(a, b);
        let err = ex
            .run_dirty(&mut g, &|p, _| {
                if p == 1 {
                    panic!("division by zero qubits");
                }
            })
            .unwrap_err();
        assert_eq!(&*err.task, "kaboom");
        assert!(err.message.contains("division by zero qubits"), "{err}");
        assert!(err.to_string().contains("kaboom"));
        // A clean graph afterwards reports Ok.
        let mut g2 = RetainedGraph::new();
        g2.insert(0, 1, name("fine"));
        assert!(ex.run_dirty(&mut g2, &|_, _| {}).is_ok());
    }

    #[test]
    fn panic_cancels_downstream() {
        let ex = Executor::new(2);
        let ran_after = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let a = g.insert(0, 1, name("boom"));
        let b = g.insert(1, 1, name("after"));
        let c = g.insert(2, 8, name("after-fan"));
        g.add_edge(a, b);
        g.add_edge(b, c);
        let invoke = |p: u64, _: u32| {
            if p == 0 {
                panic!("x");
            }
            ran_after.fetch_add(1, O::SeqCst);
        };
        let err = ex.run_dirty(&mut g, &invoke).unwrap_err();
        assert_eq!(&*err.task, "boom");
        assert_eq!(ran_after.load(O::SeqCst), 0);
        // The run drained: the graph is clean and runs again.
        assert_eq!(g.dirty_len(), 0);
        mark_all(&mut g, &[b, c]);
        ex.run_dirty(&mut g, &invoke).unwrap();
        assert_eq!(ran_after.load(O::SeqCst), 9);
    }

    #[test]
    fn child_task_panic_is_attributed() {
        // A chunk's panic is reported under its fan node's name.
        let ex = Executor::new(4);
        let mut g = RetainedGraph::new();
        g.insert(0, 1, name("good"));
        g.insert(1, 4, name("bad-fan"));
        let err = ex
            .run_dirty(&mut g, &|p, chunk| {
                if p == 1 && chunk == 2 {
                    panic!("child died");
                }
            })
            .unwrap_err();
        assert_eq!(&*err.task, "bad-fan");
        assert!(err.message.contains("child died"));
    }

    #[test]
    fn many_tasks_stress() {
        let ex = Executor::new(8);
        let count = AtomicUsize::new(0);
        let mut g = RetainedGraph::new();
        let layers = 50;
        let width = 40;
        let mut prev_layer: Vec<NodeId> = Vec::new();
        for _ in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let t = g.insert(0, 1, name("t"));
                // Sparse cross-layer edges.
                if let Some(&p) = prev_layer.get(w % prev_layer.len().max(1)) {
                    g.add_edge(p, t);
                }
                layer.push(t);
            }
            prev_layer = layer;
        }
        ex.run_dirty(&mut g, &|_, _| {
            count.fetch_add(1, O::SeqCst);
        })
        .unwrap();
        assert_eq!(count.load(O::SeqCst), layers * width);
    }

    #[test]
    fn concurrent_runs_from_two_threads() {
        let ex = Executor::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut g = RetainedGraph::new();
                    let mut prev = None;
                    for i in 0..50 {
                        let id = g.insert(i, 1 + (i % 3) as u32, name("t"));
                        if let Some(p) = prev.filter(|_| i % 5 != 0) {
                            g.add_edge(p, id);
                        }
                        prev = Some(id);
                    }
                    let stats = ex
                        .run_dirty(&mut g, &|_, _| {
                            total.fetch_add(1, O::SeqCst);
                        })
                        .unwrap();
                    assert_eq!(stats.nodes_run, 50);
                });
            }
        });
        // Each graph invokes 1 + (i % 3) chunks for i in 0..50: 99.
        assert_eq!(total.load(O::SeqCst), 2 * 99);
    }
}
