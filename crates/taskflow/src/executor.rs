//! The work-stealing executor.
//!
//! A persistent pool of workers executes two kinds of graph. A one-shot
//! [`Taskflow`] run builds a private `RunCtx` of run nodes (join
//! counters, successor pointers); subflow tasks append child run nodes
//! dynamically, and a parent completes — firing its successors and its
//! own pending slot — only after its last child completes. A
//! [`RetainedGraph`] run ([`Executor::run_dirty`]) builds no run nodes at
//! all: its join counts and chunk countdowns live in the retained nodes
//! themselves, and successors are read from the retained edge lists.
//! Either way, workers pop jobs from their local LIFO deque, then steal
//! from the global injector and from each other (crossbeam-deque), and
//! park on a condition variable when idle.
//!
//! # Safety model
//!
//! Jobs are raw pointers into the run's storage: a `Taskflow` run node,
//! or the stack-held `RetainedRun` of a blocking `run_dirty` call. Three
//! invariants make this sound:
//!
//! 1. **Stability** — run nodes are individually boxed; child nodes are
//!    appended under a mutex into the context's keep-alive vector *before*
//!    any job pointing at them is published. A retained graph is borrowed
//!    for the whole `run_dirty` call, so its nodes cannot move or change
//!    shape while jobs point into it.
//! 2. **Liveness** — `run()` and `run_dirty()` keep their context alive
//!    until the done-gate flag is set, and the flag is set only after the
//!    final `pending` decrement; every job is consumed before that
//!    decrement, so no worker dereferences a node after the context is
//!    freed. The done gate itself is a separate `Arc` cloned *before* the
//!    final decrement's signal.
//! 3. **Borrow validity** — task closures may borrow the caller's
//!    environment (`'env`); `run()` blocks the caller until every task
//!    completed, so those borrows outlive all uses (the same argument
//!    `std::thread::scope` and rayon's `scope` make).

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex, RwLock};
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::graph::{Subflow, Taskflow, Work};
use crate::observer::{ExecEvent, Observer};
use crate::retained::{DirtyRunStats, NodeId, RetainedGraph, RetainedNode};
use qtask_util::Arena;

/// Structured description of a task panic, returned by
/// [`Executor::try_run`]. The graph is always drained before this is
/// produced — no task is left queued and the executor stays usable.
#[derive(Debug, Clone)]
pub struct TaskPanic {
    /// Name of the first task that panicked.
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

/// A unit of scheduled work.
#[derive(Clone, Copy)]
enum Job {
    /// A live `Taskflow` run node.
    Node(*const RunNode),
    /// One chunk of a dirty retained-graph node (chunk 0 for barriers
    /// and single calls).
    Retained {
        run: *const RetainedRun<'static>,
        node: NodeId,
        chunk: u32,
    },
}

// SAFETY: the pointees are kept alive for the whole run (module safety
// model) and all mutation goes through atomics or the once-only Child
// cell.
unsafe impl Send for Job {}

enum RunWork {
    Empty,
    /// Borrowed from the Taskflow graph; lifetime erased (see module docs).
    Static(*const (dyn Fn() + Send + Sync)),
    /// Borrowed from the Taskflow graph; lifetime erased.
    Dynamic(*const (dyn Fn(&mut Subflow<'static>) + Send + Sync)),
    /// A subflow child, created at runtime and executed exactly once.
    Child(UnsafeCell<Option<Box<dyn FnOnce() + Send>>>),
}

struct RunNode {
    name: Arc<str>,
    work: RunWork,
    succs: Vec<*const RunNode>,
    join: AtomicUsize,
    /// Remaining children before this (subflow) node completes.
    children: AtomicUsize,
    parent: *const RunNode,
    ctx: *const RunCtx,
}

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
    /// Jobs not yet completed (grows when subflows spawn children).
    pending: AtomicUsize,
    /// Set when a task panicked; remaining closures are skipped.
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
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
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

struct RunCtx {
    // The boxes are load-bearing: `succs`/`parent` hold raw pointers into
    // the nodes, so their addresses must survive vector growth.
    /// Keep-alive storage for the static run nodes.
    #[allow(clippy::vec_box)]
    _static_nodes: Vec<Box<RunNode>>,
    /// Keep-alive storage for dynamically spawned children.
    #[allow(clippy::vec_box)]
    dynamic_nodes: Mutex<Vec<Box<RunNode>>>,
    state: RunState,
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
        (0..chunks.max(1)).map(move |chunk| Job::Retained {
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
    observer: RwLock<Option<Arc<dyn Observer>>>,
    has_observer: AtomicBool,
    /// Lifetime count of tasks executed (cancelled nodes included —
    /// they're still drained through a worker).
    tasks_run: AtomicU64,
}

/// A persistent work-stealing thread pool executing [`Taskflow`] graphs.
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
            observer: RwLock::new(None),
            has_observer: AtomicBool::new(false),
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

    /// Installs (or clears) an execution observer.
    pub fn set_observer(&self, obs: Option<Arc<dyn Observer>>) {
        self.inner
            .has_observer
            .store(obs.is_some(), Ordering::Release);
        *self.inner.observer.write() = obs;
    }

    /// Executes `tf` to completion, blocking the caller.
    ///
    /// Re-raises the first panic that occurred in any task (remaining
    /// tasks are skipped but the graph is drained deterministically).
    ///
    /// # Panics
    /// Panics if the graph contains a dependency cycle, or to re-raise a
    /// task panic. Use [`Executor::try_run`] for a non-panicking report.
    pub fn run<'env>(&self, tf: &Taskflow<'env>) {
        if let Some((_, payload)) = self.run_inner(tf) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Executes `tf` to completion, blocking the caller, and reports the
    /// first task panic as a structured [`TaskPanic`] instead of
    /// unwinding. The graph is drained either way: downstream tasks of a
    /// panicking task are cancelled (their closures skipped), every node
    /// is consumed, and the executor remains usable.
    ///
    /// # Panics
    /// Panics if the graph contains a static dependency cycle (a
    /// caller-side construction bug, detected before execution starts).
    pub fn try_run<'env>(&self, tf: &Taskflow<'env>) -> Result<(), TaskPanic> {
        match self.run_inner(tf) {
            None => Ok(()),
            Some((task, payload)) => Err(TaskPanic {
                task,
                message: panic_message(payload.as_ref()),
            }),
        }
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
    /// run is two passes over the dirty nodes and their out-edges; it
    /// builds no per-node objects, so a run allocates nothing however
    /// many nodes it executes.
    ///
    /// Panics in `invoke` are contained exactly like [`Executor::try_run`]
    /// task panics: the run is drained, downstream dirty nodes are
    /// cancelled, and the first panic is reported as a [`TaskPanic`].
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
        // lock when the roots are published.
        let nodes = &graph.nodes;
        for &d in &graph.dirty {
            for s in &nodes[d.key()].succs {
                let succ = &nodes[s.key()];
                if succ.dirty {
                    succ.join.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_acyclic(nodes, &graph.dirty);

        // Publish the roots and wait for the drain.
        graph.run.arm(jobs);
        let run = RetainedRun {
            nodes,
            invoke,
            state: &graph.run,
        };
        let mut any_root = false;
        for &d in &graph.dirty {
            let node = &nodes[d.key()];
            if node.join.load(Ordering::Relaxed) == 0 {
                any_root = true;
                for job in run.jobs_of(d, node.chunks) {
                    self.inner.injector.push(job);
                }
            }
        }
        assert!(
            any_root,
            "retained dirty subset has no root: dependency cycle"
        );
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

    /// Shared body of [`run`](Executor::run)/[`try_run`](Executor::try_run):
    /// executes the graph and returns the first task panic, if any.
    fn run_inner<'env>(
        &self,
        tf: &Taskflow<'env>,
    ) -> Option<(Arc<str>, Box<dyn Any + Send + 'static>)> {
        if tf.is_empty() {
            return None;
        }
        let n = tf.nodes.len();
        // Build run nodes.
        let mut nodes: Vec<Box<RunNode>> = Vec::with_capacity(n);
        for node in &tf.nodes {
            let work = match &node.work {
                Work::Empty => RunWork::Empty,
                Work::Static(f) => {
                    let ptr: *const (dyn Fn() + Send + Sync) = &**f;
                    // SAFETY: erases 'env; run() blocks until all tasks
                    // finished, so the borrow outlives every dereference.
                    RunWork::Static(unsafe {
                        std::mem::transmute::<
                            *const (dyn Fn() + Send + Sync),
                            *const (dyn Fn() + Send + Sync),
                        >(ptr)
                    })
                }
                Work::Subflow(f) => {
                    let ptr: *const (dyn Fn(&mut Subflow<'env>) + Send + Sync) = &**f;
                    // SAFETY: same lifetime-erasure argument; Subflow<'x>
                    // is layout-invariant in its lifetime parameter.
                    RunWork::Dynamic(unsafe {
                        std::mem::transmute::<
                            *const (dyn Fn(&mut Subflow<'env>) + Send + Sync),
                            *const (dyn Fn(&mut Subflow<'static>) + Send + Sync),
                        >(ptr)
                    })
                }
            };
            nodes.push(Box::new(RunNode {
                name: Arc::clone(&node.name),
                work,
                succs: Vec::with_capacity(node.succs.len()),
                join: AtomicUsize::new(node.num_preds),
                children: AtomicUsize::new(0),
                parent: std::ptr::null(),
                ctx: std::ptr::null(),
            }));
        }
        let ptrs: Vec<*const RunNode> = nodes.iter().map(|b| &**b as *const RunNode).collect();
        for (i, node) in tf.nodes.iter().enumerate() {
            for &s in &node.succs {
                nodes[i].succs.push(ptrs[s]);
            }
        }
        let ctx = Box::new(RunCtx {
            _static_nodes: nodes,
            dynamic_nodes: Mutex::new(Vec::new()),
            state: RunState::default(),
        });
        ctx.state.arm(n);
        let ctx_ptr: *const RunCtx = &*ctx;
        for b in &ctx._static_nodes {
            // SAFETY: exclusive setup phase; nothing is shared yet.
            unsafe {
                let node = &**b as *const RunNode as *mut RunNode;
                (*node).ctx = ctx_ptr;
            }
        }
        // Enqueue roots.
        let mut any_root = false;
        for (i, node) in tf.nodes.iter().enumerate() {
            if node.num_preds == 0 {
                any_root = true;
                self.inner.injector.push(Job::Node(ptrs[i]));
            }
        }
        assert!(any_root, "task graph has no root: dependency cycle");
        debug_assert!(tf.is_acyclic(), "task graph has a dependency cycle");
        wake_workers(&self.inner);
        ctx.state.wait()
    }
}

/// Kahn's algorithm over the dirty subset of a retained graph: a cycle
/// there would strand the pending counter and hang the run. Its two
/// buffers are sized once, so debug builds keep `run_dirty`'s
/// allocation count independent of the graph size too.
#[cfg(debug_assertions)]
fn assert_acyclic(nodes: &Arena<RetainedNode>, dirty: &[NodeId]) {
    let mut indeg: Vec<u32> = dirty
        .iter()
        .map(|d| nodes[d.key()].join.load(Ordering::Relaxed))
        .collect();
    let mut stack: Vec<NodeId> = Vec::with_capacity(dirty.len());
    stack.extend(
        dirty
            .iter()
            .copied()
            .filter(|d| indeg[nodes[d.key()].slot as usize] == 0),
    );
    let mut seen = 0usize;
    while let Some(d) = stack.pop() {
        seen += 1;
        for &s in &nodes[d.key()].succs {
            let succ = &nodes[s.key()];
            if succ.dirty {
                let deg = &mut indeg[succ.slot as usize];
                *deg -= 1;
                if *deg == 0 {
                    stack.push(s);
                }
            }
        }
    }
    assert_eq!(
        seen,
        dirty.len(),
        "retained dirty subset has a dependency cycle"
    );
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
            // SAFETY: job pointers stay valid until their run completes
            // (module safety model).
            unsafe { execute(job, &inner, &local, idx) };
            continue;
        }
        // Slow path: re-scan once against the publication epoch, then park.
        let observed = inner.sleep.epoch.load(Ordering::SeqCst);
        if let Some(job) = find_work(&inner, &local, idx) {
            unsafe { execute(job, &inner, &local, idx) };
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

/// Publishes a job from worker context (local LIFO for cache locality).
fn enqueue_local(inner: &Inner, local: &WorkerDeque<Job>, job: Job) {
    local.push(job);
    wake_workers(inner);
}

/// Runs one job.
///
/// # Safety
/// The job's pointers must be live: the job was published by a run that
/// has not yet drained (module safety model).
unsafe fn execute(job: Job, inner: &Inner, local: &WorkerDeque<Job>, widx: usize) {
    inner.tasks_run.fetch_add(1, Ordering::Relaxed);
    qtask_obs::counter!("taskflow.tasks_run").inc();
    let observer = if inner.has_observer.load(Ordering::Acquire) {
        inner.observer.read().clone()
    } else {
        None
    };
    let ptr = match job {
        Job::Node(ptr) => ptr,
        Job::Retained { run, node, chunk } => {
            // SAFETY: `run_dirty` holds its `RetainedRun` (and the graph
            // it borrows) until every job of the run completed.
            let run = unsafe { &*run };
            execute_retained(run, node, chunk, &observer, inner, local, widx);
            return;
        }
    };
    // SAFETY: the run's context keeps its nodes alive until every job
    // completed (module safety model).
    let node = unsafe { &*ptr };
    let ctx = unsafe { &*node.ctx };
    let task_span = qtask_obs::span!(Arc::clone(&node.name));
    task_begin(&observer, &node.name, widx);
    let cancelled = ctx.state.cancelled.load(Ordering::Relaxed);
    let mut deferred = false;
    match &node.work {
        RunWork::Empty => {}
        RunWork::Static(f) => {
            if !cancelled {
                let f = unsafe { &**f };
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    task_probe();
                    f()
                })) {
                    ctx.state.record_panic(&node.name, p);
                }
            }
        }
        RunWork::Dynamic(f) => {
            if !cancelled {
                let f = unsafe { &**f };
                let mut sf = Subflow::new();
                match catch_unwind(AssertUnwindSafe(|| {
                    task_probe();
                    f(&mut sf)
                })) {
                    Ok(()) => {
                        if !sf.is_empty() {
                            deferred = unsafe { spawn_children(ctx, node, sf, inner, local) };
                        }
                    }
                    Err(p) => ctx.state.record_panic(&node.name, p),
                }
            }
        }
        RunWork::Child(cell) => {
            // SAFETY: each child job is popped by exactly one worker, so
            // this cell is accessed exclusively.
            let work = unsafe { (*cell.get()).take() };
            if let Some(work) = work {
                if !cancelled {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                        task_probe();
                        work()
                    })) {
                        ctx.state.record_panic(&node.name, p);
                    }
                }
            }
        }
    }
    drop(task_span);
    task_end(&observer, &node.name, widx);
    if !deferred {
        unsafe { finish(node, ctx, inner, local) };
    }
}

/// Runs one chunk of a retained node. The node completes with its last
/// chunk, which releases every dirty successor whose join count it
/// drops to zero.
fn execute_retained(
    run: &RetainedRun<'_>,
    id: NodeId,
    chunk: u32,
    observer: &Option<Arc<dyn Observer>>,
    inner: &Inner,
    local: &WorkerDeque<Job>,
    widx: usize,
) {
    let node = &run.nodes[id.key()];
    let task_span = qtask_obs::span!(Arc::clone(&node.name));
    task_begin(observer, &node.name, widx);
    if node.chunks > 0 && !run.state.cancelled.load(Ordering::Relaxed) {
        let payload = node.payload;
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
            task_probe();
            (run.invoke)(payload, chunk)
        })) {
            run.state.record_panic(&node.name, p);
        }
    }
    drop(task_span);
    task_end(observer, &node.name, widx);
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

fn task_begin(observer: &Option<Arc<dyn Observer>>, name: &Arc<str>, worker: usize) {
    if let Some(o) = observer {
        notify(
            o,
            ExecEvent::Begin {
                name: Arc::clone(name),
                worker,
            },
        );
    }
}

fn task_end(observer: &Option<Arc<dyn Observer>>, name: &Arc<str>, worker: usize) {
    if let Some(o) = observer {
        notify(
            o,
            ExecEvent::End {
                name: Arc::clone(name),
                worker,
            },
        );
    }
}

/// Invokes an observer callback with panic containment: a throwing
/// observer must never kill a worker thread (that would strand the run's
/// pending counter and hang `run()` forever), so its panics are swallowed.
fn notify(o: &Arc<dyn Observer>, ev: ExecEvent) {
    let _ = catch_unwind(AssertUnwindSafe(|| o.on_event(&ev)));
}

/// Materializes subflow children and schedules their roots, returning
/// true. The parent's completion is then deferred to the last child
/// (`finish` on the parent). Returns false without spawning anything if
/// the subflow is cyclic — recorded as a panic of the parent task, so the
/// caller finishes the parent normally. (A cyclic subflow used to
/// `assert!` right here on the worker thread, outside any `catch_unwind`:
/// the worker died, `pending` never drained, and `run()` hung forever.)
unsafe fn spawn_children(
    ctx: &RunCtx,
    parent: &RunNode,
    mut sf: Subflow<'static>,
    inner: &Inner,
    local: &WorkerDeque<Job>,
) -> bool {
    let n = sf.tasks.len();
    let succ_lists: Vec<Vec<usize>> = sf.tasks.iter().map(|t| t.succs.clone()).collect();
    let roots: Vec<usize> = sf
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.num_preds == 0)
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        ctx.state.record_panic(
            &parent.name,
            Box::new(format!(
                "subflow '{}' has no root: dependency cycle",
                parent.name
            )),
        );
        return false;
    }
    ctx.state.pending.fetch_add(n, Ordering::SeqCst);
    parent.children.store(n, Ordering::Release);
    let mut boxes: Vec<Box<RunNode>> = Vec::with_capacity(n);
    for (i, t) in sf.tasks.iter_mut().enumerate() {
        boxes.push(Box::new(RunNode {
            name: Arc::clone(&t.name),
            work: RunWork::Child(UnsafeCell::new(t.work.take())),
            succs: Vec::with_capacity(succ_lists[i].len()),
            join: AtomicUsize::new(t.num_preds),
            children: AtomicUsize::new(0),
            parent: parent as *const RunNode,
            ctx: ctx as *const RunCtx,
        }));
    }
    let ptrs: Vec<*const RunNode> = boxes.iter().map(|b| &**b as *const RunNode).collect();
    for (i, succs) in succ_lists.iter().enumerate() {
        for &s in succs {
            boxes[i].succs.push(ptrs[s]);
        }
    }
    // Keep children alive for the rest of the run *before* publishing jobs.
    ctx.dynamic_nodes.lock().extend(boxes);
    for r in roots {
        enqueue_local(inner, local, Job::Node(ptrs[r]));
    }
    true
}

/// Completes a node: fires successors, joins its parent subflow, and
/// performs the final pending decrement (the last context access).
unsafe fn finish(node: &RunNode, ctx: &RunCtx, inner: &Inner, local: &WorkerDeque<Job>) {
    for &s in &node.succs {
        let succ = unsafe { &*s };
        if succ.join.fetch_sub(1, Ordering::AcqRel) == 1 {
            enqueue_local(inner, local, Job::Node(s));
        }
    }
    if !node.parent.is_null() {
        let parent = unsafe { &*node.parent };
        if parent.children.fetch_sub(1, Ordering::AcqRel) == 1 {
            unsafe { finish(parent, ctx, inner, local) };
        }
    }
    ctx.state.job_done();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Taskflow;
    use std::sync::atomic::{AtomicUsize, Ordering as O};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn runs_all_tasks_once() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        for i in 0..100 {
            tf.emplace(format!("t{i}"), || {
                count.fetch_add(1, O::SeqCst);
            });
        }
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), 100);
    }

    #[test]
    fn tasks_run_counts_across_graphs() {
        let ex = Executor::new(2);
        assert_eq!(ex.tasks_run(), 0);
        let mut tf = Taskflow::new("t");
        for i in 0..10 {
            tf.emplace(format!("t{i}"), || {});
        }
        ex.run(&tf);
        assert_eq!(ex.tasks_run(), 10);
        ex.run(&tf);
        assert_eq!(ex.tasks_run(), 20);
    }

    #[test]
    fn respects_dependencies() {
        let ex = Executor::new(8);
        let log = StdMutex::new(Vec::new());
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || log.lock().unwrap().push('a'));
        let b = tf.emplace("b", || log.lock().unwrap().push('b'));
        let c = tf.emplace("c", || log.lock().unwrap().push('c'));
        let d = tf.emplace("d", || log.lock().unwrap().push('d'));
        tf.precede(a, b);
        tf.precede(a, c);
        tf.precede(b, d);
        tf.precede(c, d);
        ex.run(&tf);
        drop(tf);
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
        let mut tf = Taskflow::new("chain");
        let mut prev: Option<crate::graph::TaskRef> = None;
        for (i, cell) in cells.iter().enumerate() {
            let cells_ref = &cells;
            let left = tf.emplace(format!("l{i}"), move || {
                if i > 0 {
                    assert_eq!(cells_ref[i - 1].load(O::SeqCst), 2);
                }
                cell.fetch_add(1, O::SeqCst);
            });
            let right = tf.emplace(format!("r{i}"), move || {
                if i > 0 {
                    assert_eq!(cells_ref[i - 1].load(O::SeqCst), 2);
                }
                cell.fetch_add(1, O::SeqCst);
            });
            let join = tf.emplace_empty(format!("j{i}"));
            if let Some(p) = prev {
                tf.precede(p, left);
                tf.precede(p, right);
            }
            tf.precede(left, join);
            tf.precede(right, join);
            prev = Some(join);
        }
        ex.run(&tf);
        assert!(cells.iter().all(|c| c.load(O::SeqCst) == 2));
    }

    #[test]
    fn subflow_children_run_and_join() {
        let ex = Executor::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let after = Arc::new(AtomicUsize::new(0));
        let mut tf = Taskflow::new("t");
        let c1 = Arc::clone(&count);
        let sub = tf.emplace_subflow("fan", move |sf| {
            for _ in 0..16 {
                let c = Arc::clone(&c1);
                sf.task("child", move || {
                    c.fetch_add(1, O::SeqCst);
                });
            }
        });
        let c2 = Arc::clone(&count);
        let a2 = Arc::clone(&after);
        let post = tf.emplace("post", move || {
            // Joined subflow: all 16 children must be done.
            assert_eq!(c2.load(O::SeqCst), 16);
            a2.fetch_add(1, O::SeqCst);
        });
        tf.precede(sub, post);
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), 16);
        assert_eq!(after.load(O::SeqCst), 1);
    }

    #[test]
    fn subflow_internal_edges() {
        let ex = Executor::new(4);
        let log = Arc::new(StdMutex::new(Vec::new()));
        let mut tf = Taskflow::new("t");
        let l = Arc::clone(&log);
        tf.emplace_subflow("sub", move |sf| {
            let l1 = Arc::clone(&l);
            let l2 = Arc::clone(&l);
            let l3 = Arc::clone(&l);
            let a = sf.task("a", move || l1.lock().unwrap().push(1));
            let b = sf.task("b", move || l2.lock().unwrap().push(2));
            let c = sf.task("c", move || l3.lock().unwrap().push(3));
            sf.precede(a, b);
            sf.precede(b, c);
        });
        ex.run(&tf);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn nested_subflows() {
        let ex = Executor::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let mut tf = Taskflow::new("t");
        let c0 = Arc::clone(&count);
        tf.emplace_subflow("outer", move |sf| {
            for _ in 0..4 {
                let c = Arc::clone(&c0);
                sf.task("leaf", move || {
                    c.fetch_add(1, O::SeqCst);
                });
            }
        });
        let c1 = Arc::clone(&count);
        let check = tf.emplace("check", move || {
            assert_eq!(c1.load(O::SeqCst), 4);
        });
        // The subflow node is index 0.
        tf.precede(crate::graph::TaskRef(0), check);
        ex.run(&tf);
    }

    #[test]
    fn empty_subflow_completes() {
        let ex = Executor::new(2);
        let done = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        let s = tf.emplace_subflow("empty", |_| {});
        let p = tf.emplace("post", || {
            done.fetch_add(1, O::SeqCst);
        });
        tf.precede(s, p);
        ex.run(&tf);
        assert_eq!(done.load(O::SeqCst), 1);
    }

    #[test]
    fn borrows_environment() {
        // Closures borrow a local vector mutably disjointly via atomics.
        let ex = Executor::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let mut tf = Taskflow::new("t");
        for (i, cell) in data.iter().enumerate() {
            tf.emplace(format!("w{i}"), move || {
                cell.store(i + 1, O::SeqCst);
            });
        }
        ex.run(&tf);
        for (i, cell) in data.iter().enumerate() {
            assert_eq!(cell.load(O::SeqCst), i + 1);
        }
    }

    #[test]
    fn rerunnable_graph() {
        let ex = Executor::new(4);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("a", || {
            count.fetch_add(1, O::SeqCst);
        });
        let b = tf.emplace("b", || {
            count.fetch_add(10, O::SeqCst);
        });
        tf.precede(a, b);
        for _ in 0..5 {
            ex.run(&tf);
        }
        assert_eq!(count.load(O::SeqCst), 55);
    }

    #[test]
    fn empty_graph_is_noop() {
        let ex = Executor::new(2);
        let tf = Taskflow::new("empty");
        ex.run(&tf); // must not hang
    }

    #[test]
    fn single_thread_executor_works() {
        let ex = Executor::new(1);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        let s = tf.emplace_subflow("fan", |sf| {
            sf.parallel_for(0..100, 7, |_| {});
        });
        let c = tf.emplace("count", || {
            count.fetch_add(1, O::SeqCst);
        });
        tf.precede(s, c);
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), 1);
    }

    #[test]
    fn panic_propagates_and_executor_survives() {
        let ex = Executor::new(4);
        let mut tf = Taskflow::new("t");
        tf.emplace("boom", || panic!("task exploded"));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run(&tf)));
        assert!(result.is_err());
        // Executor still usable afterwards.
        let ok = AtomicUsize::new(0);
        let mut tf2 = Taskflow::new("t2");
        tf2.emplace("fine", || {
            ok.fetch_add(1, O::SeqCst);
        });
        ex.run(&tf2);
        assert_eq!(ok.load(O::SeqCst), 1);
    }

    #[test]
    fn panic_cancels_downstream() {
        let ex = Executor::new(2);
        let ran_after = Arc::new(AtomicUsize::new(0));
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("boom", || panic!("x"));
        let r = Arc::clone(&ran_after);
        let b = tf.emplace("after", move || {
            r.fetch_add(1, O::SeqCst);
        });
        tf.precede(a, b);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| ex.run(&tf)));
        assert_eq!(ran_after.load(O::SeqCst), 0);
    }

    #[test]
    fn observer_sees_events() {
        let ex = Executor::new(2);
        let begins = Arc::new(AtomicUsize::new(0));
        let ends = Arc::new(AtomicUsize::new(0));
        let (b, e) = (Arc::clone(&begins), Arc::clone(&ends));
        ex.set_observer(Some(Arc::new(move |ev: &ExecEvent| match ev {
            ExecEvent::Begin { .. } => {
                b.fetch_add(1, O::SeqCst);
            }
            ExecEvent::End { .. } => {
                e.fetch_add(1, O::SeqCst);
            }
        })));
        let mut tf = Taskflow::new("t");
        for i in 0..10 {
            tf.emplace(format!("t{i}"), || {});
        }
        ex.run(&tf);
        ex.set_observer(None);
        assert_eq!(begins.load(O::SeqCst), 10);
        assert_eq!(ends.load(O::SeqCst), 10);
    }

    #[test]
    fn many_tasks_stress() {
        let ex = Executor::new(8);
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("stress");
        let layers = 50;
        let width = 40;
        let mut prev_layer: Vec<crate::graph::TaskRef> = Vec::new();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let t = tf.emplace(format!("t{l}_{w}"), || {
                    count.fetch_add(1, O::SeqCst);
                });
                // Sparse cross-layer edges.
                if let Some(&p) = prev_layer.get(w % prev_layer.len().max(1)) {
                    tf.precede(p, t);
                }
                layer.push(t);
            }
            prev_layer = layer;
        }
        ex.run(&tf);
        assert_eq!(count.load(O::SeqCst), layers * width);
    }

    #[test]
    fn concurrent_runs_from_two_threads() {
        let ex = Arc::new(Executor::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ex = Arc::clone(&ex);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    let mut tf = Taskflow::new("t");
                    for i in 0..50 {
                        let total = Arc::clone(&total);
                        tf.emplace(format!("t{i}"), move || {
                            total.fetch_add(1, O::SeqCst);
                        });
                    }
                    ex.run(&tf);
                });
            }
        });
        assert_eq!(total.load(O::SeqCst), 100);
    }

    #[test]
    fn try_run_reports_structured_panic() {
        let ex = Executor::new(4);
        let mut tf = Taskflow::new("t");
        let a = tf.emplace("ok", || {});
        let b = tf.emplace("kaboom", || panic!("division by zero qubits"));
        tf.precede(a, b);
        let err = ex.try_run(&tf).unwrap_err();
        assert_eq!(&*err.task, "kaboom");
        assert!(err.message.contains("division by zero qubits"), "{err}");
        assert!(err.to_string().contains("kaboom"));
        // A clean graph afterwards reports Ok.
        let mut tf2 = Taskflow::new("t2");
        tf2.emplace("fine", || {});
        assert!(ex.try_run(&tf2).is_ok());
    }

    #[test]
    fn cyclic_subflow_does_not_deadlock() {
        // A subflow whose children form a cycle has no root to schedule.
        // This used to assert on the worker thread outside catch_unwind,
        // killing the worker and hanging run() forever. It must now drain
        // and surface as a task panic.
        let ex = Executor::new(2);
        let downstream = Arc::new(AtomicUsize::new(0));
        let mut tf = Taskflow::new("t");
        let s = tf.emplace_subflow("cyclic", |sf| {
            let a = sf.task("a", || {});
            let b = sf.task("b", || {});
            sf.precede(a, b);
            sf.precede(b, a);
        });
        let d = Arc::clone(&downstream);
        let post = tf.emplace("post", move || {
            d.fetch_add(1, O::SeqCst);
        });
        tf.precede(s, post);
        let err = ex.try_run(&tf).unwrap_err();
        assert_eq!(&*err.task, "cyclic");
        assert!(err.message.contains("dependency cycle"), "{err}");
        // The failure cancelled the downstream task but drained the graph.
        assert_eq!(downstream.load(O::SeqCst), 0);
        // Workers all survived.
        let ok = AtomicUsize::new(0);
        let mut tf2 = Taskflow::new("t2");
        for i in 0..8 {
            tf2.emplace(format!("t{i}"), || {
                ok.fetch_add(1, O::SeqCst);
            });
        }
        ex.run(&tf2);
        assert_eq!(ok.load(O::SeqCst), 8);
    }

    #[test]
    fn panicking_observer_is_contained() {
        let ex = Executor::new(2);
        ex.set_observer(Some(Arc::new(|ev: &ExecEvent| {
            if let ExecEvent::Begin { .. } = ev {
                panic!("observer bug");
            }
        })));
        let count = AtomicUsize::new(0);
        let mut tf = Taskflow::new("t");
        for i in 0..10 {
            tf.emplace(format!("t{i}"), || {
                count.fetch_add(1, O::SeqCst);
            });
        }
        // Must neither hang nor propagate the observer's panic.
        assert!(ex.try_run(&tf).is_ok());
        ex.set_observer(None);
        assert_eq!(count.load(O::SeqCst), 10);
    }

    #[test]
    fn child_task_panic_is_attributed() {
        let ex = Executor::new(4);
        let mut tf = Taskflow::new("t");
        tf.emplace_subflow("fan", |sf| {
            sf.task("good", || {});
            sf.task("bad-child", || panic!("child died"));
        });
        let err = ex.try_run(&tf).unwrap_err();
        assert_eq!(&*err.task, "bad-child");
        assert!(err.message.contains("child died"));
    }

    #[test]
    fn parallel_for_covers_range() {
        let ex = Executor::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let hits_ref = &hits;
        let mut tf = Taskflow::new("pf");
        tf.emplace_subflow("fan", move |sf| {
            sf.parallel_for(0..1000, 64, move |i| {
                hits_ref[i].fetch_add(1, O::SeqCst);
            });
        });
        ex.run(&tf);
        assert!(hits.iter().all(|h| h.load(O::SeqCst) == 1));
    }
}
