//! The qTask engine: task-parallel incremental quantum circuit simulation.
//!
//! [`Ckt`] is the crate's public type, mirroring the paper's `qTask ckt(5)`
//! object. Its API falls into the paper's three categories (§III-B):
//!
//! * **Circuit modifiers** — [`Ckt::insert_net_after`], [`Ckt::remove_net`],
//!   [`Ckt::insert_gate`], [`Ckt::remove_gate`] (Table II). Every modifier
//!   incrementally restructures the internal partition graph and records
//!   *frontier* partitions. [`Ckt::edit`] wraps any sequence of them into
//!   an atomic transaction: staged against a shadow, committed only if
//!   every op validates, so a mid-batch failure leaves no partial state.
//! * **State update** — [`Ckt::update_state`] re-simulates exactly the
//!   partitions reachable from the frontier, in parallel, on the
//!   work-stealing executor, then publishes an immutable versioned
//!   [`StateSnapshot`]. Building a circuit from scratch and calling
//!   `update_state` once is the full-simulation special case.
//! * **Query** — [`StateSnapshot::amplitude`], [`StateSnapshot::state`],
//!   [`StateSnapshot::probabilities`], [`StateSnapshot::sample`] on the
//!   published snapshot (`Send + Sync`: readers on any thread keep
//!   querying version *v* while the writer builds *v+1*), plus the same
//!   set as live-view methods on [`Ckt`] itself ([`Ckt::amplitude`], …,
//!   counted by [`QueryReport`]) and [`Ckt::dump_graph`]. Live queries
//!   resolve the copy-on-write block chain lazily, so a removal followed
//!   by a query needs no simulation at all.
//!
//! Internally (paper §III-C–F):
//!
//! * Each gate contributes a **row** — its private logical state vector,
//!   stored copy-on-write per block ([`cow`]). A net's superposition gates
//!   share one matrix–vector row preceded by a `sync` row.
//! * Rows split into **partitions** of consecutive blocks ([`qtask_partition`]);
//!   partitions form the task graph, linked by nearest-overlap coverage
//!   scans ([`pgraph`]) whose edges live once, in a retained
//!   [`qtask_taskflow::RetainedGraph`].
//! * `update_state` performs a DFS from the frontier over successor edges
//!   and executes the dirty partitions as a dirty run of that graph, with
//!   intra-partition tasks as parallel chunks of one node ([`exec`]).

pub mod config;
pub(crate) mod coverage;
pub mod cow;
pub mod delta;
pub mod dump;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fused;
pub mod owners;
pub mod pgraph;
pub mod queries;
pub mod row;
pub mod snapshot;
pub mod spine;
#[doc(hidden)]
pub mod test_support;
pub mod txn;

pub use config::{NumericalPolicy, SimConfig};
pub use delta::{BlockDelta, SnapshotObserver};
pub use engine::{Ckt, RecoveryReport, UpdateReport};
pub use error::{EngineError, InvariantViolation};
pub use owners::OwnerIndex;
pub use queries::QueryReport;
pub use row::{PartId, RowId};
pub use snapshot::StateSnapshot;
pub use spine::Spine;
pub use txn::{EditReceipt, EditTxn};
