//! `reds-fleet`: fault-tolerant distributed execution of REDS
//! evaluation sweeps.
//!
//! The monolithic benchmark harness (`reds-bench`) enumerates a sweep
//! into deterministic [`WorkUnit`](reds_eval::WorkUnit)s whose results
//! are bit-identical regardless of where, when, or how many times they
//! execute. This crate exploits that determinism to spread a sweep
//! across unreliable machines without ever risking the report:
//!
//! - [`worker`] — a handler, served by the `reds_serve` reactor, that
//!   executes leased unit batches and serves results incrementally
//!   (cursor-polled, so every request is idempotent).
//! - [`coordinator`] — [`run_fleet`](coordinator::run_fleet) leases
//!   batches to workers, heartbeats via polls, reaps expired leases
//!   back into the queue, ingests results first-wins through the PR 2
//!   checkpoint, and records every grant/ingest/expiry in a durable
//!   [`journal`] so a crashed coordinator resumes exactly. It calls
//!   workers through [`reds_serve::Client`] and schedules every retry
//!   with [`reds_serve::Backoff`].
//! - [`protocol`] — the fleet's NDJSON commands and error codes, in
//!   the serving layer's response envelope.
//! - [`proxy`] — a deterministic fault-injection proxy (drop /
//!   duplicate / delay / truncate, per seeded plan) used by the tier-1
//!   fault suite to prove the merged report stays byte-identical to a
//!   monolithic run under adversarial networks.

#![warn(missing_docs)]

pub mod coordinator;
pub mod journal;
pub mod protocol;
pub mod proxy;
pub mod worker;

pub use coordinator::{run_fleet, shutdown_workers, FleetConfig, FleetError, FleetOutcome};
pub use journal::{
    load_journal, JournalError, JournalEvent, JournalState, LeaseJournal, JOURNAL_FILE,
};
pub use protocol::{FleetErrorCode, FleetRequest, HelloReply, PollReply, PROTO_VERSION};
pub use proxy::{FaultAction, FaultPlan, FaultProxy, FaultStats};
pub use worker::{serve_worker, UnitExecutor, WorkerConfig, WorkerHandle};
