//! `reds-serve`: the long-lived scenario-discovery service.
//!
//! The REDS pipeline trains an accurate metamodel `f^am` once and then
//! uses it to pseudo-label arbitrarily many points (Algorithm 4). This
//! crate turns that asymmetry into a serving layer: fitted models are
//! saved to [`artifact`](crate::artifact::ModelArtifact) files together
//! with their training data, loaded into a versioned
//! [`registry`](crate::registry::ModelRegistry), and queried many times
//! over a newline-delimited JSON [`protocol`] — `predict_batch`,
//! `discover`, `discover_streaming`, `swap`, `info`, `shutdown`.
//!
//! The serving fleet is built from four layers:
//!
//! * **Connection core.** One [`reactor`] thread multiplexes every
//!   socket through epoll (Linux) or poll, framing NDJSON with the
//!   shared [`wire`] push decoder; complete frames are served by a
//!   small executor pool and replies are written back in per-connection
//!   request order.
//! * **Versioned registry.** Each model name maps to a
//!   [`registry::ModelEntry`] whose current version flips atomically on
//!   `swap`: in-flight requests finish against the version they pinned,
//!   the old artifact is dropped only after the last pin releases, and
//!   no request ever observes two versions.
//! * **Backpressure.** Each model owns a bounded micro-batch
//!   [`batch::BatchQueue`]; a full queue answers `too_busy` immediately
//!   instead of stalling the fleet, and [`Client`] can retry those with
//!   jittered exponential [`backoff`].
//! * **Shard routing.** The [`router`] fans one logical `predict_batch`
//!   across worker processes over the same framing and reassembles the
//!   answer bit-identically.
//!
//! Three properties the tests pin down:
//!
//! * **Bit-identical serving.** Saving, loading, serving, swapping, and
//!   shard-routing a model changes no prediction bit: a socket
//!   `predict_batch` equals the in-process `Metamodel::predict_batch`,
//!   and a served `discover` equals the in-process run with the same
//!   seed.
//! * **Micro-batching.** Concurrent `predict_batch` requests are
//!   coalesced by the model's queue worker into one tree-major kernel
//!   call that fans out across the `reds-par` workers (see
//!   `RandomForest::predict_batch`).
//! * **Hardened boundary.** Frames are size-capped, requests are
//!   validated (width, NaN, limits) before touching the kernels, and
//!   every failure — including a handler panic — becomes a structured
//!   per-request error, never a dead server.

#![warn(missing_docs)]

pub mod artifact;
pub mod backoff;
pub mod batch;
pub mod client;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod router;
pub mod server;
pub mod wire;

pub use artifact::{
    ArtifactError, ArtifactFormat, ModelArtifact, ServedModel, POOL_DESIGN_UNIFORM,
};
pub use backoff::Backoff;
pub use batch::{BatchQueue, BatchStats};
pub use client::{Client, ClientError};
pub use protocol::{
    Algorithm, DiscoverParams, ErrorCode, Request, ServeError, ServeLimits, StreamDiscoverParams,
};
pub use reactor::{poller_backend, ConnGauges, FrameHandler};
pub use registry::{ModelEntry, ModelRegistry, ModelVersion, SwapOutcome, DEFAULT_MODEL};
pub use router::Router;
pub use server::{
    run_discover, serve, serve_handler, serve_service, validate_points, ServerHandle, Service,
};
pub use wire::{Frame, FrameBuffer, FrameEvent, RetryBudget, Wait, WaitPolicy};
