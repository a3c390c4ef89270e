//! REDS — Rule Extraction for Discovering Scenarios (Algorithm 4).
//!
//! The paper's contribution: instead of running a subgroup-discovery
//! algorithm directly on the few available simulation results `D`, REDS
//!
//! 1. trains an accurate metamodel `AM` on `D`;
//! 2. samples `L ≫ N` new points from the same input distribution;
//! 3. pseudo-labels them with the metamodel — hard labels
//!    `I(f^am(x) > bnd)`, or the raw probabilities `f^am(x)` in the
//!    "p" variants (§6.1);
//! 4. hands the pseudo-labelled `D_new` to a conventional
//!    subgroup-discovery algorithm.
//!
//! §6.2 shows why this wins: the subgroup algorithm's per-box mean
//! estimates switch from high-variance Bernoulli averages over few
//! simulated points (`Var = μ(1−μ)/n'`) to low-variance averages over
//! arbitrarily many metamodel labels, whose only error is the metamodel's
//! bias. Proposition 1 adds that probability labels have pointwise lower
//! variance than hard labels even at `L = N`.
//!
//! [`ActiveReds`] additionally implements the paper's §10 future-work
//! proposal: an uncertainty-sampling acquisition loop that spends part
//! of the simulation budget where the metamodel is least certain.

#![warn(missing_docs)]

mod active;
mod error;
mod pipeline;

pub use active::{ActiveConfig, ActiveReds, Simulator};
pub use error::RedsError;
pub use pipeline::{Backing, NewPointSampler, Pool, Reds, RedsConfig};
// The configuration of the paged backing, re-exported so callers need
// no direct `reds-stream` or `reds-ooc` dependency.
pub use reds_ooc::{OocConfig, OocError, OocPool, OocStats, DEFAULT_CACHE_BYTES};
pub use reds_stream::{StreamConfig, StreamError, DEFAULT_CHUNK_ROWS};
