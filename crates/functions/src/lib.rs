//! The paper's data sources (Table 1): 33 benchmark functions, the DSGC
//! grid-stability simulator, and stand-ins for the third-party `TGL` and
//! `lake` datasets.
//!
//! Each source is a [`BenchmarkFunction`]: a map from a point in
//! `[0,1]^M` to either a deterministic raw output binarized by a
//! threshold (`y = 1` iff the raw output is below `thr`, §8.3) or, for
//! the "noisy" Dalal et al. functions, directly to `P(y = 1 | x)`.
//! Every function declares its set of *active* inputs, which grounds the
//! `#irrel` interpretability metric (§4).
//!
//! Where the original publication's constants are not reproducible from
//! the paper text, the implementation uses documented substitutions with
//! the same structure (active dimensionality, boundary shape, noise
//! level) and a positive share calibrated against Table 1. Each
//! substituted function's doc comment says so; the Dalal et al. family,
//! whose shapes are all substitutions, says it once in its module doc.

#![warn(missing_docs)]

mod dalal;
mod dsgc;
mod function;
mod lake;
mod registry;
mod surjanovic;
mod tgl;

pub use dsgc::{simulate_dsgc, DsgcParams, DSGC_M};
pub use function::{BenchmarkFunction, FunctionKind};
pub use lake::{lake_dataset, simulate_lake, LakeParams, LAKE_M, LAKE_N};
pub use registry::{all_functions, by_name, FUNCTION_NAMES};
pub use tgl::{tgl_dataset, TGL_M, TGL_N};
