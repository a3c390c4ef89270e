//! Dataset substrate for the REDS reproduction.
//!
//! The paper (§3.1) works with a dataset `D` of `N` rows: the first `M`
//! columns hold the simulation inputs (a *point* `x_i`), the last column
//! the binary simulation output `y_i`. This crate provides that tabular
//! abstraction plus the resampling utilities every other layer relies on:
//! train/validation/test splits, bootstrap samples (PRIM with bumping,
//! Algorithm 2), k-fold cross-validation indices (hyperparameter
//! optimisation, §8.4), and column sub-selection (random feature subsets).
//!
//! Labels are stored as `f64` so the same container carries hard `{0,1}`
//! labels and the soft probability pseudo-labels of the REDS "p" variants
//! (§6.1).

#![warn(missing_docs)]

mod access;
mod bootstrap;
mod dataset;
mod error;
mod folds;
mod sorted;
mod split;
mod store;

pub use access::{ColumnAccess, PointVisitor, ViewAccess};
pub use bootstrap::bootstrap_sample;
pub use dataset::Dataset;
pub use error::DataError;
pub use folds::KFold;
pub use sorted::{argsort_stable, ord_key, ord_key_inverse, SortedView};
pub use split::{train_test_split, Split};
pub use store::{ActiveSet, PageSource};
