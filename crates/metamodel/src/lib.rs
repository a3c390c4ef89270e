//! Hand-rolled machine-learning metamodels for REDS.
//!
//! REDS (§6.1) trains an accurate, low-variance metamodel `AM` on the few
//! available simulation runs and uses it to pseudo-label a large sample.
//! The paper experiments with random forest, XGBoost, and an RBF-kernel
//! SVM; this crate implements all three from scratch (no ML crates):
//!
//! * [`RegressionTree`] — CART with variance-reduction splits, the shared
//!   building block;
//! * [`RandomForest`] — bagged trees with per-split feature subsampling
//!   ("f" in the paper's method names);
//! * [`Gbdt`] — gradient-boosted trees with the XGBoost second-order
//!   logistic objective ("x");
//! * [`Svm`] — soft-margin SVM with an RBF kernel trained by SMO ("s");
//! * [`tune`] — small grid-search cross-validation mirroring the paper's
//!   use of `caret`'s default tuning (§8.4.3);
//! * [`kernels`] — runtime-dispatched (scalar / AVX2) bit-identical
//!   prediction kernels behind every `predict_batch` hot path.
//!
//! All models implement [`Metamodel`]: `predict` returns an estimate of
//! `P(y = 1 | x)` (the SVM returns hard 0/1 decisions — the paper's "p"
//! probability variants are defined for forests and boosting only).

#![warn(missing_docs)]

mod forest;
mod gbdt;
pub mod kernels;
pub mod persist;
mod svm;
mod tree;
pub mod tune;

pub use forest::{NaiveRandomForest, RandomForest, RandomForestParams};
pub use gbdt::{Gbdt, GbdtParams};
pub use kernels::{FlatTree, Kernel};
pub use persist::{PersistError, SavedModel};
pub use svm::{Svm, SvmParams};
pub use tree::{NaiveTree, RegressionTree, TreeParams};

use rand::rngs::StdRng;
use reds_data::Dataset;

/// A fitted metamodel: maps a point to an estimate of `P(y = 1 | x)`.
pub trait Metamodel: Send + Sync {
    /// Predicted positive probability (or hard 0/1 decision) at `x`.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts every row of a row-major buffer with `m` columns.
    fn predict_batch(&self, points: &[f64], m: usize) -> Vec<f64> {
        points.chunks_exact(m).map(|x| self.predict(x)).collect()
    }

    /// Hard pseudo-labels `I(f^am(x) > bnd)` of every row (Algorithm 4,
    /// lines 4–6): `1.0` where the prediction exceeds `bnd`, `0.0`
    /// otherwise (a NaN prediction labels `0.0`). The default is
    /// [`Metamodel::predict_batch`] plus that threshold; overrides must
    /// return the same labels bit for bit, and may skip work that
    /// cannot change a label.
    fn hard_labels(&self, points: &[f64], m: usize, bnd: f64) -> Vec<f64> {
        self.predict_batch(points, m)
            .into_iter()
            .map(|p| if p > bnd { 1.0 } else { 0.0 })
            .collect()
    }
}

/// A metamodel family plus hyperparameters, ready to train — the `AM`
/// argument of Algorithm 4.
pub trait Trainer {
    /// Trains on `data`, consuming randomness from `rng` (bootstrap
    /// samples, feature subsets). Returns a boxed fitted model.
    fn train(&self, data: &Dataset, rng: &mut StdRng) -> Box<dyn Metamodel>;

    /// Human-readable family tag ("f", "x", "s" in the paper's naming).
    fn tag(&self) -> &'static str;
}
