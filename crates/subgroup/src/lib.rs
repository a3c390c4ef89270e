//! Subgroup-discovery algorithms for scenario discovery (§3 of the paper).
//!
//! * [`HyperBox`] — the axis-aligned box `Π_j [a_j^l, a_j^r]` that every
//!   algorithm searches for;
//! * [`Prim`] — the Patient Rule Induction Method's peeling phase
//!   (Algorithm 1) plus the optional pasting phase;
//! * [`PrimBumping`] — PRIM with bumping (Algorithm 2): bootstrap
//!   resampling, random feature subsets, Pareto filtering;
//! * [`BestInterval`] — the BI beam search (Algorithm 3) maximising
//!   WRAcc with the linear-time best-interval scan of Mampaey et al.;
//! * [`covering`] — the covering approach for finding several subgroups;
//! * [`CartSd`] — CART-based scenario discovery (Lempert, Bryant &
//!   Bankes 2008), the classic decision-tree comparator of §2.1;
//! * [`PcaPrim`] — PCA-PRIM (Dalal et al. 2013): PRIM in rotated
//!   coordinates, listed by the paper as orthogonal to and compatible
//!   with REDS (§2.1);
//! * [`Rule`] — the IF–THEN rendering of a scenario (§1).
//!
//! All algorithms accept soft labels in `[0,1]` transparently (sums of
//! labels replace counts), which is what lets REDS feed them
//! probability pseudo-labels (§6.1).

#![warn(missing_docs)]

mod bestinterval;
mod bumping;
mod cart;
mod covering;
mod hyperbox;
mod multiclass;
mod pca;
mod prim;
mod rule;

pub use bestinterval::{BestInterval, BiParams};
pub use bumping::{PrimBumping, PrimBumpingParams};
pub use cart::{CartSd, CartSdParams};
pub use covering::covering;
pub use hyperbox::HyperBox;
pub use multiclass::{discover_classes, ClassScenario};
pub use pca::{covariance_matrix, jacobi_eigen, PcaPrim, PcaRotation, RotatedScenario};
pub use prim::{NaivePrim, PeelCriterion, Prim, PrimParams};
pub use rule::Rule;

use rand::rngs::StdRng;
use reds_data::{ColumnAccess, Dataset, SortedView};

/// Result of one run of a subgroup-discovery algorithm: an ordered
/// sequence of boxes. For PRIM this is the peeling trajectory (coarsest
/// first); for BI a single box; for bumping the Pareto-optimal set
/// ordered by decreasing recall.
///
/// Persistable as JSON via [`SdResult::to_json`] / [`SdResult::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct SdResult {
    /// Discovered boxes, coarsest (highest recall) first.
    pub boxes: Vec<HyperBox>,
}

impl SdResult {
    /// The most refined box (the "last box" the paper evaluates for
    /// precision, interpretability, and consistency).
    pub fn last_box(&self) -> Option<&HyperBox> {
        self.boxes.last()
    }

    /// JSON representation: `{"boxes": [...]}` of [`HyperBox::to_json`]
    /// documents.
    pub fn to_json(&self) -> reds_json::Json {
        reds_json::Json::obj([(
            "boxes",
            reds_json::Json::arr(self.boxes.iter().map(HyperBox::to_json)),
        )])
    }

    /// Reconstructs a result from [`SdResult::to_json`] output.
    pub fn from_json(doc: &reds_json::Json) -> Option<Self> {
        let boxes = doc
            .get("boxes")?
            .as_array()?
            .iter()
            .map(HyperBox::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Self { boxes })
    }
}

/// A scenario-discovery algorithm (the `SD` argument of Algorithm 4).
pub trait SubgroupDiscovery {
    /// Runs the algorithm on training data `d` with validation data
    /// `d_val` (the paper uses `D_val = D`, §8.5).
    fn discover(&self, d: &Dataset, d_val: &Dataset, rng: &mut StdRng) -> SdResult;

    /// Like [`SubgroupDiscovery::discover`], but reuses an
    /// already-built [`SortedView`] of `d` — the handoff point of
    /// [`covering`], which argsorts the data once and filters the order
    /// down to each round's uncovered rows, so the algorithm need not
    /// argsort them again.
    ///
    /// `view` **must** index exactly `d` (same rows, all active);
    /// results are then bit-identical to [`SubgroupDiscovery::discover`].
    /// The default implementation simply drops the view and delegates,
    /// which is always correct — algorithms that presort internally
    /// ([`Prim`], [`BestInterval`], [`CartSd`]) override it.
    fn discover_presorted(
        &self,
        d: &Dataset,
        view: SortedView,
        d_val: &Dataset,
        rng: &mut StdRng,
    ) -> SdResult {
        let _ = view;
        self.discover(d, d_val, rng)
    }

    /// Runs the algorithm against a [`ColumnAccess`] backing instead of
    /// a materialized [`Dataset`] — the out-of-core entry point. The
    /// validation data `d_val` (the paper's `D_val = D`, the original
    /// training rows) stays in memory; only the pseudo-labeled pool is
    /// behind the paged store.
    ///
    /// Implementations must visit the store in the exact orders the
    /// [`ColumnAccess`] contract pins down, so the result is
    /// **bit-identical** to [`SubgroupDiscovery::discover`] on the
    /// materialized pool. Returns `None` when the algorithm (or the
    /// chosen hyperparameters) cannot run without random access to the
    /// full pool — the default, overridden by [`Prim`] (except with
    /// pasting enabled) and [`BestInterval`].
    fn discover_paged(
        &self,
        store: &mut dyn ColumnAccess,
        d_val: &Dataset,
        rng: &mut StdRng,
    ) -> Option<SdResult> {
        let _ = (store, d_val, rng);
        None
    }

    /// Short name for experiment reports ("P", "PB", "BI", …).
    fn name(&self) -> &'static str;
}
