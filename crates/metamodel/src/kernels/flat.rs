//! Branchless structure-of-arrays tree layout shared by every kernel.

/// A fitted decision tree flattened into parallel arrays — the layout
/// both the scalar and SIMD traversal kernels walk.
///
/// Node `i` is a **split** when `feature[i] != LEAF`: `value[i]` is its
/// threshold, the left child sits implicitly at `i + 1` (depth-first
/// layout), and `right[i]` is the right-child index. Node `i` is a
/// **leaf** when `feature[i] == LEAF`: `value[i]` is the predicted
/// value and `right[i] == i` (a self-loop, so a lane parked on a leaf
/// can take either branch without leaving the node).
///
/// Construction enforces the invariants the gather-based SIMD kernels
/// rely on for memory safety: children of a split lie strictly forward
/// in the arena and inside it, and split features are in `0..m` — so a
/// traversal index can never escape the arrays and always terminates.
/// Fitting builds arenas that hold them by construction; decoders go
/// through [`FlatTree::from_parts`], which checks them. The arena also
/// records its width, one past its largest split feature, which the
/// kernels check against the row width of every batch.
#[derive(Debug, Clone, Default)]
pub struct FlatTree {
    pub(super) feature: Vec<u32>,
    pub(super) value: Vec<f64>,
    pub(super) right: Vec<u32>,
    pub(super) width: usize,
}

impl FlatTree {
    /// Marker in [`FlatTree::feature`] for leaves.
    pub const LEAF: u32 = u32::MAX;

    /// Builds an arena from decoded parallel arrays, checking every
    /// traversal-safety invariant for rows of width `m`: non-empty,
    /// equal-length arrays, leaves self-looping, split features `< m`,
    /// and every split's children strictly forward and in bounds (left
    /// implicitly at `i + 1`). Returns a description of the first
    /// violation.
    pub fn from_parts(
        feature: Vec<u32>,
        value: Vec<f64>,
        right: Vec<u32>,
        m: usize,
    ) -> Result<Self, String> {
        let mut tree = Self {
            feature,
            value,
            right,
            width: 0,
        };
        tree.width = tree.validate(m)?;
        Ok(tree)
    }

    /// Creates an empty arena with room for `capacity` nodes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            feature: Vec::with_capacity(capacity),
            value: Vec::with_capacity(capacity),
            right: Vec::with_capacity(capacity),
            width: 0,
        }
    }

    /// Appends a leaf; returns its index.
    pub(crate) fn push_leaf(&mut self, value: f64) -> u32 {
        let i = self.feature.len() as u32;
        self.feature.push(Self::LEAF);
        self.value.push(value);
        self.right.push(i);
        i
    }

    /// Appends a split whose right child is patched later with
    /// [`FlatTree::set_right`]; returns its index.
    pub(crate) fn push_split(&mut self, feature: u32, threshold: f64) -> u32 {
        debug_assert_ne!(feature, Self::LEAF);
        let i = self.feature.len() as u32;
        self.width = self.width.max(feature as usize + 1);
        self.feature.push(feature);
        self.value.push(threshold);
        self.right.push(0);
        i
    }

    /// Patches the right-child index of split `i` once its left subtree
    /// has been emitted.
    pub(crate) fn set_right(&mut self, i: u32, right: u32) {
        debug_assert!(right > i, "children must lie forward in the arena");
        self.right[i as usize] = right;
    }

    /// Number of nodes (leaves + splits).
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.feature.iter().filter(|&&f| f == Self::LEAF).count()
    }

    /// Whether node `i` is a leaf.
    pub fn is_leaf(&self, i: usize) -> bool {
        self.feature[i] == Self::LEAF
    }

    /// Split feature of node `i` ([`FlatTree::LEAF`] for leaves).
    pub fn feature(&self, i: usize) -> u32 {
        self.feature[i]
    }

    /// Threshold (splits) or predicted value (leaves) of node `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.value[i]
    }

    /// Right-child index of node `i` (self for leaves).
    pub fn right(&self, i: usize) -> u32 {
        self.right[i]
    }

    /// Scalar per-point traversal — the reference every batched kernel
    /// must match bit for bit (it trivially does: the predicate
    /// `x[feature] <= threshold` picks the same leaf everywhere).
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == Self::LEAF {
                return self.value[i];
            }
            i = if x[f as usize] <= self.value[i] {
                i + 1
            } else {
                self.right[i] as usize
            };
        }
    }

    /// Checks the traversal-safety invariants of [`FlatTree::from_parts`]
    /// over a decoded arena and returns its width. Returns a
    /// description of the first violation.
    pub(crate) fn validate(&self, m: usize) -> Result<usize, String> {
        let len = self.feature.len();
        if self.value.len() != len || self.right.len() != len {
            return Err(format!(
                "arena arrays disagree in length ({len} features, {} values, {} rights)",
                self.value.len(),
                self.right.len()
            ));
        }
        if len == 0 {
            return Err("tree has no nodes".into());
        }
        if len > u32::MAX as usize {
            return Err("tree has too many nodes".into());
        }
        let mut width = 0;
        for i in 0..len {
            let f = self.feature[i];
            let r = self.right[i] as usize;
            if f == Self::LEAF {
                if r != i {
                    return Err(format!("leaf {i} must self-loop (right = {r})"));
                }
            } else {
                if (f as usize) >= m {
                    return Err(format!("node {i}: feature {f} out of range (m = {m})"));
                }
                if i + 1 >= len || r <= i + 1 || r >= len {
                    return Err(format!(
                        "node {i}: children must lie strictly forward in the arena \
                         (right = {r}, len = {len})"
                    ));
                }
                width = width.max(f as usize + 1);
            }
        }
        Ok(width)
    }

    /// Checks the arenas a forest or GBDT ensemble adopts: `m > 0`, at
    /// least one tree, and no split on a feature `>= m` (an arena
    /// validated for wider rows would otherwise fail every batch).
    pub(crate) fn check_ensemble(arenas: &[Self], m: usize) -> Result<(), String> {
        if m == 0 {
            return Err("'m' must be positive".into());
        }
        if arenas.is_empty() {
            return Err("ensemble has no trees".into());
        }
        match arenas.iter().position(|t| t.width > m) {
            Some(t) => Err(format!("tree {t} splits on a feature >= m = {m}")),
            None => Ok(()),
        }
    }
}
