//! The perfect-tree form of a shallow ensemble, for the AVX2 bit walk.

use super::FlatTree;

/// One real split of a tree in the perfect-tree form.
#[derive(Debug)]
pub(super) struct Split {
    pub(super) threshold: f64,
    /// `1 << slot`, the split's bit in a row's mask. Slots are heap
    /// slots: the root is slot 1, and the children of slot `s` are `2s`
    /// (left) and `2s + 1` (right), so they stay below `2^D`.
    pub(super) bit: u64,
    pub(super) feature: u32,
}

/// An ensemble of shallow trees, each laid out as a perfect binary
/// tree of the ensemble's maximum depth `D`. Per tree it holds the heap
/// slot, feature and threshold of every real split, and `2^D` leaf
/// values: a leaf at depth `d < D` fills all `2^(D−d)` leaf slots of
/// its subtree.
///
/// A row reaches its leaf in exactly `D` steps of `i = 2i + bit(i)`
/// from `i = 1`, where `bit(s)` is `!(x[feature] <= threshold)` of the
/// split at slot `s` (NaN goes right, as in [`FlatTree::predict`]).
/// Padded slots below a leaf hold no split and keep bit 0; both of
/// their sides hold that same leaf, so the walk reaches the leaf value
/// the arena walk reaches, and it ends with `i` in `[2^D, 2^(D+1))`.
/// `D` is at most [`PerfectTrees::MAX_DEPTH`], so the internal slots
/// `1..2^D` of one tree fit a 64-bit mask.
#[derive(Debug)]
pub(crate) struct PerfectTrees {
    pub(super) depth: u32,
    /// Splits of every tree, tree after tree.
    pub(super) splits: Vec<Split>,
    /// `splits[ends[t − 1]..ends[t]]` are tree `t`'s splits.
    pub(super) ends: Vec<usize>,
    /// `2^D` leaf values per tree, tree after tree.
    pub(super) leaves: Vec<f64>,
    /// One past the largest split feature.
    pub(super) width: usize,
}

impl PerfectTrees {
    /// The deepest ensemble given this form: `2^6 − 1 = 63` internal
    /// slots fill one 64-bit mask.
    pub(crate) const MAX_DEPTH: usize = 6;

    /// Lays out `trees` (in ensemble order) as perfect trees of their
    /// maximum depth, or returns `None` when a tree is deeper than
    /// [`PerfectTrees::MAX_DEPTH`]. Arenas whose splits share a child
    /// are laid out per path, which is where their walk goes too.
    pub(crate) fn new(trees: &[FlatTree]) -> Option<Self> {
        let mut depth = 0;
        for tree in trees {
            depth = depth.max(tree_depth(tree, Self::MAX_DEPTH)?);
        }
        let size = 1usize << depth;
        let mut form = Self {
            depth: depth as u32,
            splits: Vec::new(),
            ends: Vec::with_capacity(trees.len()),
            leaves: vec![0.0; trees.len() * size],
            width: 0,
        };
        for (tree, leaves) in trees.iter().zip(form.leaves.chunks_exact_mut(size)) {
            // (node, slot, depth); the left child is pushed last, so
            // the splits of a tree come out in arena order.
            let mut stack = vec![(0usize, 1usize, 0usize)];
            while let Some((i, slot, d)) = stack.pop() {
                if tree.is_leaf(i) {
                    let below = depth - d;
                    let first = (slot << below) - size;
                    leaves[first..first + (1 << below)].fill(tree.value[i]);
                } else {
                    form.splits.push(Split {
                        threshold: tree.value[i],
                        bit: 1 << slot,
                        feature: tree.feature[i],
                    });
                    stack.push((tree.right[i] as usize, 2 * slot + 1, d + 1));
                    stack.push((i + 1, 2 * slot, d + 1));
                }
            }
            form.ends.push(form.splits.len());
            form.width = form.width.max(tree.width);
        }
        Some(form)
    }

    /// Number of trees.
    pub(super) fn n_trees(&self) -> usize {
        self.ends.len()
    }

    /// Tree `t`'s splits and its `2^D` leaf values.
    #[inline]
    pub(super) fn tree(&self, t: usize) -> (&[Split], &[f64]) {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        let size = 1 << self.depth;
        (
            &self.splits[start..self.ends[t]],
            &self.leaves[t * size..(t + 1) * size],
        )
    }
}

/// The depth of `tree` (splits on its longest root-to-leaf path), or
/// `None` once a path is deeper than `limit`; visits at most
/// `2^(limit + 1)` nodes.
fn tree_depth(tree: &FlatTree, limit: usize) -> Option<usize> {
    let mut deepest = 0;
    let mut stack = vec![(0usize, 0usize)];
    while let Some((i, d)) = stack.pop() {
        if tree.is_leaf(i) {
            deepest = deepest.max(d);
        } else if d == limit {
            return None;
        } else {
            stack.push((i + 1, d + 1));
            stack.push((tree.right[i] as usize, d + 1));
        }
    }
    Some(deepest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAF: u32 = FlatTree::LEAF;

    /// A left spine of `depth` splits (nodes `0..depth`), then its
    /// deepest leaf, then the right leaves of the splits from the
    /// deepest up: a leaf at every depth from 1 to `depth`.
    fn spine(depth: usize) -> FlatTree {
        let mut feature: Vec<u32> = (0..depth as u32).map(|d| d % 3).collect();
        let mut value = vec![0.5; depth];
        let mut right: Vec<u32> = (0..depth as u32).map(|d| 2 * depth as u32 - d).collect();
        for (i, d) in (depth..=2 * depth).zip((0..=depth).rev()) {
            feature.push(LEAF);
            value.push(d as f64 - 0.25);
            right.push(i as u32);
        }
        FlatTree::from_parts(feature, value, right, 3).expect("valid spine")
    }

    /// The bit walk over the form, one row at a time.
    // `!(x <= t)`, not `x > t`: NaN sets the bit, as in the kernel.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn walk(form: &PerfectTrees, t: usize, x: &[f64]) -> f64 {
        let (splits, leaves) = form.tree(t);
        let mask = splits
            .iter()
            .filter(|s| !(x[s.feature as usize] <= s.threshold))
            .fold(0u64, |mask, s| mask | s.bit);
        let mut i = 1usize;
        for _ in 0..form.depth {
            i = 2 * i + (mask >> i & 1) as usize;
        }
        leaves[i - (1 << form.depth)]
    }

    #[test]
    fn the_bit_walk_reaches_the_arena_walks_leaf() {
        let trees: Vec<FlatTree> = (0..=PerfectTrees::MAX_DEPTH).map(spine).collect();
        let form = PerfectTrees::new(&trees).expect("depth 6 fits");
        assert_eq!(form.depth, 6);
        assert_eq!(form.n_trees(), trees.len());
        assert_eq!(form.width, 3);
        let values = [
            0.0,
            0.5,
            1.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for a in values {
            for b in values {
                for c in values {
                    let x = [a, b, c];
                    for (t, tree) in trees.iter().enumerate() {
                        let want = tree.predict(&x);
                        assert_eq!(walk(&form, t, &x).to_bits(), want.to_bits(), "{t} {x:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn deeper_trees_and_empty_ensembles_have_their_depth() {
        assert!(PerfectTrees::new(&[spine(2), spine(7)]).is_none());
        let form = PerfectTrees::new(&[]).expect("no tree is deeper than 6");
        assert_eq!((form.depth, form.n_trees()), (0, 0));
        let leaf = FlatTree::from_parts(vec![LEAF], vec![2.5], vec![0], 1).unwrap();
        let form = PerfectTrees::new(&[leaf.clone(), leaf]).expect("single leaves");
        assert_eq!(form.depth, 0);
        assert_eq!(form.leaves, [2.5, 2.5]);
        assert!(form.splits.is_empty());
    }
}
