//! CART decision trees over column-major data.
//!
//! One generic builder serves both classification (gini impurity, class
//! distribution leaves) and regression (variance impurity, mean leaves).
//! Split search is histogram-based: every fit quantile-bins its features
//! once into `u8` codes ([`BinnedMatrix`], at most
//! [`MAX_BINS_LIMIT`] finite bins per feature) and scans bin boundaries
//! instead of row boundaries, skipping empty bins. Where the per-node
//! histograms come from depends on `max_features`:
//!
//! - **Subsampled** (every forest): a node's totals come from its rows,
//!   and each sampled candidate's histogram is built straight from the
//!   node's rows into one reused buffer, with its occupied bins marked in
//!   a bitmap so the scan and the re-zeroing visit only those. A node
//!   costs `O(rows × candidates)`; the other features cost nothing.
//! - **Every feature a candidate** (single trees, boosting): each node
//!   carries a histogram of all features, laid out back to back with
//!   each feature's own bin count; only the smaller child's is built from
//!   its rows, and the larger child's is the parent's minus it. Those
//!   buffers are recycled across the fit.
//!
//! When the bins cover every distinct value the search finds the same
//! partitions as the textbook sorted-rows search, which this module's
//! tests keep as an oracle.
//!
//! NaN feature values are deterministic: prediction routes NaN right (any
//! `NaN <= t` is false), and binning puts NaN into a dedicated missing bin
//! with the highest code, so NaN rows sit right of every candidate split
//! during training too.

use crate::binning::{BinnedMatrix, MAX_BINS_LIMIT};
use fastft_tabular::rngx::StdRng;

/// Tree growth hyperparameters shared by every tree-based model here.
#[derive(Debug, Clone, Copy)]
pub struct CartParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child after a split.
    pub min_samples_leaf: usize,
    /// Candidate features per split: `None` = all, `Some(k)` = random k
    /// (random-forest style column subsampling).
    pub max_features: Option<usize>,
}

impl Default for CartParams {
    fn default() -> Self {
        CartParams { max_depth: 8, min_samples_split: 4, min_samples_leaf: 2, max_features: None }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf payload: class distribution (classification) or `[mean]`
    /// (regression).
    Leaf {
        value: Vec<f64>,
    },
}

/// Internal target abstraction so one builder serves both task families.
///
/// A bin accumulator is `hist_width()` consecutive `f64` slots whose slot
/// 0 is the sample count, so child histograms can be derived by
/// element-wise subtraction (sibling trick).
trait Criterion {
    /// `f64` slots per histogram bin; slot 0 holds the count.
    fn hist_width(&self) -> usize;
    /// Accumulate one row into a bin accumulator.
    fn hist_add(&self, acc: &mut [f64], row: usize);
    /// Impurity of an accumulator (`acc[0]` = count).
    fn hist_impurity(&self, acc: &[f64]) -> f64;
    /// Leaf payload of an accumulator.
    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64>;
}

struct GiniCriterion<'a> {
    y: &'a [usize],
    n_classes: usize,
}

impl Criterion for GiniCriterion<'_> {
    fn hist_width(&self) -> usize {
        1 + self.n_classes
    }

    fn hist_add(&self, acc: &mut [f64], row: usize) {
        acc[0] += 1.0;
        acc[1 + self.y[row]] += 1.0;
    }

    fn hist_impurity(&self, acc: &[f64]) -> f64 {
        let n = acc[0];
        if n <= 0.0 {
            return 0.0;
        }
        1.0 - acc[1..].iter().map(|c| (c / n) * (c / n)).sum::<f64>()
    }

    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64> {
        let n = acc[0];
        if n <= 0.0 {
            return vec![1.0 / self.n_classes as f64; self.n_classes];
        }
        acc[1..].iter().map(|c| c / n).collect()
    }
}

struct VarCriterion<'a> {
    y: &'a [f64],
}

impl Criterion for VarCriterion<'_> {
    fn hist_width(&self) -> usize {
        3 // count, sum, sum of squares
    }

    fn hist_add(&self, acc: &mut [f64], row: usize) {
        let v = self.y[row];
        acc[0] += 1.0;
        acc[1] += v;
        acc[2] += v * v;
    }

    fn hist_impurity(&self, acc: &[f64]) -> f64 {
        let n = acc[0];
        if n <= 0.0 {
            return 0.0;
        }
        (acc[2] / n - (acc[1] / n) * (acc[1] / n)).max(0.0)
    }

    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64> {
        vec![if acc[0] <= 0.0 { 0.0 } else { acc[1] / acc[0] }]
    }
}

#[derive(Debug, Clone)]
struct Cart {
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

/// The inputs that stay fixed while one tree grows, plus the buffers
/// every node reuses.
struct Grow<'g, C> {
    binned: &'g BinnedMatrix,
    crit: &'g C,
    params: &'g CartParams,
    /// Rows at the root, for weighting split importances.
    n_total: usize,
    rng: &'g mut StdRng,
    /// When every feature is a candidate at every node: where each
    /// feature's `n_bins + 1` bins start in a node's all-feature
    /// histogram, with the total bin count last. Empty when features are
    /// subsampled.
    offsets: Vec<usize>,
    /// Recycled all-feature histograms (peak ≈ tree depth + 1 alive).
    spare: Vec<Vec<f64>>,
    /// One candidate feature's histogram when features are subsampled,
    /// sized for the feature with the most bins and all zero between
    /// candidates.
    hist: Vec<f64>,
    /// Right-side rows staging area for the stable in-place partition.
    right: Vec<usize>,
}

impl<'g, C: Criterion> Grow<'g, C> {
    fn new(
        binned: &'g BinnedMatrix,
        crit: &'g C,
        params: &'g CartParams,
        n_total: usize,
        rng: &'g mut StdRng,
    ) -> Self {
        let n_features = binned.n_features();
        let bins = |f| binned.n_bins(f) + 1;
        let (mut offsets, mut hist) = (Vec::new(), Vec::new());
        if params.max_features.is_none_or(|k| k >= n_features) {
            // Every feature is a candidate at every node, so each node
            // carries all their histograms and children derive theirs by
            // sibling subtraction.
            offsets.push(0);
            for f in 0..n_features {
                offsets.push(offsets[f] + bins(f));
            }
        } else {
            hist = vec![0.0; (0..n_features).map(bins).max().unwrap_or(1) * crit.hist_width()];
        }
        Grow {
            binned,
            crit,
            params,
            n_total,
            rng,
            offsets,
            spare: Vec::new(),
            hist,
            right: Vec::with_capacity(n_total),
        }
    }

    /// The all-feature histogram of `rows`, in a recycled buffer.
    fn all_hist(&mut self, rows: &[usize]) -> Vec<f64> {
        let width = self.crit.hist_width();
        let mut hist = match self.spare.pop() {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; self.offsets[self.offsets.len() - 1] * width],
        };
        for (f, &start) in self.offsets[..self.binned.n_features()].iter().enumerate() {
            let codes = self.binned.codes(f);
            for &r in rows {
                let off = (start + codes[r] as usize) * width;
                self.crit.hist_add(&mut hist[off..off + width], r);
            }
        }
        hist
    }

    /// Stable in-place partition of `rows` on "code of `feature` <= `bin`";
    /// returns the left size. Rows stay ascending inside each child
    /// (cache-friendly histogram builds), and the order is deterministic.
    fn partition(&mut self, rows: &mut [usize], feature: usize, bin: usize) -> usize {
        let codes = self.binned.codes(feature);
        self.right.clear();
        let mut w = 0;
        for i in 0..rows.len() {
            let r = rows[i];
            if (codes[r] as usize) <= bin {
                rows[w] = r;
                w += 1;
            } else {
                self.right.push(r);
            }
        }
        rows[w..].copy_from_slice(&self.right);
        w
    }

    /// Best split over the node's candidate features. A candidate's
    /// histogram is its slice of the node's all-feature histogram `all`
    /// when there is one, else it is built from `rows` alone.
    ///
    /// Returns `(feature, bin, impurity_decrease)` realising "code <= bin".
    fn best_split(
        &mut self,
        rows: &[usize],
        all: Option<&[f64]>,
        node: &[f64],
        parent_impurity: f64,
    ) -> Option<(usize, usize, f64)> {
        let crit = self.crit;
        let width = crit.hist_width();
        let mut scan = Scan::new(crit, self.params, node, parent_impurity);
        for f in sample_features(self.params, self.binned.n_features(), self.rng) {
            let nb = self.binned.n_bins(f);
            if nb == 0 {
                continue; // all-NaN column: nothing to split on
            }
            match all {
                Some(all) => {
                    let hist = &all[self.offsets[f] * width..self.offsets[f + 1] * width];
                    scan.feature(f, hist, (0..nb).filter(|&b| hist[b * width] != 0.0));
                }
                None => {
                    // Mark the occupied bins in a bitmap over the `u8`
                    // code space, so a node holding a handful of rows
                    // scans, and then re-zeroes, a handful of bins.
                    let mut occupied = [0u64; 4];
                    let codes = self.binned.codes(f);
                    for &r in rows {
                        let b = codes[r] as usize;
                        occupied[b / 64] |= 1 << (b % 64);
                        crit.hist_add(&mut self.hist[b * width..(b + 1) * width], r);
                    }
                    let finite = SetBits(occupied, 0).take_while(|&b| b < nb);
                    scan.feature(f, &self.hist, finite);
                    for b in SetBits(occupied, 0) {
                        self.hist[b * width..(b + 1) * width].fill(0.0);
                    }
                }
            }
        }
        scan.best
    }
}

/// One node's split search: cumulative statistics over bin boundaries,
/// keeping the first strictly best gain.
struct Scan<'s, C> {
    crit: &'s C,
    params: &'s CartParams,
    node: &'s [f64],
    parent_impurity: f64,
    left: Vec<f64>,
    right: Vec<f64>,
    /// `(feature, bin, impurity_decrease)` realising "code <= bin".
    best: Option<(usize, usize, f64)>,
}

impl<'s, C: Criterion> Scan<'s, C> {
    fn new(crit: &'s C, params: &'s CartParams, node: &'s [f64], parent_impurity: f64) -> Self {
        let width = crit.hist_width();
        let (left, right) = (vec![0.0; width], vec![0.0; width]);
        Scan { crit, params, node, parent_impurity, left, right, best: None }
    }

    /// Scan feature `f`'s boundaries "code <= b" over its occupied finite
    /// `bins`, ascending; an empty bin would repeat the previous
    /// boundary's partition. The missing bin always stays on the right.
    fn feature(&mut self, f: usize, hist: &[f64], bins: impl Iterator<Item = usize>) {
        let (crit, params) = (self.crit, self.params);
        let (left, right) = (&mut self.left, &mut self.right);
        let width = left.len();
        let n = self.node[0] as usize;
        left.fill(0.0);
        right.copy_from_slice(self.node);
        for b in bins {
            let acc = &hist[b * width..(b + 1) * width];
            for k in 0..width {
                left[k] += acc[k];
                right[k] -= acc[k];
            }
            let n_left = left[0] as usize;
            let n_right = n - n_left;
            if n_left == 0 || n_right == 0 {
                continue;
            }
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let child = (n_left as f64 * crit.hist_impurity(left)
                + n_right as f64 * crit.hist_impurity(right))
                / n as f64;
            let gain = self.parent_impurity - child;
            if gain > 1e-12 && self.best.is_none_or(|(_, _, g)| gain > g) {
                self.best = Some((f, b, gain));
            }
        }
    }
}

/// Ascending indices of the set bits of a 256-bit map, from word `.1` on.
struct SetBits([u64; 4], usize);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while let Some(bits) = self.0.get_mut(self.1) {
            if *bits != 0 {
                let b = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                return Some(self.1 * 64 + b);
            }
            self.1 += 1;
        }
        None
    }
}

impl Cart {
    /// Fit over a prebuilt [`BinnedMatrix`].
    fn fit_hist<C: Criterion>(
        binned: &BinnedMatrix,
        crit: &C,
        params: &CartParams,
        mut rows: Vec<usize>,
        rng: &mut StdRng,
    ) -> Cart {
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; binned.n_features()] };
        let mut g = Grow::new(binned, crit, params, rows.len(), rng);
        let all = (!g.offsets.is_empty()).then(|| g.all_hist(&rows));
        tree.grow_hist(&mut g, &mut rows, all, 0);
        tree.normalise_importances();
        tree
    }

    /// Normalise importances to sum to 1 when any split happened.
    fn normalise_importances(&mut self) {
        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut self.importances {
                *imp /= total;
            }
        }
    }

    /// Recursively grow a subtree; returns its root node index. `all` is
    /// the node's all-feature histogram when every feature is a candidate
    /// (ownership transfers in: it is recycled, or reused for the larger
    /// child).
    fn grow_hist<C: Criterion>(
        &mut self,
        g: &mut Grow<'_, C>,
        rows: &mut [usize],
        all: Option<Vec<f64>>,
        depth: usize,
    ) -> usize {
        let (crit, params) = (g.crit, g.params);
        let n = rows.len();
        let width = crit.hist_width();
        // Node totals. Every row lands in exactly one bin of feature 0
        // (its missing bin included), so an all-feature histogram holds
        // them in that feature's bins; otherwise they come from the rows.
        let mut node = vec![0.0; width];
        match &all {
            Some(hist) => {
                let first = g.offsets.get(1).map_or(0, |&end| end * width);
                for bin in hist[..first].chunks_exact(width) {
                    for (slot, v) in node.iter_mut().zip(bin) {
                        *slot += v;
                    }
                }
            }
            None => {
                for &r in rows.iter() {
                    crit.hist_add(&mut node, r);
                }
            }
        }
        let impurity = crit.hist_impurity(&node);

        let make_leaf =
            depth >= params.max_depth || n < params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            if let Some((feature, bin, gain)) = g.best_split(rows, all.as_deref(), &node, impurity)
            {
                let threshold = g.binned.threshold(feature, bin);
                self.importances[feature] += gain * n as f64 / g.n_total as f64;
                let w = g.partition(rows, feature, bin);
                let (left_rows, right_rows) = rows.split_at_mut(w);
                // Sibling subtraction: build only the smaller child; the
                // larger child's histogram is parent − smaller, in the
                // parent's buffer.
                let (left_all, right_all) = match all {
                    Some(mut large) => {
                        let left_smaller = left_rows.len() <= right_rows.len();
                        let small =
                            g.all_hist(if left_smaller { &*left_rows } else { &*right_rows });
                        for (l, s) in large.iter_mut().zip(&small) {
                            *l -= *s;
                        }
                        let (l, r) = if left_smaller { (small, large) } else { (large, small) };
                        (Some(l), Some(r))
                    }
                    None => (None, None),
                };
                let idx = self.nodes.len();
                self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = self.grow_hist(g, left_rows, left_all, depth + 1);
                let right = self.grow_hist(g, right_rows, right_all, depth + 1);
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[idx] {
                    *l = left;
                    *r = right;
                }
                return idx;
            }
        }
        g.spare.extend(all);
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: crit.hist_leaf(&node) });
        idx
    }

    fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
                Node::Leaf { value } => return value,
            }
        }
    }

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Candidate feature indices for one node: all features, or a partial
/// Fisher–Yates sample of `k`.
fn sample_features(params: &CartParams, n_features: usize, rng: &mut StdRng) -> Vec<usize> {
    match params.max_features {
        Some(k) if k < n_features => {
            let mut idx: Vec<usize> = (0..n_features).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_features);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
        _ => (0..n_features).collect(),
    }
}

/// A CART classifier. Fit on column-major features and integer labels.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    params: CartParams,
    seed: u64,
    tree: Option<Cart>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Create an unfitted tree.
    pub fn new(params: CartParams, seed: u64) -> Self {
        Self { params, seed, tree: None, n_classes: 0 }
    }

    /// Fit on column-major features.
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        self.fit_binned(&binned, y, n_classes, (0..y.len()).collect());
    }

    /// Fit on the `rows` subset of a prebuilt [`BinnedMatrix`] (repeats
    /// allowed) — a forest bins its training matrix once and shares it
    /// across trees.
    pub fn fit_binned(
        &mut self,
        binned: &BinnedMatrix,
        y: &[usize],
        n_classes: usize,
        rows: Vec<usize>,
    ) {
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = GiniCriterion { y, n_classes };
        self.tree = Some(Cart::fit_hist(binned, &crit, &self.params, rows, &mut rng));
        self.n_classes = n_classes;
    }

    /// Class-probability vector for one row: the distribution of the leaf
    /// it lands in.
    pub fn predict_proba_row(&self, row: &[f64]) -> &[f64] {
        self.tree.as_ref().expect("fit first").predict_row(row)
    }

    /// Hard label for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        argmax(self.predict_proba_row(row))
    }

    /// Hard labels for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Hard labels and positive-class (class 1) scores for a row-major
    /// batch, one tree walk per row.
    pub fn predict_with_scores(&self, rows: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
        let positive = 1.min(self.n_classes - 1);
        rows.iter()
            .map(|r| {
                let p = self.predict_proba_row(r);
                (argmax(p), p[positive])
            })
            .unzip()
    }

    /// Normalised impurity-decrease feature importances.
    pub fn feature_importances(&self) -> &[f64] {
        &self.tree.as_ref().expect("fit first").importances
    }

    /// Total node count (for complexity reporting).
    pub fn n_nodes(&self) -> usize {
        self.tree.as_ref().map_or(0, Cart::n_nodes)
    }
}

/// A CART regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    params: CartParams,
    seed: u64,
    tree: Option<Cart>,
}

impl DecisionTreeRegressor {
    /// Create an unfitted tree.
    pub fn new(params: CartParams, seed: u64) -> Self {
        Self { params, seed, tree: None }
    }

    /// Fit on column-major features.
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[f64]) {
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        self.fit_binned(&binned, y, (0..y.len()).collect());
    }

    /// Fit on the `rows` subset of a prebuilt [`BinnedMatrix`] (repeats
    /// allowed) — bagging and boosting bin the training matrix once and
    /// share it across trees, rounds and classes.
    pub fn fit_binned(&mut self, binned: &BinnedMatrix, y: &[f64], rows: Vec<usize>) {
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = VarCriterion { y };
        self.tree = Some(Cart::fit_hist(binned, &crit, &self.params, rows, &mut rng));
    }

    /// Predicted value for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.tree.as_ref().expect("fit first").predict_row(row)[0]
    }

    /// Predicted values for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Normalised impurity-decrease feature importances.
    pub fn feature_importances(&self) -> &[f64] {
        &self.tree.as_ref().expect("fit first").importances
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;
    use fastft_tabular::stats::nan_last_cmp;

    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = rngx::rng(seed);
        let a = rngx::normal_vec(&mut rng, n);
        let b = rngx::normal_vec(&mut rng, n);
        let y: Vec<usize> =
            a.iter().zip(&b).map(|(&x, &z)| usize::from((x > 0.0) != (z > 0.0))).collect();
        (vec![a, b], y)
    }

    #[test]
    fn classifier_learns_xor() {
        let (cols, y) = xor_data(400, 1);
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let rows: Vec<Vec<f64>> = (0..y.len()).map(|i| vec![cols[0][i], cols[1][i]]).collect();
        let pred = t.predict(&rows);
        let acc = fastft_tabular::metrics::accuracy(&y, &pred);
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn classifier_pure_node_is_leaf() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let y = vec![1, 1, 1, 1];
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_row(&[10.0]), 1);
    }

    #[test]
    fn depth_zero_predicts_majority() {
        let cols = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0]];
        let y = vec![0, 0, 0, 1, 1];
        let params = CartParams { max_depth: 0, ..CartParams::default() };
        let mut t = DecisionTreeClassifier::new(params, 0);
        t.fit(&cols, &y, 2);
        assert_eq!(t.predict_row(&[4.0]), 0);
    }

    #[test]
    fn proba_sums_to_one() {
        let (cols, y) = xor_data(200, 2);
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let p = t.predict_proba_row(&[0.3, -0.2]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn regressor_fits_step_function() {
        let cols = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTreeRegressor::new(CartParams::default(), 0);
        t.fit(&cols, &y);
        assert!((t.predict_row(&[10.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[90.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regressor_reduces_variance_vs_mean() {
        let mut rng = rngx::rng(3);
        let x = rngx::normal_vec(&mut rng, 300);
        let y: Vec<f64> = x.iter().map(|v| v * v + 0.1 * rngx::normal(&mut rng)).collect();
        let cols = vec![x.clone()];
        let mut t = DecisionTreeRegressor::new(CartParams::default(), 0);
        t.fit(&cols, &y);
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let pred = t.predict(&rows);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let mse_tree: f64 =
            y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / y.len() as f64;
        let mse_mean: f64 = y.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / y.len() as f64;
        assert!(mse_tree < 0.3 * mse_mean, "tree {mse_tree} vs mean {mse_mean}");
    }

    #[test]
    fn importances_identify_informative_feature() {
        let mut rng = rngx::rng(4);
        let signal = rngx::normal_vec(&mut rng, 300);
        let noise = rngx::normal_vec(&mut rng, 300);
        let y: Vec<usize> = signal.iter().map(|&s| usize::from(s > 0.0)).collect();
        let cols = vec![noise, signal];
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let imp = t.feature_importances();
        assert!(imp[1] > imp[0], "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let cols = vec![(0..10).map(|i| i as f64).collect::<Vec<_>>()];
        let y = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let params = CartParams { min_samples_leaf: 6, ..CartParams::default() };
        let mut t = DecisionTreeClassifier::new(params, 0);
        t.fit(&cols, &y, 2);
        // No split can give both children >= 6 of 10 samples.
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    /// Exact CART split search over sorted rows: the textbook procedure,
    /// kept as the oracle the histogram backend is checked against. It
    /// shares the production criterion accumulators, feature sampling and
    /// tie-breaking (ascending scan, first strictly greater gain), so the
    /// two backends pick the same partitions whenever the bins cover every
    /// distinct value.
    fn fit_exact<C: Criterion>(
        columns: &[Vec<f64>],
        crit: &C,
        params: &CartParams,
        rows: Vec<usize>,
        seed: u64,
    ) -> Cart {
        let mut rng = rngx::rng(seed);
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; columns.len()] };
        let binned = BinnedMatrix::build(columns, MAX_BINS_LIMIT);
        let mut g = Grow::new(&binned, crit, params, rows.len(), &mut rng);
        grow_exact(&mut tree, columns, &mut g, rows, 0);
        tree.normalise_importances();
        tree
    }

    fn grow_exact<C: Criterion>(
        tree: &mut Cart,
        columns: &[Vec<f64>],
        g: &mut Grow<'_, C>,
        rows: Vec<usize>,
        depth: usize,
    ) -> usize {
        let n = rows.len();
        let mut node = vec![0.0; g.crit.hist_width()];
        for &r in &rows {
            g.crit.hist_add(&mut node, r);
        }
        let impurity = g.crit.hist_impurity(&node);
        let make_leaf =
            depth >= g.params.max_depth || n < g.params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            if let Some((feature, threshold, gain)) =
                best_split_exact(columns, g, &rows, &node, impurity)
            {
                tree.importances[feature] += gain * n as f64 / g.n_total as f64;
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| columns[feature][r] <= threshold);
                let idx = tree.nodes.len();
                tree.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = grow_exact(tree, columns, g, left_rows, depth + 1);
                let right = grow_exact(tree, columns, g, right_rows, depth + 1);
                tree.nodes[idx] = Node::Split { feature, threshold, left, right };
                return idx;
            }
        }
        tree.nodes.push(Node::Leaf { value: g.crit.hist_leaf(&node) });
        tree.nodes.len() - 1
    }

    /// Best `(feature, threshold, impurity_decrease)` over every boundary
    /// between distinct values of the (subsampled) features.
    fn best_split_exact<C: Criterion>(
        columns: &[Vec<f64>],
        g: &mut Grow<'_, C>,
        rows: &[usize],
        node: &[f64],
        parent_impurity: f64,
    ) -> Option<(usize, f64, f64)> {
        let (crit, params, n) = (g.crit, g.params, rows.len());
        let mut best: Option<(usize, f64, f64)> = None;
        let mut sorted = rows.to_vec();
        let mut left = vec![0.0; node.len()];
        let mut right = vec![0.0; node.len()];
        for f in sample_features(params, columns.len(), g.rng) {
            let col = &columns[f];
            sorted.sort_by(|&a, &b| nan_last_cmp(&col[a], &col[b]));
            left.fill(0.0);
            for i in 0..n - 1 {
                crit.hist_add(&mut left, sorted[i]);
                for (r, (p, l)) in right.iter_mut().zip(node.iter().zip(&left)) {
                    *r = p - l;
                }
                let (lo, hi) = (col[sorted[i]], col[sorted[i + 1]]);
                // No split between equal values; the NaN block at the end
                // is one tie, so it always goes right.
                let (n_left, n_right) = (i + 1, n - i - 1);
                if nan_last_cmp(&lo, &hi).is_eq()
                    || n_left < params.min_samples_leaf
                    || n_right < params.min_samples_leaf
                {
                    continue;
                }
                let child = (n_left as f64 * crit.hist_impurity(&left)
                    + n_right as f64 * crit.hist_impurity(&right))
                    / n as f64;
                let gain = parent_impurity - child;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    // Midpoint between finite values; at the finite|NaN
                    // boundary the last finite value, sending NaN right.
                    let threshold = if hi.is_nan() { lo } else { 0.5 * (lo + hi) };
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    #[test]
    fn exact_split_is_row_order_independent_with_nans() {
        // Sorting with `partial_cmp(..).unwrap_or(Equal)` placed NaNs
        // wherever the incoming row order left them, so a tree depended on
        // row *order*, not just the row *set*. Both the oracle and the
        // histogram tree must be order-independent.
        let x = vec![f64::NAN, 1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0, 5.0, 6.0, 7.0];
        let y = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0];
        let cols = vec![x];
        let params = CartParams { min_samples_leaf: 1, ..CartParams::default() };
        let crit = VarCriterion { y: &y };
        let forward_rows: Vec<usize> = (0..y.len()).collect();
        let reversed_rows: Vec<usize> = (0..y.len()).rev().collect();

        let forward = fit_exact(&cols, &crit, &params, forward_rows.clone(), 0);
        let reversed = fit_exact(&cols, &crit, &params, reversed_rows.clone(), 0);
        let binned = BinnedMatrix::build(&cols, MAX_BINS_LIMIT);
        let mut hist_forward = DecisionTreeRegressor::new(params, 0);
        hist_forward.fit_binned(&binned, &y, forward_rows);
        let mut hist_reversed = DecisionTreeRegressor::new(params, 0);
        hist_reversed.fit_binned(&binned, &y, reversed_rows);

        for probe in [f64::NAN, 0.5, 1.5, 3.5, 4.5, 6.5] {
            let a = forward.predict_row(&[probe])[0];
            let b = reversed.predict_row(&[probe])[0];
            assert_eq!(a.to_bits(), b.to_bits(), "probe {probe} differs: {a} vs {b}");
            let c = hist_forward.predict_row(&[probe]);
            let d = hist_reversed.predict_row(&[probe]);
            assert_eq!(c.to_bits(), d.to_bits(), "probe {probe} differs: {c} vs {d}");
        }
    }

    #[test]
    fn nan_rows_route_right_in_both_modes() {
        // Feature is informative except for NaN rows, which all carry the
        // high label; the histogram tree and the exact oracle must both
        // learn "missing -> right branch".
        let mut x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        for _ in 0..10 {
            x.push(f64::NAN);
            y.push(1);
        }
        let cols = vec![x];
        let params = CartParams::default();
        let mut hist = DecisionTreeClassifier::new(params, 0);
        hist.fit(&cols, &y, 2);
        let crit = GiniCriterion { y: &y, n_classes: 2 };
        let exact = fit_exact(&cols, &crit, &params, (0..y.len()).collect(), 0);
        for (name, tree) in [("histogram", hist.tree.as_ref().unwrap()), ("exact", &exact)] {
            assert_eq!(argmax(tree.predict_row(&[f64::NAN])), 1, "{name}");
            assert_eq!(argmax(tree.predict_row(&[3.0])), 0, "{name}");
        }
    }

    #[test]
    fn histogram_matches_exact_when_bins_cover_all_values() {
        // With distinct values <= max_bins every bin holds one distinct
        // value, so the histogram scans the same candidate partitions as
        // the exact search with the same feature-sampling RNG and the same
        // ascending / first-strictly-greater tie-breaking. The two trees
        // partition the training set identically (interior thresholds may
        // sit at different points of the same value gap, so only training
        // rows — never off-grid probes — are compared). The small-integer
        // grid makes many candidate splits tie on gain, which pins the
        // tie-breaking too.
        let grid_cols: Vec<Vec<f64>> = vec![
            (0..120).map(|i| f64::from(i % 6)).collect(),
            (0..120).map(|i| f64::from(i % 5)).collect(),
        ];
        let grid_y: Vec<usize> = (0..120).map(|i| usize::from((i % 6 + i % 5) % 3 == 0)).collect();
        let subsampled = CartParams { max_features: Some(1), ..CartParams::default() };
        for (cols, y) in [xor_data(200, 7), (grid_cols, grid_y)] {
            for params in [CartParams::default(), subsampled] {
                let crit = GiniCriterion { y: &y, n_classes: 2 };
                let exact = fit_exact(&cols, &crit, &params, (0..y.len()).collect(), 0);
                let mut hist = DecisionTreeClassifier::new(params, 0);
                hist.fit(&cols, &y, 2);

                assert_eq!(exact.n_nodes(), hist.n_nodes());
                for (i, row) in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]).enumerate() {
                    assert_eq!(exact.predict_row(&row), hist.predict_proba_row(&row), "row {i}");
                }
            }
        }
    }

    #[test]
    fn histogram_regressor_learns_step_with_coarse_bins() {
        let cols = vec![(0..2000).map(|i| (i % 500) as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = cols[0].iter().map(|&v| if v < 250.0 { 1.0 } else { 5.0 }).collect();
        let binned = BinnedMatrix::build(&cols, 16);
        let mut t = DecisionTreeRegressor::new(CartParams::default(), 0);
        t.fit_binned(&binned, &y, (0..y.len()).collect());
        assert!((t.predict_row(&[10.0]) - 1.0).abs() < 0.2);
        assert!((t.predict_row(&[400.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn prebinned_fit_matches_per_tree_binning() {
        let (cols, y_cls) = xor_data(150, 9);
        let y: Vec<f64> = y_cls.iter().map(|&c| c as f64).collect();
        let params = CartParams::default();
        let binned = BinnedMatrix::build(&cols, MAX_BINS_LIMIT);

        let mut auto = DecisionTreeRegressor::new(params, 42);
        auto.fit(&cols, &y);
        let mut pre = DecisionTreeRegressor::new(params, 42);
        pre.fit_binned(&binned, &y, (0..y.len()).collect());

        for row in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]) {
            assert_eq!(auto.predict_row(&row).to_bits(), pre.predict_row(&row).to_bits());
        }
    }
}
