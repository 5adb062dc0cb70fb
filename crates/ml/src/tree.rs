//! CART decision trees over column-major data.
//!
//! One generic builder serves both classification (gini impurity, class
//! distribution leaves) and regression (variance impurity, mean leaves).
//! Split search is histogram-based: every fit quantile-bins its features
//! once into `u8` codes ([`BinnedMatrix`], at most
//! [`MAX_BINS_LIMIT`] finite bins per feature), builds per-node
//! gradient/count histograms in one `O(rows)` pass, scans bin boundaries
//! instead of row boundaries, and derives the larger child's histogram by
//! subtracting the smaller child from the parent, so only the smaller
//! child is ever re-scanned. Histogram and row-index buffers are pooled
//! across the whole fit. When the bins cover every distinct value the
//! search finds the same partitions as the textbook sorted-rows search,
//! which this module's tests keep as an oracle.
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

/// Pooled buffers for one fit: histogram buffers are
/// recycled through a free list (peak ≈ tree depth + 1 alive at once) and
/// one scratch vector serves every stable row partition, so growing a node
/// allocates nothing once the pools are warm.
struct HistWorkspace {
    /// Recycled histogram buffers, each `n_features * stride * width`.
    free: Vec<Vec<f64>>,
    /// Histogram buffer length.
    size: usize,
    /// Right-side rows staging area for in-place stable partition.
    scratch: Vec<usize>,
}

impl HistWorkspace {
    fn new(size: usize, n_rows: usize) -> Self {
        HistWorkspace { free: Vec::new(), size, scratch: Vec::with_capacity(n_rows) }
    }

    fn alloc(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; self.size],
        }
    }

    fn release(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }
}

/// Accumulate the histogram of `rows` over every feature into `hist`
/// (assumed zeroed), laid out `[feature][bin][slot]` with uniform
/// `stride` bins per feature.
fn build_hist<C: Criterion>(binned: &BinnedMatrix, crit: &C, rows: &[usize], hist: &mut [f64]) {
    let width = crit.hist_width();
    let stride = binned.stride();
    for f in 0..binned.n_features() {
        let codes = binned.codes(f);
        let base = f * stride * width;
        for &r in rows {
            let off = base + codes[r] as usize * width;
            crit.hist_add(&mut hist[off..off + width], r);
        }
    }
}

/// The inputs that stay fixed while one tree grows.
struct Grow<'g, C> {
    crit: &'g C,
    params: &'g CartParams,
    /// Rows at the root, for weighting split importances.
    n_total: usize,
    rng: &'g mut StdRng,
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
        let n_features = binned.n_features();
        let n_total = rows.len();
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; n_features] };
        let width = crit.hist_width();
        let mut ws = HistWorkspace::new(n_features * binned.stride() * width, n_total);
        let mut root = ws.alloc();
        build_hist(binned, crit, &rows, &mut root);
        tree.grow_hist(
            binned,
            &mut Grow { crit, params, n_total, rng },
            &mut ws,
            &mut rows,
            root,
            0,
        );
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

    /// Recursively grow a subtree; returns its root node
    /// index. `hist` is this node's histogram (ownership transfers in:
    /// it is either recycled into `ws` or reused for the larger child).
    fn grow_hist<C: Criterion>(
        &mut self,
        binned: &BinnedMatrix,
        g: &mut Grow<'_, C>,
        ws: &mut HistWorkspace,
        rows: &mut [usize],
        hist: Vec<f64>,
        depth: usize,
    ) -> usize {
        let (crit, params, n_total) = (g.crit, g.params, g.n_total);
        let n = rows.len();
        let width = crit.hist_width();
        // Node-level stats: every row lands in exactly one bin of feature
        // 0 (including its missing bin), so summing that feature's bins
        // recovers the node totals.
        let mut node = vec![0.0; width];
        if binned.n_features() > 0 {
            for b in 0..=binned.n_bins(0) {
                let off = b * width;
                for (k, slot) in node.iter_mut().enumerate() {
                    *slot += hist[off + k];
                }
            }
        }
        let impurity = crit.hist_impurity(&node);

        let make_leaf =
            depth >= params.max_depth || n < params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            if let Some((feature, bin, gain)) =
                best_split_hist(binned, crit, params, &hist, &node, impurity, g.rng)
            {
                let threshold = binned.threshold(feature, bin);
                self.importances[feature] += gain * n as f64 / n_total as f64;
                // Stable in-place partition on bin codes keeps rows in
                // ascending order inside each child (cache-friendly
                // histogram scans) and is deterministic.
                let codes = binned.codes(feature);
                ws.scratch.clear();
                let mut w = 0;
                for i in 0..n {
                    let r = rows[i];
                    if (codes[r] as usize) <= bin {
                        rows[w] = r;
                        w += 1;
                    } else {
                        ws.scratch.push(r);
                    }
                }
                rows[w..].copy_from_slice(&ws.scratch);
                let (left_rows, right_rows) = rows.split_at_mut(w);
                // Sibling subtraction: scan only the smaller child; the
                // larger child's histogram is parent − smaller, reusing
                // the parent's buffer.
                let left_smaller = left_rows.len() <= right_rows.len();
                let mut small = ws.alloc();
                build_hist(
                    binned,
                    crit,
                    if left_smaller { &*left_rows } else { &*right_rows },
                    &mut small,
                );
                let mut large = hist;
                for (l, s) in large.iter_mut().zip(&small) {
                    *l -= *s;
                }
                let (left_hist, right_hist) =
                    if left_smaller { (small, large) } else { (large, small) };
                let idx = self.nodes.len();
                self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = self.grow_hist(binned, g, ws, left_rows, left_hist, depth + 1);
                let right = self.grow_hist(binned, g, ws, right_rows, right_hist, depth + 1);
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[idx] {
                    *l = left;
                    *r = right;
                }
                return idx;
            }
        }
        ws.release(hist);
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

/// Histogram best split over (subsampled) features: scan bin boundaries
/// with cumulative statistics; the missing bin (highest code) always
/// stays on the right.
///
/// Returns `(feature, bin, impurity_decrease)` realising "code <= bin".
fn best_split_hist<C: Criterion>(
    binned: &BinnedMatrix,
    crit: &C,
    params: &CartParams,
    hist: &[f64],
    node: &[f64],
    parent_impurity: f64,
    rng: &mut StdRng,
) -> Option<(usize, usize, f64)> {
    let n = node[0] as usize;
    let feature_idx = sample_features(params, binned.n_features(), rng);
    let width = crit.hist_width();
    let stride = binned.stride();
    let mut best: Option<(usize, usize, f64)> = None;
    let mut left = vec![0.0; width];
    let mut right = vec![0.0; width];
    for &f in &feature_idx {
        let nb = binned.n_bins(f);
        if nb == 0 {
            continue; // all-NaN column: nothing to split on
        }
        left.fill(0.0);
        right.copy_from_slice(node);
        let base = f * stride * width;
        for b in 0..nb {
            let off = base + b * width;
            if hist[off] == 0.0 {
                // Empty bin: identical partition to the previous boundary.
                continue;
            }
            for k in 0..width {
                left[k] += hist[off + k];
                right[k] -= hist[off + k];
            }
            let n_left = left[0] as usize;
            let n_right = n - n_left;
            if n_left == 0 || n_right == 0 {
                continue;
            }
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let child = (n_left as f64 * crit.hist_impurity(&left)
                + n_right as f64 * crit.hist_impurity(&right))
                / n as f64;
            let gain = parent_impurity - child;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, b, gain));
            }
        }
    }
    best
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

    /// Class-probability vector for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        self.tree.as_ref().expect("fit first").predict_row(row).to_vec()
    }

    /// Hard label for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        argmax(self.tree.as_ref().expect("fit first").predict_row(row))
    }

    /// Hard labels for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict_row(r)).collect()
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
        let n_total = rows.len();
        grow_exact(&mut tree, columns, &mut Grow { crit, params, n_total, rng: &mut rng }, rows, 0);
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
