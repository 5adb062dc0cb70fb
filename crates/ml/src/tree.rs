//! CART decision trees over column-major data.
//!
//! One generic builder serves both classification (gini impurity, class
//! distribution leaves) and regression (variance impurity, mean leaves).
//! Two split-search backends share it, selected by
//! [`CartParams::split_method`]:
//!
//! - [`SplitMethod::Exact`] sorts the node's rows per candidate feature
//!   and scans all boundaries with prefix statistics —
//!   `O(rows · log rows · features)` per node, the textbook procedure.
//! - [`SplitMethod::Histogram`] (the default) quantile-bins every feature
//!   once per fit into `u8` codes ([`crate::binning::BinnedMatrix`]),
//!   builds per-node gradient/count histograms in one `O(rows)` pass,
//!   scans bin boundaries instead of row boundaries, and derives the
//!   larger child's histogram by subtracting the smaller child from the
//!   parent, so only the smaller child is ever re-scanned. Histogram and
//!   row-index buffers are pooled across the whole fit, eliminating the
//!   per-node allocation churn of the exact path.
//!
//! NaN feature values are deterministic in both backends: prediction
//! routes NaN right (any `NaN <= t` is false), the histogram path bins
//! NaN into a dedicated missing bin with the highest code, and the exact
//! path sorts NaN to the end of every column scan.

use crate::binning::BinnedMatrix;
use fastft_tabular::rngx::StdRng;

/// Split-search backend used when growing a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMethod {
    /// Sort-based exhaustive search over every boundary between distinct
    /// values.
    Exact,
    /// Histogram search over at most `max_bins` quantile bins per feature
    /// (clamped to 1..=255), plus a missing bin for NaN.
    Histogram {
        /// Maximum finite-value bins per feature.
        max_bins: u16,
    },
}

impl fastft_tabular::persist::Persist for SplitMethod {
    // Fixed-width layout: tag byte + a u32 bin-count slot for both variants.
    fn persist(&self, w: &mut fastft_tabular::persist::Writer) {
        match self {
            SplitMethod::Exact => {
                w.u8(0);
                w.u32(0);
            }
            SplitMethod::Histogram { max_bins } => {
                w.u8(1);
                w.u32(u32::from(*max_bins));
            }
        }
    }

    fn restore(
        r: &mut fastft_tabular::persist::Reader,
    ) -> fastft_tabular::persist::PersistResult<Self> {
        Ok(match (r.u8()?, r.u32()?) {
            (0, _) => SplitMethod::Exact,
            (1, bins) => SplitMethod::Histogram {
                max_bins: u16::try_from(bins)
                    .map_err(|_| format!("max_bins {bins} out of range"))?,
            },
            (t, _) => return Err(format!("unknown split-method tag {t}")),
        })
    }
}

impl Default for SplitMethod {
    fn default() -> Self {
        SplitMethod::Histogram { max_bins: 255 }
    }
}

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
    /// Split-search backend.
    pub split_method: SplitMethod,
}

impl Default for CartParams {
    fn default() -> Self {
        CartParams {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            split_method: SplitMethod::default(),
        }
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
/// The `hist_*` methods are the flat-slice view used by the histogram
/// backend: a bin accumulator is `hist_width()` consecutive `f64` slots
/// whose slot 0 is the sample count, so child histograms can be derived
/// by element-wise subtraction (sibling trick).
trait Criterion {
    /// Aggregated sufficient statistics of a sample subset.
    type Stats: Clone;
    fn stats(&self, rows: &[usize]) -> Self::Stats;
    fn impurity(&self, s: &Self::Stats, n: usize) -> f64;
    fn add(&self, s: &mut Self::Stats, row: usize);
    fn sub(&self, s: &mut Self::Stats, row: usize);
    fn leaf_value(&self, s: &Self::Stats, n: usize) -> Vec<f64>;
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
    type Stats = Vec<f64>;

    fn stats(&self, rows: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes];
        for &r in rows {
            counts[self.y[r]] += 1.0;
        }
        counts
    }

    fn impurity(&self, counts: &Vec<f64>, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
    }

    fn add(&self, s: &mut Vec<f64>, row: usize) {
        s[self.y[row]] += 1.0;
    }

    fn sub(&self, s: &mut Vec<f64>, row: usize) {
        s[self.y[row]] -= 1.0;
    }

    fn leaf_value(&self, counts: &Vec<f64>, n: usize) -> Vec<f64> {
        if n == 0 {
            return vec![1.0 / self.n_classes as f64; self.n_classes];
        }
        counts.iter().map(|c| c / n as f64).collect()
    }

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
    /// `(sum, sum_sq)`
    type Stats = (f64, f64);

    fn stats(&self, rows: &[usize]) -> (f64, f64) {
        let mut s = (0.0, 0.0);
        for &r in rows {
            s.0 += self.y[r];
            s.1 += self.y[r] * self.y[r];
        }
        s
    }

    fn impurity(&self, &(sum, sq): &(f64, f64), n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        (sq / n - (sum / n) * (sum / n)).max(0.0)
    }

    fn add(&self, s: &mut (f64, f64), row: usize) {
        s.0 += self.y[row];
        s.1 += self.y[row] * self.y[row];
    }

    fn sub(&self, s: &mut (f64, f64), row: usize) {
        s.0 -= self.y[row];
        s.1 -= self.y[row] * self.y[row];
    }

    fn leaf_value(&self, &(sum, _): &(f64, f64), n: usize) -> Vec<f64> {
        vec![if n == 0 { 0.0 } else { sum / n as f64 }]
    }

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

/// Pooled buffers for one histogram-mode fit: histogram buffers are
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
    fn fit<C: Criterion>(
        columns: &[Vec<f64>],
        crit: &C,
        params: &CartParams,
        rows: Vec<usize>,
        rng: &mut StdRng,
    ) -> Cart {
        let n_features = columns.len();
        let n_total = rows.len();
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; n_features] };
        tree.grow(columns, &mut Grow { crit, params, n_total, rng }, rows, 0);
        tree.normalise_importances();
        tree
    }

    /// Histogram-mode fit over a prebuilt [`BinnedMatrix`].
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

    /// Recursively grow a histogram-mode subtree; returns its root node
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

    /// Recursively grow a subtree; returns its root node index.
    fn grow<C: Criterion>(
        &mut self,
        columns: &[Vec<f64>],
        g: &mut Grow<'_, C>,
        rows: Vec<usize>,
        depth: usize,
    ) -> usize {
        let (crit, params, n_total) = (g.crit, g.params, g.n_total);
        let n = rows.len();
        let stats = crit.stats(&rows);
        let impurity = crit.impurity(&stats, n);

        let make_leaf =
            depth >= params.max_depth || n < params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            if let Some((feature, threshold, gain, left_rows, right_rows)) =
                best_split(columns, crit, params, &rows, impurity, g.rng)
            {
                self.importances[feature] += gain * n as f64 / n_total as f64;
                let idx = self.nodes.len();
                self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = self.grow(columns, g, left_rows, depth + 1);
                let right = self.grow(columns, g, right_rows, depth + 1);
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[idx] {
                    *l = left;
                    *r = right;
                }
                return idx;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: crit.leaf_value(&stats, n) });
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
/// Fisher–Yates sample of `k`. Shared by both split backends so they
/// consume the per-tree RNG identically.
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

/// Total order on split values: NaN compares equal to NaN and greater
/// than everything else, so every column scan places NaN rows in one
/// deterministic block at the end regardless of input order.
fn split_value_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both finite or infinite"),
    }
}

/// Exhaustive best split over (subsampled) features.
///
/// Returns `(feature, threshold, impurity_decrease, left_rows, right_rows)`.
#[allow(clippy::type_complexity)]
fn best_split<C: Criterion>(
    columns: &[Vec<f64>],
    crit: &C,
    params: &CartParams,
    rows: &[usize],
    parent_impurity: f64,
    rng: &mut StdRng,
) -> Option<(usize, f64, f64, Vec<usize>, Vec<usize>)> {
    let n = rows.len();
    let feature_idx = sample_features(params, columns.len(), rng);

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    let mut sorted = rows.to_vec();
    for &f in &feature_idx {
        let col = &columns[f];
        sorted.sort_by(|&a, &b| split_value_cmp(col[a], col[b]));
        let mut left = crit.stats(&[]);
        let mut right = crit.stats(&sorted);
        for (i, &r) in sorted.iter().enumerate().take(n - 1) {
            crit.add(&mut left, r);
            crit.sub(&mut right, r);
            let n_left = i + 1;
            let n_right = n - n_left;
            let (lo, hi) = (col[sorted[i]], col[sorted[i + 1]]);
            // Can't split between equal values (NaN counts as equal to
            // NaN: the missing block at the end is never split up).
            if lo == hi || (lo.is_nan() && hi.is_nan()) {
                continue;
            }
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let child = (n_left as f64 * crit.impurity(&left, n_left)
                + n_right as f64 * crit.impurity(&right, n_right))
                / n as f64;
            let gain = parent_impurity - child;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                // Between two finite values the threshold is their
                // midpoint; at the finite|missing boundary it is the last
                // finite value itself, which sends every NaN right.
                let threshold = if hi.is_nan() { lo } else { 0.5 * (lo + hi) };
                best = Some((f, threshold, gain));
            }
        }
    }
    best.map(|(feature, threshold, gain)| {
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| columns[feature][r] <= threshold);
        (feature, threshold, gain, left_rows, right_rows)
    })
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

/// Grow a tree with the backend selected by `params.split_method`,
/// building a fresh [`BinnedMatrix`] in histogram mode.
fn fit_cart<C: Criterion>(
    columns: &[Vec<f64>],
    crit: &C,
    params: &CartParams,
    rows: Vec<usize>,
    rng: &mut StdRng,
) -> Cart {
    match params.split_method {
        SplitMethod::Exact => Cart::fit(columns, crit, params, rows, rng),
        SplitMethod::Histogram { max_bins } => {
            let binned = BinnedMatrix::build(columns, max_bins);
            Cart::fit_hist(&binned, crit, params, rows, rng)
        }
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
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = GiniCriterion { y, n_classes };
        let rows: Vec<usize> = (0..y.len()).collect();
        self.tree = Some(fit_cart(columns, &crit, &self.params, rows, &mut rng));
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
        let rows: Vec<usize> = (0..y.len()).collect();
        self.fit_rows(columns, y, rows);
    }

    /// Fit restricted to a row subset (used by bagging and boosting).
    pub fn fit_rows(&mut self, columns: &[Vec<f64>], y: &[f64], rows: Vec<usize>) {
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = VarCriterion { y };
        self.tree = Some(fit_cart(columns, &crit, &self.params, rows, &mut rng));
    }

    /// Histogram-mode fit over a prebuilt [`BinnedMatrix`] — bagging and
    /// boosting bin the training matrix once and share it across trees,
    /// rounds and classes.
    ///
    /// # Panics
    ///
    /// Panics if `self` was built with [`SplitMethod::Exact`]: exact
    /// search needs raw columns, not bins.
    pub fn fit_rows_prebinned(&mut self, binned: &BinnedMatrix, y: &[f64], rows: Vec<usize>) {
        assert!(
            matches!(self.params.split_method, SplitMethod::Histogram { .. }),
            "fit_rows_prebinned requires SplitMethod::Histogram"
        );
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

/// Classification tree with a row subset and bootstrap weighting support,
/// used internally by the random forest.
pub(crate) fn fit_classifier_rows(
    columns: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
    params: &CartParams,
    rows: Vec<usize>,
    seed: u64,
) -> DecisionTreeClassifier {
    let mut rng = fastft_tabular::rngx::rng(seed);
    let crit = GiniCriterion { y, n_classes };
    let tree = fit_cart(columns, &crit, params, rows, &mut rng);
    DecisionTreeClassifier { params: *params, seed, tree: Some(tree), n_classes }
}

/// Histogram-mode classification tree over a prebuilt [`BinnedMatrix`]
/// shared across a forest's trees.
pub(crate) fn fit_classifier_prebinned(
    binned: &BinnedMatrix,
    y: &[usize],
    n_classes: usize,
    params: &CartParams,
    rows: Vec<usize>,
    seed: u64,
) -> DecisionTreeClassifier {
    let mut rng = fastft_tabular::rngx::rng(seed);
    let crit = GiniCriterion { y, n_classes };
    let tree = Cart::fit_hist(binned, &crit, params, rows, &mut rng);
    DecisionTreeClassifier { params: *params, seed, tree: Some(tree), n_classes }
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

    fn exact_params() -> CartParams {
        CartParams { split_method: SplitMethod::Exact, ..CartParams::default() }
    }

    #[test]
    fn exact_split_is_row_order_independent_with_nans() {
        // Regression test: the old exact path compared values with
        // `partial_cmp(..).unwrap_or(Equal)`, so the sort placed NaNs
        // wherever the incoming row order happened to leave them and the
        // fitted tree depended on row *order*, not just the row *set*.
        let x = vec![f64::NAN, 1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0, 5.0, 6.0, 7.0];
        let y = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0];
        let cols = vec![x];
        let params = CartParams { min_samples_leaf: 1, ..exact_params() };

        let mut forward = DecisionTreeRegressor::new(params, 0);
        forward.fit_rows(&cols, &y, (0..y.len()).collect());
        let mut reversed = DecisionTreeRegressor::new(params, 0);
        reversed.fit_rows(&cols, &y, (0..y.len()).rev().collect());

        for probe in [f64::NAN, 0.5, 1.5, 3.5, 4.5, 6.5] {
            let a = forward.predict_row(&[probe]);
            let b = reversed.predict_row(&[probe]);
            assert_eq!(a.to_bits(), b.to_bits(), "probe {probe} differs: {a} vs {b}");
        }
    }

    #[test]
    fn nan_rows_route_right_in_both_modes() {
        // Feature is informative except for NaN rows, which all carry the
        // high label; both backends must learn "missing -> right branch".
        let mut x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        for _ in 0..10 {
            x.push(f64::NAN);
            y.push(1);
        }
        for params in [exact_params(), CartParams::default()] {
            let mut t = DecisionTreeClassifier::new(params, 0);
            t.fit(&[x.clone()], &y, 2);
            assert_eq!(t.predict_row(&[f64::NAN]), 1, "{:?}", params.split_method);
            assert_eq!(t.predict_row(&[3.0]), 0, "{:?}", params.split_method);
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
        // rows — never off-grid probes — are compared).
        let (cols, y) = xor_data(200, 7);
        let mut exact = DecisionTreeClassifier::new(exact_params(), 0);
        exact.fit(&cols, &y, 2);
        let mut hist = DecisionTreeClassifier::new(CartParams::default(), 0);
        hist.fit(&cols, &y, 2);

        assert_eq!(exact.n_nodes(), hist.n_nodes());
        for (i, row) in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]).enumerate() {
            assert_eq!(exact.predict_proba_row(&row), hist.predict_proba_row(&row), "row {i}");
        }
    }

    #[test]
    fn histogram_regressor_learns_step_with_coarse_bins() {
        let cols = vec![(0..2000).map(|i| (i % 500) as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = cols[0].iter().map(|&v| if v < 250.0 { 1.0 } else { 5.0 }).collect();
        let params = CartParams {
            split_method: SplitMethod::Histogram { max_bins: 16 },
            ..CartParams::default()
        };
        let mut t = DecisionTreeRegressor::new(params, 0);
        t.fit(&cols, &y);
        assert!((t.predict_row(&[10.0]) - 1.0).abs() < 0.2);
        assert!((t.predict_row(&[400.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn prebinned_fit_matches_per_tree_binning() {
        let (cols, y_cls) = xor_data(150, 9);
        let y: Vec<f64> = y_cls.iter().map(|&c| c as f64).collect();
        let params = CartParams::default();
        let SplitMethod::Histogram { max_bins } = params.split_method else {
            panic!("default must be histogram")
        };
        let binned = BinnedMatrix::build(&cols, max_bins);

        let mut auto = DecisionTreeRegressor::new(params, 42);
        auto.fit(&cols, &y);
        let mut pre = DecisionTreeRegressor::new(params, 42);
        pre.fit_rows_prebinned(&binned, &y, (0..y.len()).collect());

        for row in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]) {
            assert_eq!(auto.predict_row(&row).to_bits(), pre.predict_row(&row).to_bits());
        }
    }
}
