//! KNN in arbitrary-dimensional feature space.
//!
//! DGCNN rebuilds its neighbor graph *per module*, searching in the output
//! feature space of the previous module rather than in 3-D coordinates
//! (paper §V-A: "the neighbor search in module i searches in the output
//! feature space of module i−1"). Feature dimensions reach 64–512, where a
//! kd-tree degenerates, so implementations — and our GPU cost model — use a
//! dense pairwise-distance computation. This module provides that search
//! over row-major feature matrices.
//!
//! The dense search runs on the matmul tier and stays exact. Expanding
//! `‖q − p‖² = ‖q‖² + ‖p‖² − 2q·p` turns every query block into a GEMM
//! against the rows packed as panel-major `Pᵀ`
//! ([`mesorasi_tensor::panel::Panels`], walked panel by panel through
//! [`mesorasi_tensor::simd::mm4`]), but its rounding differs from the
//! scalar [`distance_squared`] the ranking is defined by. So the GEMM value only *bounds* each distance, within a
//! rigorous per-pair error `ε`. Rows whose lower bound cannot beat the
//! k-th best upper bound are dropped, and the few survivors (about `k`
//! per query) are rescored with [`distance_squared`] and the shared
//! `(distance, index)` selection. The table is therefore bit-identical to
//! the scalar scan ([`knn_rows_reference`]), which remains the fallback
//! for inputs with no finite bound (NaN/∞ rows, overflowing norms).

use crate::bruteforce::{push_bounded, Candidate};
use crate::kdtree::batch_chunks_into;
use crate::NeighborIndexTable;
use mesorasi_par::ScratchPool;
use mesorasi_tensor::panel::Panels;
use std::ops::Range;
use std::sync::OnceLock;

/// A borrowed row-major `rows × dim` feature matrix.
///
/// # Example
///
/// ```
/// use mesorasi_knn::feature::FeatureView;
///
/// let data = [0.0, 0.0, 1.0, 0.0, 0.0, 3.0];
/// let view = FeatureView::new(&data, 3).expect("2 rows of dim 3");
/// assert_eq!(view.rows(), 2);
/// assert_eq!(view.row(1), &[0.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FeatureView<'a> {
    data: &'a [f32],
    dim: usize,
}

impl<'a> FeatureView<'a> {
    /// Wraps `data` as a matrix with `dim` columns.
    ///
    /// Returns `None` when `data.len()` is not a multiple of `dim` or `dim`
    /// is zero.
    pub fn new(data: &'a [f32], dim: usize) -> Option<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return None;
        }
        Some(FeatureView { data, dim })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Feature dimension (columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn distance_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// KNN over feature rows: for each query row index, the `k` rows nearest in
/// Euclidean distance (the query row itself is included and, at distance 0,
/// comes first). Ties break by row index.
///
/// # Panics
///
/// Panics if `k == 0`, `k > view.rows()`, or a query index is out of range.
pub fn knn_rows(view: FeatureView<'_>, queries: &[usize], k: usize) -> NeighborIndexTable {
    let mut out = NeighborIndexTable::default();
    knn_rows_into(view, queries, k, &mut out, &mut FeatureScratch::default());
    out
}

/// The scalar reference scan: every query against every row with
/// [`distance_squared`] and the bounded `(distance, index)` selection,
/// sequentially. [`knn_rows`] must match it bit for bit; it is also the
/// path [`knn_rows_into`] takes when the bound filter has no finite bound.
///
/// # Panics
///
/// Panics if `k == 0`, `k > view.rows()`, or a query index is out of range.
pub fn knn_rows_reference(
    view: FeatureView<'_>,
    queries: &[usize],
    k: usize,
) -> NeighborIndexTable {
    assert!(k > 0 && k <= view.rows(), "k = {k} out of range for {} rows", view.rows());
    let mut out = NeighborIndexTable::default();
    let (cents, neighs) = out.fill_slots(k, queries.len());
    cents.copy_from_slice(queries);
    let mut best = Vec::with_capacity(k + 1);
    for (&q, slot) in queries.iter().zip(neighs.chunks_exact_mut(k)) {
        scan_query(view, q, k, &mut best, slot);
    }
    out
}

/// Caller-owned storage for [`knn_rows_into`]: the packed candidate matrix
/// `Pᵀ` (`dim × rows` in panel-major order, the `B` operand of the matmul
/// panel walk), the rows' squared norms, and the sequential path's bound
/// tile. Capacity is kept across calls, so a warm caller never allocates.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    packed: Vec<f32>,
    norms: Vec<f32>,
    tile: BoundTile,
}

impl FeatureScratch {
    /// Heap bytes retained (capacity, not length).
    pub fn storage_bytes(&self) -> usize {
        (self.packed.capacity() + self.norms.capacity()) * std::mem::size_of::<f32>()
            + self.tile.storage_bytes()
    }

    /// The candidate buffer, for scalar scans that share this scratch.
    pub(crate) fn candidates(&mut self) -> &mut Vec<Candidate> {
        &mut self.tile.best
    }

    /// Packs `view` as panel-major `Pᵀ` (16-row panels of `view`, each a
    /// contiguous `dim × 16` block; see [`Panels::pack_transposed`]),
    /// fills the row norms, and returns the bound for this call, or `None`
    /// when some row norm is not finite, twice the largest norm leaves no
    /// overflow headroom, or `dim` is too large for the bound — then every
    /// query takes the scalar scan.
    fn pack(&mut self, view: FeatureView<'_>) -> Option<Bound> {
        let (n, dim) = (view.rows(), view.dim());
        self.norms.clear();
        self.norms.extend((0..n).map(|i| view.row(i).iter().map(|x| x * x).sum::<f32>()));
        let max_norm =
            self.norms
                .iter()
                .fold(0.0f32, |m, &v| if v.is_finite() { m.max(v) } else { f32::INFINITY });
        let bound = Bound::for_dim(dim);
        // Every intermediate stays below 4·(‖q‖² + ‖p‖²) ≤ 8·max_norm.
        if !(max_norm * 8.0).is_finite() || !bound.slope.is_finite() {
            return None;
        }
        Panels::pack_transposed(view.data, dim, &mut self.packed);
        Some(bound)
    }
}

/// f32 unit roundoff, `u = 2⁻²⁴`.
const UNIT_ROUNDOFF: f32 = f32::EPSILON / 2.0;

/// The per-pair error bound of the GEMM distance, `ε = slope·s + floor`
/// with `s = fl(‖q‖² + ‖p‖²)`: `|d′ − d_ref| ≤ ε`, where
/// `d′ = fl(s − 2·fl(q·p))` and `d_ref` is [`distance_squared`]'s result.
///
/// Derivation, for `D = dim`, exact `S = ‖q‖² + ‖p‖²`, `d = ‖q − p‖² ≤ 2S`,
/// the standard model `fl(x ∘ y) = (x ∘ y)(1 + δ) + η` with `|δ| ≤ u`,
/// `|η| ≤ η₀ = 2⁻¹⁵⁰` (products only; sums in the subnormal range are
/// exact), `γₙ = nu / (1 − nu)`, and no overflow (checked by the caller):
///
/// 1. `d_ref` sums `D` terms `fl(fl(qᵢ − pᵢ)²)` in order, so
///    `|d_ref − d| ≤ γ_{D+2}·d + D·η₀′ ≤ 2γ_{D+2}·S + D·η₀′`.
/// 2. Each norm is a `D`-term sum of squares in any order, and the
///    micro-kernel's dot product is a `D`-term sum of products, so
///    `|fl(‖x‖²) − ‖x‖²| ≤ γ_D·‖x‖² + D·η₀′` and
///    `|fl(q·p) − q·p| ≤ γ_D·Σ|qᵢpᵢ| + D·η₀′ ≤ γ_D·S/2 + D·η₀′`.
///    Hence `|s − S| ≤ γ_{D+1}·S + 2D·η₀′`.
/// 3. Doubling is exact, and `d′ = (s − 2q·p̂)(1 + δ)` with
///    `|s − 2q·p̂| ≤ 2S(1 + γ_{D+1})`, so
///    `|d′ − d| ≤ 2γ_{D+1}·S + 2u(1 + γ_{D+1})·S + 4D·η₀′`.
/// 4. With `ρ = 1 / (1 − (D + 2)u)`, 1–3 give
///    `|d′ − d_ref| ≤ ρ·(4D + 8)·u·S + 5D·η₀′`.
/// 5. The filter compares `fl(d′ ± ε̂)`; those two roundings cost at most
///    `u·|d′| + u·ε̂ ≤ 2ρ(1 + u)·u·S` more, and `ε̂` itself is computed
///    from `s ≥ S(1 − γ_{D+1})` with two more roundings.
///
/// So any `slope ≥ ρ(4D + 10.01)·u / ((1 − γ_{D+1})(1 − u)³)` and any
/// `floor ≥ 8D·η₀` suffice. For `(D + 2)u ≤ 1/64` the slope
/// `1.25·(4D + 16)·u` clears that with room to spare; past it the slope is
/// infinite and the call takes the scalar scan. The floor
/// `64·D·f32::MIN_POSITIVE` is 2²⁸ times the subnormal error it covers and
/// still far below any distance that can separate two rows in practice.
#[derive(Debug, Clone, Copy)]
struct Bound {
    slope: f32,
    floor: f32,
}

impl Bound {
    fn for_dim(dim: usize) -> Bound {
        let d = dim as f32;
        let slope = if (d + 2.0) * UNIT_ROUNDOFF <= 1.0 / 64.0 {
            1.25 * (4.0 * d + 16.0) * UNIT_ROUNDOFF
        } else {
            f32::INFINITY
        };
        Bound { slope, floor: 64.0 * d * f32::MIN_POSITIVE }
    }

    /// `ε̂` for the rounded norm sum `s`.
    #[inline]
    fn eps(self, s: f32) -> f32 {
        self.slope * s + self.floor
    }
}

/// One participant's working set for a chunk of queries: four queries'
/// rows of `q·p` (then lower bounds), one query's upper bounds, the
/// candidate rows with their bounds for the final cut, and the bounded
/// selection buffer.
#[derive(Debug, Default)]
struct BoundTile {
    dots: Vec<f32>,
    upper: Vec<f32>,
    picks: Vec<f32>,
    candidates: Vec<usize>,
    best: Vec<Candidate>,
}

impl BoundTile {
    fn storage_bytes(&self) -> usize {
        (self.dots.capacity() + self.upper.capacity() + self.picks.capacity())
            * std::mem::size_of::<f32>()
            + self.candidates.capacity() * std::mem::size_of::<usize>()
            + self.best.capacity() * std::mem::size_of::<Candidate>()
    }
}

/// The parallel path's bound tiles, keyed by `mesorasi_par` worker slot
/// like [`crate::candidate_pool`], so a warm search allocates nothing at
/// any thread count.
fn tile_pool() -> &'static ScratchPool<BoundTile> {
    static POOL: OnceLock<ScratchPool<BoundTile>> = OnceLock::new();
    POOL.get_or_init(ScratchPool::new)
}

/// Heap bytes retained by the idle bound tiles.
pub(crate) fn tile_scratch_bytes() -> usize {
    tile_pool().measure_bytes(BoundTile::storage_bytes)
}

/// [`knn_rows`] writing into a caller-owned table, with caller-owned
/// scratch. Returns the number of distance evaluations, counted as every
/// scored pair (`rows × queries`) whichever way a pair is scored.
///
/// The search is exact in two steps. **Bounds:** with `Pᵀ` packed
/// panel-major once per call, the matmul panel walk
/// ([`mesorasi_tensor::panel::Panels::mul_rows`]: four queries at a time,
/// one 16-row panel after another through [`mesorasi_tensor::simd::mm4`])
/// yields every `q·p`, hence `d′ = ‖q‖² + ‖p‖² − 2q·p` and a rigorous error bound `ε` with
/// `|d′ − d_ref| ≤ ε` against the scalar [`distance_squared`] (derived on
/// `Bound`). **Filter and rescore:** with `U` the `k`-th smallest upper
/// bound `d′ + ε`, every row whose lower bound `d′ − ε` is at most `U` is
/// rescored, in ascending index order, with [`distance_squared`] and the
/// bounded `(distance, index)` selection. At least `k` rows have
/// `d_ref ≤ U`, so every true top-`k` row has `d_ref ≤ U`, survives, and
/// is ranked with the reference arithmetic: the table is bit-identical to
/// [`knn_rows_reference`]. When a row norm or the bound is not finite
/// (NaN/∞ input, overflow), every query takes that scalar scan instead.
///
/// # Panics
///
/// Panics if `k == 0`, `k > view.rows()`, or a query index is out of range.
pub fn knn_rows_into(
    view: FeatureView<'_>,
    queries: &[usize],
    k: usize,
    out: &mut NeighborIndexTable,
    scratch: &mut FeatureScratch,
) -> u64 {
    let n = view.rows();
    assert!(k > 0 && k <= n, "k = {k} out of range for {n} rows");
    let bound = scratch.pack(view);
    let FeatureScratch { packed, norms, tile } = scratch;
    let rows = bound.map(|bound| Rows {
        view,
        packed: Panels::from_packed(packed, view.dim(), n),
        norms,
        bound,
    });
    // One multiply-add per (row, column) on the GEMM tier.
    let cost = n * view.dim();
    batch_chunks_into(out, queries, k, cost, tile, tile_pool(), |tile, qs, slots| {
        match rows {
            Some(rows) => rows.search_chunk(qs, k, slots, tile),
            None => {
                for (&q, slot) in qs.iter().zip(slots.chunks_exact_mut(k)) {
                    scan_query(view, q, k, &mut tile.best, slot);
                }
            }
        }
        (n * qs.len()) as u64
    })
}

/// The scalar scan for one query, written into `slot`.
fn scan_query(
    view: FeatureView<'_>,
    q: usize,
    k: usize,
    best: &mut Vec<Candidate>,
    slot: &mut [usize],
) {
    let qrow = view.row(q);
    best.clear();
    for i in 0..view.rows() {
        push_bounded(best, k, Candidate { index: i, dist_sq: distance_squared(qrow, view.row(i)) });
    }
    write_slot(best, slot);
}

fn write_slot(best: &[Candidate], slot: &mut [usize]) {
    for (s, c) in slot.iter_mut().zip(best) {
        *s = c.index;
    }
}

/// The candidate rows of one call, packed for the bound filter.
#[derive(Clone, Copy)]
struct Rows<'a> {
    view: FeatureView<'a>,
    packed: Panels<'a>,
    norms: &'a [f32],
    bound: Bound,
}

impl Rows<'_> {
    /// Answers `qs` into their slots, four queries per panel walk.
    fn search_chunk(self, qs: &[usize], k: usize, slots: &mut [usize], tile: &mut BoundTile) {
        let n = self.view.rows();
        if tile.dots.len() < 4 * n {
            tile.dots.resize(4 * n, 0.0);
        }
        for (qb, sb) in qs.chunks(4).zip(slots.chunks_mut(4 * k)) {
            self.packed.mul_rows(|r| self.view.row(qb[r]), &mut tile.dots[..qb.len() * n]);
            for (r, (&q, slot)) in qb.iter().zip(sb.chunks_exact_mut(k)).enumerate() {
                self.filter_and_rescore(q, k, r * n..(r + 1) * n, tile);
                write_slot(&tile.best, slot);
            }
        }
    }

    /// Bounds query `q` against every row from its dot products (the
    /// `span` of `tile.dots`), then leaves its exact top `k` in
    /// `tile.best`.
    fn filter_and_rescore(self, q: usize, k: usize, span: Range<usize>, tile: &mut BoundTile) {
        let BoundTile { dots, upper, picks, candidates, best } = tile;
        let lower = &mut dots[span];
        let n = lower.len();
        let qn = self.norms[q];
        upper.clear();
        upper.resize(n, 0.0);
        for ((lo, hi), &pn) in lower.iter_mut().zip(upper.iter_mut()).zip(self.norms) {
            let s = qn + pn;
            let d = s - 2.0 * *lo;
            let eps = self.bound.eps(s);
            *lo = d - eps;
            *hi = d + eps;
        }
        // A first cut: split the rows into `4k` interleaved groups and take
        // the k-th smallest group minimum of the upper bounds. k distinct
        // rows lie at or under it, so it is at least the k-th smallest
        // upper bound `U`, and every row that can make the top k has a
        // lower bound under it.
        let groups = 4 * k;
        let first_cut = if groups < n {
            picks.clear();
            picks.extend_from_slice(&upper[..groups]);
            for chunk in upper[groups..].chunks(groups) {
                for (m, &v) in picks.iter_mut().zip(chunk) {
                    *m = if v < *m { v } else { *m };
                }
            }
            *picks.select_nth_unstable_by(k - 1, f32::total_cmp).1
        } else {
            f32::INFINITY
        };
        candidates.clear();
        candidates.extend((0..n).filter(|&i| lower[i] <= first_cut));
        // Every row with an upper bound at or under `U` is a candidate, so
        // the candidates' k-th smallest upper bound is `U` itself.
        picks.clear();
        picks.extend(candidates.iter().map(|&i| upper[i]));
        let cut = *picks.select_nth_unstable_by(k - 1, f32::total_cmp).1;
        candidates.retain(|&i| lower[i] <= cut);
        self.rescore(q, k, candidates, best);
    }

    /// Ranks the surviving rows (ascending index) with the reference
    /// arithmetic: four [`distance_squared`] chains run side by side, each
    /// adding the reference's terms in the reference's order (the terms
    /// are squares, so the sign of the starting zero never shows), and the
    /// bounded selection sees the rows in index order.
    fn rescore(self, q: usize, k: usize, survivors: &[usize], best: &mut Vec<Candidate>) {
        let qrow = self.view.row(q);
        best.clear();
        let mut quads = survivors.chunks_exact(4);
        for quad in &mut quads {
            let rows = [quad[0], quad[1], quad[2], quad[3]].map(|i| self.view.row(i));
            let mut acc = [0.0f32; 4];
            for (c, &x) in qrow.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    let t = x - row[c];
                    *a += t * t;
                }
            }
            for (&index, dist_sq) in quad.iter().zip(acc) {
                push_bounded(best, k, Candidate { index, dist_sq });
            }
        }
        for &index in quads.remainder() {
            let dist_sq = distance_squared(qrow, self.view.row(index));
            push_bounded(best, k, Candidate { index, dist_sq });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_rejects_ragged_data() {
        assert!(FeatureView::new(&[1.0, 2.0, 3.0], 2).is_none());
        assert!(FeatureView::new(&[1.0, 2.0], 0).is_none());
        assert!(FeatureView::new(&[], 4).is_some());
    }

    #[test]
    fn knn_in_feature_space_finds_closest_rows() {
        // Rows: 0 at origin, 1 near origin, 2 far, 3 nearest to 2.
        let data = [
            0.0, 0.0, //
            0.1, 0.0, //
            5.0, 5.0, //
            5.0, 5.1, //
        ];
        let view = FeatureView::new(&data, 2).unwrap();
        let nit = knn_rows(view, &[0, 2], 2);
        assert_eq!(nit.neighbors(0), &[0, 1]);
        assert_eq!(nit.neighbors(1), &[2, 3]);
    }

    #[test]
    fn matches_3d_bruteforce_when_dim_is_3() {
        use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
        let cloud = sample_shape(ShapeClass::Vase, 128, 4);
        let flat = cloud.to_xyz_rows();
        let view = FeatureView::new(&flat, 3).unwrap();
        let queries: Vec<usize> = (0..128).step_by(11).collect();
        let a = knn_rows(view, &queries, 9);
        let b = crate::bruteforce::knn_indices(&cloud, &queries, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn knn_rows_into_matches_allocating_variant() {
        let data: Vec<f32> = (0..600).map(|i| ((i * 37) % 101) as f32 * 0.1).collect();
        let view = FeatureView::new(&data, 6).unwrap();
        let queries: Vec<usize> = (0..100).step_by(7).collect();
        let want = knn_rows(view, &queries, 5);
        let mut got = crate::NeighborIndexTable::default();
        let evals = knn_rows_into(view, &queries, 5, &mut got, &mut FeatureScratch::default());
        assert_eq!(got, want);
        assert!(evals > 0);
    }

    #[test]
    fn self_is_first_neighbor() {
        let data: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let view = FeatureView::new(&data, 4).unwrap();
        let nit = knn_rows(view, &[3, 7], 3);
        assert_eq!(nit.neighbors(0)[0], 3);
        assert_eq!(nit.neighbors(1)[0], 7);
    }

    #[test]
    fn distance_squared_basic() {
        assert_eq!(distance_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance_squared(&[], &[]), 0.0);
    }
}
