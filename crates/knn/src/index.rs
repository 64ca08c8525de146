//! The pluggable search subsystem: one trait over every backend, plus the
//! [`SearchContext`] that owns reusable index storage.
//!
//! Mesorasi treats neighbor search as a first-class phase — delayed
//! aggregation exists precisely to decouple it from feature computation —
//! so the executors should not hard-code one structure. [`SearchIndex`]
//! makes the build/query split explicit: `build_into` (re)constructs an
//! index over a cloud reusing its storage, and the `*_into` queries write
//! into a caller-owned [`NeighborIndexTable`]. Every implementation is
//! **exact** with identical `(distance, index)` tie-breaking, so backends
//! are interchangeable bit-for-bit and the [`crate::planner::SearchPlanner`]
//! picks purely on predicted cost.
//!
//! [`SearchContext`] adds the arena discipline on top: a small pool of
//! keyed slots, each holding one built index plus a verification copy of
//! its cloud. Within a forward pass, every module searching the same
//! `(cloud, space)` shares one index; across a frame sequence, slots are
//! rebuilt *in place* (capacity reused, contents replaced), so a warm
//! stream performs zero heap allocations in the search phase. The context
//! also meters its traffic ([`SearchCounters`]): index-build vs query time
//! and real distance-evaluation counts.

use crate::bruteforce::{push_bounded, Candidate};
use crate::feature::{self, FeatureScratch, FeatureView};
use crate::grid::UniformGrid;
use crate::kdtree::{batch_into, sort_candidates, KdTree};
use crate::octree::MortonOctree;
use crate::pager::PagerStats;
use crate::planner::{SearchBackend, SearchLoad, SearchPlanner};
use crate::stats::SearchCounters;
use crate::NeighborIndexTable;
use mesorasi_pointcloud::PointCloud;
use std::time::Instant;

/// A neighbor-search index with an explicit build/query split.
///
/// Implementations must be exact and deterministic: for any cloud and
/// query batch, `knn_into` and `ball_into` produce tables bit-identical to
/// [`crate::bruteforce::knn_indices`] / [`crate::ball::ball_query`] — the
/// correctness bar that lets the planner switch backends freely. Queries
/// take `&mut self` so indices can own reusable scratch; they never change
/// query results. Both query methods return the number of pairwise
/// distance evaluations performed (the traffic counters' currency).
pub trait SearchIndex: Send + std::fmt::Debug {
    /// Builds a fresh index over `cloud`.
    fn build(cloud: &PointCloud) -> Self
    where
        Self: Sized + Default,
    {
        let mut index = Self::default();
        index.build_into(cloud);
        index
    }

    /// Rebuilds the index over `cloud`, reusing storage where possible —
    /// same-sized clouds must not grow the backing allocations.
    fn build_into(&mut self, cloud: &PointCloud);

    /// Exact kNN for member-point `queries`, written into `out` (reset to
    /// `queries.len()` entries of `k`, ascending by distance, ties by
    /// index). Returns the distance evaluations performed.
    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64;

    /// Padded radius query (see [`crate::ball::ball_query`] semantics)
    /// written into `out`. Returns the distance evaluations performed.
    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64;

    /// Heap bytes retained by the index (capacity, not length).
    fn storage_bytes(&self) -> usize;

    /// Which planner backend this index implements.
    fn kind(&self) -> SearchBackend;
}

impl SearchIndex for KdTree {
    fn build_into(&mut self, cloud: &PointCloud) {
        KdTree::build_into(self, cloud);
    }

    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        KdTree::knn_into(self, cloud, queries, k, out)
    }

    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        KdTree::ball_into(self, cloud, queries, radius, k, out)
    }

    fn storage_bytes(&self) -> usize {
        KdTree::storage_bytes(self)
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::KdTree
    }
}

impl SearchIndex for UniformGrid {
    /// # Panics
    ///
    /// Panics unless [`UniformGrid::set_cell_size`] was called first — the
    /// grid's resolution is configuration, not derivable from the cloud.
    fn build_into(&mut self, cloud: &PointCloud) {
        UniformGrid::build_into(self, cloud);
    }

    /// The grid cannot answer kNN exactly (a neighborhood may extend past
    /// the scanned cells); the planner never routes kNN here.
    fn knn_into(
        &mut self,
        _cloud: &PointCloud,
        _queries: &[usize],
        _k: usize,
        _out: &mut NeighborIndexTable,
    ) -> u64 {
        panic!("the uniform grid serves radius (ball) queries only; plan kNN on another backend");
    }

    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        UniformGrid::ball_into(self, cloud, queries, radius, k, out)
    }

    fn storage_bytes(&self) -> usize {
        UniformGrid::storage_bytes(self)
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::Grid
    }
}

/// The index-free backend: exhaustive scans, the reference every other
/// backend is tested against and the algorithm whose cost the GPU model
/// charges. `build_into` is a no-op (there is nothing to build), which is
/// exactly why the planner picks it for small workloads.
#[derive(Debug, Default)]
pub struct BruteForceIndex {
    scratch: Vec<Candidate>,
}

impl SearchIndex for BruteForceIndex {
    fn build_into(&mut self, _cloud: &PointCloud) {}

    fn knn_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0 && k <= cloud.len(), "k = {k} out of range for {} points", cloud.len());
        let n = cloud.len();
        batch_into(out, queries, k, n * 8, &mut self.scratch, |best, q, slot| {
            let query = cloud.point(q);
            best.clear();
            for (i, &p) in cloud.points().iter().enumerate() {
                push_bounded(best, k, Candidate { index: i, dist_sq: p.distance_squared(query) });
            }
            for (s, c) in slot.iter_mut().zip(best.iter()) {
                *s = c.index;
            }
            n as u64
        })
    }

    fn ball_into(
        &mut self,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0, "k must be positive");
        assert!(radius >= 0.0, "radius must be non-negative");
        let n = cloud.len();
        let r2 = radius * radius;
        batch_into(out, queries, k, n * 8, &mut self.scratch, |found, q, slot| {
            let query = cloud.point(q);
            found.clear();
            for (i, &p) in cloud.points().iter().enumerate() {
                let d = p.distance_squared(query);
                if d <= r2 {
                    found.push(Candidate { index: i, dist_sq: d });
                }
            }
            sort_candidates(found);
            crate::ball::pad_slot(found, slot);
            n as u64
        })
    }

    fn storage_bytes(&self) -> usize {
        self.scratch.capacity() * std::mem::size_of::<Candidate>()
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::BruteForce
    }
}

/// The feature-space backend: dense search over an owned row-major
/// feature buffer (DGCNN's dynamic-graph search; spatial structures
/// degenerate at feature dimensionality, so brute force is the planner's
/// only choice there). kNN runs through [`feature::knn_rows_into`]: matmul
/// bounds on every pair, then an exact rescore of the rows that can still
/// make the top k, bit-identical to the scalar scan (which non-finite
/// inputs take instead). This backend owns the packed-row and norm storage
/// that search reuses; radius queries stay a scalar scan. As a
/// [`SearchIndex`] over clouds it treats xyz as a 3-wide feature matrix;
/// the engine's feature searches borrow arbitrary rows via
/// [`FeatureBrute::knn_view_into`] instead.
#[derive(Debug, Default)]
pub struct FeatureBrute {
    rows: Vec<f32>,
    dim: usize,
    scratch: FeatureScratch,
}

impl FeatureBrute {
    /// kNN over a borrowed feature matrix, reusing this backend's scratch.
    /// Returns the distance evaluations performed (`rows × queries`).
    pub fn knn_view_into(
        &mut self,
        view: FeatureView<'_>,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        feature::knn_rows_into(view, queries, k, out, &mut self.scratch)
    }
}

impl SearchIndex for FeatureBrute {
    fn build_into(&mut self, cloud: &PointCloud) {
        self.dim = 3;
        self.rows.clear();
        for p in cloud.points() {
            self.rows.extend_from_slice(&p.to_array());
        }
    }

    fn knn_into(
        &mut self,
        _cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        let FeatureBrute { rows, dim, scratch } = self;
        let view = FeatureView::new(rows, *dim).expect("row buffer is rectangular");
        feature::knn_rows_into(view, queries, k, out, scratch)
    }

    fn ball_into(
        &mut self,
        _cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) -> u64 {
        assert!(k > 0, "k must be positive");
        assert!(radius >= 0.0, "radius must be non-negative");
        let FeatureBrute { rows, dim, scratch } = self;
        let view = FeatureView::new(rows, *dim).expect("row buffer is rectangular");
        let n = view.rows();
        let r2 = radius * radius;
        let cost = n * (*dim).max(1) * 3;
        batch_into(out, queries, k, cost, scratch.candidates(), |found, q, slot| {
            let qrow = view.row(q);
            found.clear();
            for i in 0..n {
                let d = feature::distance_squared(qrow, view.row(i));
                if d <= r2 {
                    found.push(Candidate { index: i, dist_sq: d });
                }
            }
            sort_candidates(found);
            crate::ball::pad_slot(found, slot);
            n as u64
        })
    }

    fn storage_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<f32>() + self.scratch.storage_bytes()
    }

    fn kind(&self) -> SearchBackend {
        SearchBackend::BruteForce
    }
}

/// Indices a context keeps per slot (the stateless brute-force backends
/// live outside the slot pool — they have nothing worth caching).
#[derive(Debug)]
enum SlotIndex {
    Kd(KdTree),
    Grid(UniformGrid),
    // Boxed: the octree struct is ~3.5× the next-largest variant, and
    // boxing keeps every pooled slot small when it holds a kd/grid index.
    Octree(Box<MortonOctree>),
}

impl SlotIndex {
    fn storage_bytes(&self) -> usize {
        match self {
            SlotIndex::Kd(t) => t.storage_bytes(),
            SlotIndex::Grid(g) => g.storage_bytes(),
            SlotIndex::Octree(t) => SearchIndex::storage_bytes(&**t),
        }
    }
}

/// One cached index: the key it answers for, a verification copy of the
/// indexed cloud, and the structure itself.
#[derive(Debug)]
struct Slot {
    /// Caller-chosen space id (the engine uses module-state ids, the tape
    /// runner uses cloud content hashes).
    space: u64,
    backend: SearchBackend,
    /// Grid resolution discriminator (`radius.to_bits()`; 0 for kd slots).
    radius_bits: u32,
    /// Bit-exact copy of the indexed cloud: a slot only answers when its
    /// copy matches the query cloud, so stale or colliding keys can never
    /// produce a wrong table — at worst they trigger a rebuild.
    cloud: PointCloud,
    last_use: u64,
    index: SlotIndex,
}

/// Slots a context retains before evicting least-recently-used ones. Large
/// enough for every space a single network forward touches (the deepest
/// network here searches ~6 distinct (cloud, radius) combinations).
const MAX_SLOTS: usize = 16;

/// A planning search front-end with reusable per-space index storage.
///
/// Callers address searches by a `space` id of their choosing; the context
/// plans a backend, (re)builds the index for that space only when the
/// cloud's content changed, and answers into a caller-owned table. See the
/// module docs for the sharing and reuse discipline.
#[derive(Debug)]
pub struct SearchContext {
    planner: SearchPlanner,
    counters: SearchCounters,
    brute: BruteForceIndex,
    feature: FeatureBrute,
    slots: Vec<Slot>,
    clock: u64,
    /// Fixed query-tile budget applied to every batch query through this
    /// context (see [`crate::with_query_tile_budget`]); `None` defers to
    /// the cost model. Never changes results, only chunk boundaries.
    tile_budget: Option<usize>,
    /// LOD level for octree queries (`0` = exact, the default). Applied to
    /// every octree slot at query time; other backends ignore it.
    lod: usize,
    /// Octree leaf-payload residency budget: `None` keeps payloads
    /// resident, `Some(bytes)` pages them through a file-backed LRU.
    /// Results are bit-identical either way.
    pager_budget: Option<usize>,
}

impl Default for SearchContext {
    fn default() -> Self {
        SearchContext::new()
    }
}

impl SearchContext {
    /// A context planning via `MESORASI_SEARCH` / the cost model.
    pub fn new() -> SearchContext {
        SearchContext::with_planner(SearchPlanner::from_env())
    }

    /// A context with an explicit planner (session builder override).
    pub fn with_planner(planner: SearchPlanner) -> SearchContext {
        SearchContext {
            planner,
            counters: SearchCounters::default(),
            brute: BruteForceIndex::default(),
            feature: FeatureBrute::default(),
            slots: Vec::with_capacity(MAX_SLOTS),
            clock: 0,
            tile_budget: None,
            lod: 0,
            pager_budget: crate::pager::budget_from_env(),
        }
    }

    /// The planner deciding this context's backends.
    pub fn planner(&self) -> &SearchPlanner {
        &self.planner
    }

    /// Forces every batch query through fixed-size query tiles of `budget`
    /// points (`None` restores cost-model chunking). Tiling is a
    /// scheduling knob: results stay bit-identical at every budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is `Some(0)`.
    pub fn set_tile_budget(&mut self, budget: Option<usize>) {
        assert!(budget != Some(0), "tile budget must be positive");
        self.tile_budget = budget;
    }

    /// The fixed query-tile budget, if one is set.
    pub fn tile_budget(&self) -> Option<usize> {
        self.tile_budget
    }

    /// Sets the LOD level for octree queries: `0` (the default) answers
    /// exactly; level `ℓ ≥ 1` scans per-node representative subsamples at
    /// depth `ℓ` instead of descending further — approximate, but cheaper
    /// (see [`MortonOctree::set_lod`]). Other backends ignore the knob.
    pub fn set_lod(&mut self, lod: usize) {
        self.lod = lod;
    }

    /// The octree LOD level (see [`SearchContext::set_lod`]).
    pub fn lod(&self) -> usize {
        self.lod
    }

    /// Sets the octree leaf-payload residency budget: `None` (the default,
    /// unless `MESORASI_PAGER_BUDGET` says otherwise) keeps payloads
    /// resident; `Some(bytes)` pages them through a file-backed LRU under
    /// that budget. Results are bit-identical at every budget. Existing
    /// octree slots are dropped so the next query rebuilds onto the new
    /// store.
    pub fn set_pager_budget(&mut self, budget: Option<usize>) {
        if self.pager_budget != budget {
            self.pager_budget = budget;
            self.slots.retain(|s| !matches!(s.index, SlotIndex::Octree(_)));
        }
    }

    /// The octree pager budget (see [`SearchContext::set_pager_budget`]).
    pub fn pager_budget(&self) -> Option<usize> {
        self.pager_budget
    }

    /// Pager traffic counters summed over every octree slot (all-zero when
    /// no octree has answered or payloads are resident).
    pub fn pager_stats(&self) -> PagerStats {
        let mut total = PagerStats::default();
        for s in &self.slots {
            if let SlotIndex::Octree(t) = &s.index {
                total.add(&t.pager_stats());
            }
        }
        total
    }

    /// Traffic counters accumulated since construction.
    pub fn counters(&self) -> SearchCounters {
        self.counters
    }

    /// Heap bytes retained by every cached index, verification cloud, and
    /// scratch buffer — the search half of the engine's arena statistics.
    pub fn storage_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.index.storage_bytes() + s.cloud.storage_bytes()).sum::<usize>()
            + self.brute.storage_bytes()
            + self.feature.storage_bytes()
    }

    /// Exact kNN for `queries` against `cloud`, on the planned backend,
    /// written into `out`. `space` identifies the search space for index
    /// sharing (same space + unchanged cloud ⇒ no rebuild).
    pub fn knn_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        match self.tile_budget {
            Some(b) => crate::with_query_tile_budget(Some(b), || {
                self.knn_into_inner(space, cloud, queries, k, out)
            }),
            None => self.knn_into_inner(space, cloud, queries, k, out),
        }
    }

    fn knn_into_inner(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let load = SearchLoad { n: cloud.len(), queries: queries.len(), k };
        match self.planner.plan_knn(&load) {
            SearchBackend::BruteForce => {
                let start = Instant::now();
                let evals = self.brute.knn_into(cloud, queries, k, out);
                self.note_query(queries.len(), evals, start);
            }
            SearchBackend::KdTree | SearchBackend::Grid => {
                let si = self.ensure_slot(space, SearchBackend::KdTree, 0.0, cloud);
                let start = Instant::now();
                let SlotIndex::Kd(tree) = &mut self.slots[si].index else {
                    unreachable!("kd slots hold kd-trees")
                };
                let evals = tree.knn_into(cloud, queries, k, out);
                self.note_query(queries.len(), evals, start);
            }
            SearchBackend::Octree => {
                let si = self.ensure_slot(space, SearchBackend::Octree, 0.0, cloud);
                let start = Instant::now();
                let SlotIndex::Octree(tree) = &mut self.slots[si].index else {
                    unreachable!("octree slots hold octrees")
                };
                tree.set_lod(self.lod);
                let evals = tree.knn_into(cloud, queries, k, out);
                self.note_query(queries.len(), evals, start);
            }
        }
    }

    /// Padded radius query for `queries` against `cloud`, on the planned
    /// backend, written into `out`.
    pub fn ball_into(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        match self.tile_budget {
            Some(b) => crate::with_query_tile_budget(Some(b), || {
                self.ball_into_inner(space, cloud, queries, radius, k, out)
            }),
            None => self.ball_into_inner(space, cloud, queries, radius, k, out),
        }
    }

    fn ball_into_inner(
        &mut self,
        space: u64,
        cloud: &PointCloud,
        queries: &[usize],
        radius: f32,
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let load = SearchLoad { n: cloud.len(), queries: queries.len(), k };
        match self.planner.plan_ball(&load, radius) {
            SearchBackend::BruteForce => {
                let start = Instant::now();
                let evals = self.brute.ball_into(cloud, queries, radius, k, out);
                self.note_query(queries.len(), evals, start);
            }
            SearchBackend::KdTree => {
                let si = self.ensure_slot(space, SearchBackend::KdTree, 0.0, cloud);
                let start = Instant::now();
                let SlotIndex::Kd(tree) = &mut self.slots[si].index else {
                    unreachable!("kd slots hold kd-trees")
                };
                let evals = tree.ball_into(cloud, queries, radius, k, out);
                self.note_query(queries.len(), evals, start);
            }
            SearchBackend::Grid => {
                let si = self.ensure_slot(space, SearchBackend::Grid, radius, cloud);
                let start = Instant::now();
                let SlotIndex::Grid(grid) = &mut self.slots[si].index else {
                    unreachable!("grid slots hold grids")
                };
                let evals = grid.ball_into(cloud, queries, radius, k, out);
                self.note_query(queries.len(), evals, start);
            }
            SearchBackend::Octree => {
                let si = self.ensure_slot(space, SearchBackend::Octree, 0.0, cloud);
                let start = Instant::now();
                let SlotIndex::Octree(tree) = &mut self.slots[si].index else {
                    unreachable!("octree slots hold octrees")
                };
                tree.set_lod(self.lod);
                let evals = tree.ball_into(cloud, queries, radius, k, out);
                self.note_query(queries.len(), evals, start);
            }
        }
    }

    /// Feature-space kNN over a borrowed row matrix (always the dense
    /// [`FeatureBrute`] search: matmul bounds plus exact rescoring),
    /// written into `out`.
    pub fn feature_knn_into(
        &mut self,
        view: FeatureView<'_>,
        queries: &[usize],
        k: usize,
        out: &mut NeighborIndexTable,
    ) {
        let start = Instant::now();
        let feature = &mut self.feature;
        let evals = match self.tile_budget {
            Some(b) => crate::with_query_tile_budget(Some(b), || {
                feature.knn_view_into(view, queries, k, out)
            }),
            None => feature.knn_view_into(view, queries, k, out),
        };
        self.note_query(queries.len(), evals, start);
    }

    /// A fresh octree on the configured leaf store (resident, or paged
    /// under [`SearchContext::pager_budget`]).
    fn new_octree(&self) -> Box<MortonOctree> {
        Box::new(match self.pager_budget {
            Some(budget) => MortonOctree::paged(budget),
            None => MortonOctree::resident(),
        })
    }

    fn note_query(&mut self, queries: usize, evals: u64, start: Instant) {
        self.counters.query_calls += 1;
        self.counters.queries += queries as u64;
        self.counters.query_ns += start.elapsed().as_nanos() as u64;
        self.counters.distance_evals += evals;
    }

    /// Finds or (re)builds the slot answering `(space, backend, radius)`
    /// for `cloud`, returning its position. Rebuilds happen in place —
    /// verification cloud and index storage reuse their capacity.
    fn ensure_slot(
        &mut self,
        space: u64,
        backend: SearchBackend,
        radius: f32,
        cloud: &PointCloud,
    ) -> usize {
        self.clock += 1;
        let radius_bits = if backend == SearchBackend::Grid { radius.to_bits() } else { 0 };
        let found = self
            .slots
            .iter()
            .position(|s| s.space == space && s.backend == backend && s.radius_bits == radius_bits);
        let si = match found {
            Some(si) => si,
            None if self.slots.len() < MAX_SLOTS => {
                self.slots.push(Slot {
                    space,
                    backend,
                    radius_bits,
                    cloud: PointCloud::new(),
                    last_use: self.clock,
                    index: match backend {
                        SearchBackend::Grid => SlotIndex::Grid(UniformGrid::default()),
                        SearchBackend::Octree => SlotIndex::Octree(self.new_octree()),
                        _ => SlotIndex::Kd(KdTree::default()),
                    },
                });
                self.slots.len() - 1
            }
            None => {
                // Evict the least-recently-used slot and rekey it.
                let si = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_use)
                    .map(|(i, _)| i)
                    .expect("slot pool is non-empty at capacity");
                let slot = &mut self.slots[si];
                slot.space = space;
                slot.backend = backend;
                slot.radius_bits = radius_bits;
                // Force a rebuild below even if the cloud matches: the
                // index answered a different (backend, radius) before.
                slot.cloud = PointCloud::new();
                let matches_backend = matches!(
                    (&slot.index, backend),
                    (SlotIndex::Kd(_), SearchBackend::KdTree | SearchBackend::BruteForce)
                        | (SlotIndex::Grid(_), SearchBackend::Grid)
                        | (SlotIndex::Octree(_), SearchBackend::Octree)
                );
                if !matches_backend {
                    let fresh = match backend {
                        SearchBackend::Grid => SlotIndex::Grid(UniformGrid::default()),
                        SearchBackend::Octree => SlotIndex::Octree(self.new_octree()),
                        _ => SlotIndex::Kd(KdTree::default()),
                    };
                    self.slots[si].index = fresh;
                }
                si
            }
        };
        let slot = &mut self.slots[si];
        slot.last_use = self.clock;
        if !slot.cloud.content_eq(cloud) {
            slot.cloud.copy_from(cloud);
            let start = Instant::now();
            match &mut slot.index {
                SlotIndex::Kd(tree) => tree.build_into(cloud),
                SlotIndex::Grid(grid) => {
                    grid.set_cell_size(radius);
                    grid.build_into(cloud);
                }
                SlotIndex::Octree(tree) => SearchIndex::build_into(&mut **tree, cloud),
            }
            self.counters.index_builds += 1;
            self.counters.index_build_ns += start.elapsed().as_nanos() as u64;
        }
        si
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ball, bruteforce};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn queries(n: usize) -> Vec<usize> {
        (0..n).step_by(3).collect()
    }

    #[test]
    fn every_backend_matches_bruteforce_knn_through_the_trait() {
        let cloud = sample_shape(ShapeClass::Chair, 150, 1);
        let q = queries(150);
        let want = bruteforce::knn_indices(&cloud, &q, 7);
        let mut backends: Vec<Box<dyn SearchIndex>> = vec![
            Box::new(<KdTree as SearchIndex>::build(&cloud)),
            Box::new(<BruteForceIndex as SearchIndex>::build(&cloud)),
            Box::new(<FeatureBrute as SearchIndex>::build(&cloud)),
        ];
        for b in &mut backends {
            let mut got = NeighborIndexTable::default();
            b.knn_into(&cloud, &q, 7, &mut got);
            assert_eq!(got, want, "backend {:?}", b.kind());
        }
    }

    #[test]
    fn context_answers_match_reference_and_share_indices() {
        let cloud = sample_shape(ShapeClass::Lamp, 400, 2);
        let q = queries(400);
        let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
        let mut out = NeighborIndexTable::default();

        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 9));

        ctx.ball_into(1, &cloud, &q, 0.25, 8, &mut out);
        let tree = KdTree::build(&cloud);
        assert_eq!(out, ball::ball_query(&cloud, &tree, &q, 0.25, 8));

        // Re-querying the same (space, cloud) must not rebuild.
        let builds = ctx.counters().index_builds;
        ctx.knn_into(1, &cloud, &q, 9, &mut out);
        ctx.ball_into(1, &cloud, &q, 0.25, 8, &mut out);
        assert_eq!(ctx.counters().index_builds, builds, "warm spaces must not rebuild");
        assert!(ctx.counters().distance_evals > 0);
        assert!(ctx.storage_bytes() > 0);
    }

    #[test]
    fn context_rebuilds_when_cloud_content_changes_under_same_space() {
        let a = sample_shape(ShapeClass::Chair, 300, 3);
        let b = sample_shape(ShapeClass::Sphere, 300, 4);
        let q = queries(300);
        let mut ctx = SearchContext::with_planner(SearchPlanner::forced(SearchBackend::KdTree));
        let mut out = NeighborIndexTable::default();
        ctx.knn_into(7, &a, &q, 5, &mut out);
        let builds = ctx.counters().index_builds;
        // Same space id, different frame contents: must rebuild and answer
        // for the new cloud.
        ctx.knn_into(7, &b, &q, 5, &mut out);
        assert_eq!(ctx.counters().index_builds, builds + 1);
        assert_eq!(out, bruteforce::knn_indices(&b, &q, 5));
        // Steady state: same-sized frames stop growing storage.
        let bytes = ctx.storage_bytes();
        ctx.knn_into(7, &a, &q, 5, &mut out);
        ctx.knn_into(7, &b, &q, 5, &mut out);
        assert_eq!(ctx.storage_bytes(), bytes, "rebuilds must reuse slot storage");
    }

    #[test]
    fn forced_planner_choices_stay_bit_identical() {
        let cloud = sample_shape(ShapeClass::Guitar, 350, 5);
        let q = queries(350);
        let reference = bruteforce::knn_indices(&cloud, &q, 11);
        for backend in [SearchBackend::BruteForce, SearchBackend::KdTree, SearchBackend::Grid] {
            let mut ctx = SearchContext::with_planner(SearchPlanner::forced(backend));
            let mut out = NeighborIndexTable::default();
            ctx.knn_into(0, &cloud, &q, 11, &mut out);
            assert_eq!(out, reference, "forced {backend:?} drifted on kNN");
            let tree = KdTree::build(&cloud);
            let ball_ref = ball::ball_query(&cloud, &tree, &q, 0.3, 6);
            ctx.ball_into(0, &cloud, &q, 0.3, 6, &mut out);
            assert_eq!(out, ball_ref, "forced {backend:?} drifted on ball");
        }
    }

    #[test]
    fn slot_pool_evicts_lru_without_unbounded_growth() {
        let q: Vec<usize> = (0..64).collect();
        let mut ctx = SearchContext::with_planner(SearchPlanner::forced(SearchBackend::KdTree));
        let mut out = NeighborIndexTable::default();
        for space in 0..(MAX_SLOTS as u64 + 9) {
            let cloud = sample_shape(ShapeClass::Cube, 64, space + 1);
            ctx.knn_into(space, &cloud, &q, 4, &mut out);
            assert_eq!(out, bruteforce::knn_indices(&cloud, &q, 4), "space {space}");
        }
        assert!(ctx.slots.len() <= MAX_SLOTS);
    }

    #[test]
    fn tile_budget_on_context_is_bit_identical_across_budgets() {
        let cloud = sample_shape(ShapeClass::Airplane, 500, 6);
        let q: Vec<usize> = (0..500).collect();
        let want_knn = bruteforce::knn_indices(&cloud, &q, 9);
        let tree = KdTree::build(&cloud);
        let want_ball = ball::ball_query(&cloud, &tree, &q, 0.3, 8);
        for budget in [1, 64, 500, 501] {
            let mut ctx = SearchContext::with_planner(SearchPlanner::auto());
            ctx.set_tile_budget(Some(budget));
            assert_eq!(ctx.tile_budget(), Some(budget));
            let mut out = NeighborIndexTable::default();
            ctx.knn_into(3, &cloud, &q, 9, &mut out);
            assert_eq!(out, want_knn, "budget {budget} knn");
            ctx.ball_into(3, &cloud, &q, 0.3, 8, &mut out);
            assert_eq!(out, want_ball, "budget {budget} ball");
        }
    }

    #[test]
    #[should_panic(expected = "tile budget must be positive")]
    fn zero_tile_budget_panics() {
        SearchContext::new().set_tile_budget(Some(0));
    }

    #[test]
    fn feature_search_routes_through_the_context() {
        let data: Vec<f32> = (0..512).map(|i| ((i * 13) % 61) as f32 * 0.2).collect();
        let view = FeatureView::new(&data, 8).unwrap();
        let q: Vec<usize> = (0..64).step_by(5).collect();
        let want = feature::knn_rows(view, &q, 6);
        let mut ctx = SearchContext::new();
        let mut out = NeighborIndexTable::default();
        ctx.feature_knn_into(view, &q, 6, &mut out);
        assert_eq!(out, want);
    }
}
