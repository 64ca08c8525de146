//! Per-layer replay of a traced frame.
//!
//! The benchmark adds no tracing inside the program. Instead, for a frame
//! whose whole `FrameStream::infer` call was timed as one span, it replays
//! that frame's layer calls through the crates' public functions, each
//! timed as a child span of a `replay` span:
//!
//! - `core.sample`: `runner::select_centroids_into` on the module's real
//!   input positions;
//! - `knn.coord_search` / `knn.feature_knn`: `runner::search_nit_into` on
//!   the module's real positions or feature rows, through a persistent
//!   `SearchContext` with the engine's tile budget;
//! - `tensor.feature`: `ops::matmul_into` at every traced `MatMulOp`
//!   shape of the module;
//! - `tensor.aggregate`: `group::gather_max_into` (fused, Delayed) or
//!   `gather_rows_into` + `subtract_centroid_per_group_into` (Original) at
//!   the traced `AggregateOp` with its real NIT, plus `group_max_into` at
//!   the traced `ReduceOp`.
//!
//! Module inputs come from a tape run of the module chain, and the shapes
//! and NITs from the frame's tape `NetworkTrace`; both are built outside
//! every timed span.

use crate::util::Spans;
use mesorasi_core::module::{Module, NeighborMode};
use mesorasi_core::runner::{self, ModuleState};
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_knn::{NeighborIndexTable, SearchContext};
use mesorasi_nn::Graph;
use mesorasi_pointcloud::PointCloud;
use mesorasi_tensor::{group, ops, Matrix};
use std::collections::HashMap;

/// The real input of one module: positions and feature rows.
pub struct ModuleInput {
    pub positions: PointCloud,
    pub features: Matrix,
}

/// Runs `modules` as a chain on the tape (the way the networks' forward
/// does) and returns each module's input state.
pub fn module_inputs(
    modules: &[Module],
    cloud: &PointCloud,
    strategy: Strategy,
    seed: u64,
) -> Vec<ModuleInput> {
    let mut g = Graph::new();
    let mut state = ModuleState::from_cloud(&mut g, cloud);
    let mut inputs = Vec::with_capacity(modules.len());
    for (i, module) in modules.iter().enumerate() {
        inputs.push(ModuleInput {
            positions: state.positions.clone(),
            features: g.value(state.features).clone(),
        });
        state =
            runner::run_module(&mut g, module, &state, strategy, seed.wrapping_add(i as u64)).state;
    }
    inputs
}

/// A deterministic, non-degenerate fill: matmul and gather times do not
/// depend on values, but all-zero inputs could take shortcuts.
fn filled(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 97) as f32 / 97.0 - 0.5)
}

struct MatMulBufs {
    a: Matrix,
    w: Matrix,
    out: Matrix,
}

struct AggBufs {
    table: Matrix,
    grouped: Matrix,
    centroids: Matrix,
    out: Matrix,
}

/// Replays layer calls. Buffers are kept per (strategy, module, op) and
/// reused across frames, so a warm replay allocates nothing inside spans,
/// like the engine it mirrors.
pub struct Replayer {
    ctx: SearchContext,
    shuffle: Vec<usize>,
    centroids: Vec<usize>,
    nit: NeighborIndexTable,
    matmuls: HashMap<(u8, usize, usize), MatMulBufs>,
    aggs: HashMap<(u8, usize), AggBufs>,
    /// Modules whose replayed NIT differed from the traced one.
    pub nit_mismatches: usize,
    /// Distance evaluations of the last replayed search pass.
    pub last_evals: u64,
}

fn tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Original => 0,
        Strategy::LtdDelayed => 1,
        Strategy::Delayed => 2,
    }
}

impl Replayer {
    pub fn new(tile_budget: usize) -> Replayer {
        let mut ctx = SearchContext::new();
        ctx.set_tile_budget(Some(tile_budget));
        Replayer {
            ctx,
            shuffle: Vec::new(),
            centroids: Vec::new(),
            nit: NeighborIndexTable::default(),
            matmuls: HashMap::new(),
            aggs: HashMap::new(),
            nit_mismatches: 0,
            last_evals: 0,
        }
    }

    /// Replays sampling and search of every searching module (strategy
    /// independent: both strategies derive the same neighbor structure)
    /// as children of span `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_and_search(
        &mut self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        modules: &[Module],
        inputs: &[ModuleInput],
        trace: &NetworkTrace,
        seed: u64,
    ) {
        let evals_before = self.ctx.counters().distance_evals;
        for (i, (module, input)) in modules.iter().zip(inputs).enumerate() {
            let Some(traced) = trace.modules.get(i).and_then(|m| m.aggregate.as_ref()) else {
                continue;
            };
            let cfg = &module.config;
            let (shuffle, centroids) = (&mut self.shuffle, &mut self.centroids);
            spans.time(id, "core.sample", Some(parent), || {
                runner::select_centroids_into(
                    &input.positions,
                    cfg.n_out,
                    seed.wrapping_add(i as u64),
                    shuffle,
                    centroids,
                )
            });
            let name = match cfg.neighbor {
                NeighborMode::FeatureKnn => "knn.feature_knn",
                _ => "knn.coord_search",
            };
            let (ctx, centroids, nit) = (&mut self.ctx, &self.centroids, &mut self.nit);
            spans.time(id, name, Some(parent), || {
                runner::search_nit_into(
                    ctx,
                    i as u64,
                    &input.positions,
                    Some(&input.features),
                    cfg.neighbor,
                    centroids,
                    cfg.k,
                    nit,
                )
            });
            if *nit != traced.nit {
                self.nit_mismatches += 1;
            }
        }
        self.last_evals = self.ctx.counters().distance_evals - evals_before;
    }

    /// Replays the feature computation (every traced matmul) and the
    /// aggregation of each module under the trace's strategy, as children
    /// of span `parent`.
    pub fn feature_and_aggregate(
        &mut self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        trace: &NetworkTrace,
    ) {
        let t = tag(trace.strategy);
        for (i, module) in trace.modules.iter().enumerate() {
            let ops_of_module: Vec<_> = module.mlp_pre.iter().chain(&module.mlp_post).collect();
            for (j, op) in ops_of_module.iter().enumerate() {
                self.matmuls.entry((t, i, j)).or_insert_with(|| MatMulBufs {
                    a: filled(op.rows, op.inner),
                    w: filled(op.inner, op.cols),
                    out: Matrix::zeros(op.rows, op.cols),
                });
            }
            let matmuls = &mut self.matmuls;
            spans.time(id, "tensor.feature", Some(parent), || {
                for j in 0..ops_of_module.len() {
                    let b = matmuls.get_mut(&(t, i, j)).expect("buffers prepared above");
                    ops::matmul_into(&b.a, &b.w, &mut b.out);
                }
            });

            if let Some(agg) = &module.aggregate {
                let bufs = self.aggs.entry((t, i)).or_insert_with(|| AggBufs {
                    table: filled(agg.table_rows, agg.width),
                    grouped: Matrix::zeros(0, 0),
                    centroids: Matrix::zeros(0, 0),
                    out: Matrix::zeros(0, 0),
                });
                let k = agg.nit.k();
                spans.time(id, "tensor.aggregate", Some(parent), || {
                    if agg.fused_reduce {
                        group::gather_max_into(
                            &bufs.table,
                            agg.nit.neighbors_flat(),
                            k,
                            &mut bufs.out,
                        );
                        group::gather_rows_into(
                            &bufs.table,
                            agg.nit.centroids(),
                            &mut bufs.centroids,
                        );
                    } else {
                        group::gather_rows_into(
                            &bufs.table,
                            agg.nit.neighbors_flat(),
                            &mut bufs.grouped,
                        );
                        group::gather_rows_into(
                            &bufs.table,
                            agg.nit.centroids(),
                            &mut bufs.centroids,
                        );
                        group::subtract_centroid_per_group_into(
                            &bufs.grouped,
                            &bufs.centroids,
                            k,
                            &mut bufs.out,
                        );
                    }
                });
            }
            if let Some(reduce) = module.reduce {
                let bufs = self.aggs.entry((t + 8, i)).or_insert_with(|| AggBufs {
                    table: filled(reduce.groups * reduce.k, reduce.width),
                    grouped: Matrix::zeros(0, 0),
                    centroids: Matrix::zeros(0, 0),
                    out: Matrix::zeros(0, 0),
                });
                spans.time(id, "tensor.aggregate", Some(parent), || {
                    group::group_max_into(&bufs.table, reduce.k, &mut bufs.out)
                });
            }
        }
    }
}
