//! The stream workloads: one closed-loop stream of distinct paper-scale
//! clouds through `Session::frames`, with an interleaved Original-strategy
//! subset on the same clouds.
//!
//! Order of a run: generate the clouds from the seed; set up both sessions
//! several times (build + `Session::warm`) and keep the median; run a few
//! untimed warm-up frames; time every frame; read peak memory; then,
//! outside every timed window, compute the tape references in parallel,
//! compare every output bit for bit, and (traced run only) replay the
//! layer calls of the Original-subset frames.

use crate::replay::{module_inputs, ModuleInput, Replayer};
use crate::util::{bits_equal, median, ms, peak_rss_mb, quantile, ratio, Report, Spans};
use mesorasi_core::cost;
use mesorasi_core::module::{Module, NeighborMode};
use mesorasi_core::{NetworkTrace, Strategy};
use mesorasi_networks::{dgcnn::Dgcnn, pointnetpp::PointNetPP, DEFAULT_TILE_BUDGET};
use mesorasi_networks::{NetworkKind, PointCloudNetwork, Session, SessionBuilder};
use mesorasi_nn::Graph;
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_pointcloud::{seeded_rng, PointCloud};
use mesorasi_tensor::{Dtype, Matrix};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Weight-initialization seed of every session (fixed: the workload seed
/// varies the inputs, never the model).
pub const INIT_SEED: u64 = 0;
/// Centroid-sampling seed of every session.
pub const SAMPLING_SEED: u64 = 7;
/// Points per cloud (both paper-scale classifiers take 1024).
pub const POINTS: usize = 1024;
/// Untimed frames run on each stream before the measured ones.
const WARMUP_FRAMES: usize = 1;

pub struct StreamSpec {
    pub name: &'static str,
    pub kind: NetworkKind,
    /// Delayed frames per second of `--seconds`: fixes the run's work so
    /// that both sides of a comparison measure the same frames.
    pub frames_per_budget_second: f64,
    /// One Original frame follows every this many Delayed frames (even, so
    /// that the traced run times every Original-subset frame as a span).
    pub original_every: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The network's searching modules, built with the sessions' weights.
    pub modules: fn() -> Vec<Module>,
}

pub const POINTNET2: StreamSpec = StreamSpec {
    name: "stream-pointnet2",
    kind: NetworkKind::PointNetPPClassification,
    frames_per_budget_second: 16.0,
    original_every: 4,
    setup_reps: 5,
    modules: || PointNetPP::classification_paper(&mut seeded_rng(INIT_SEED)).sa_modules().to_vec(),
};

pub const DGCNN: StreamSpec = StreamSpec {
    name: "stream-dgcnn",
    kind: NetworkKind::DgcnnClassification,
    frames_per_budget_second: 5.0,
    original_every: 8,
    setup_reps: 3,
    modules: || Dgcnn::classification_paper(&mut seeded_rng(INIT_SEED)).edge_modules().to_vec(),
};

/// SplitMix64: decorrelates per-item seeds derived from the run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th synthetic cloud of stream `salt` under `seed`: shape classes
/// cycle through all 40, each cloud drawn with its own derived seed.
pub fn cloud(seed: u64, salt: u64, i: usize) -> PointCloud {
    let class = ShapeClass::ALL[(seed as usize).wrapping_add(i) % ShapeClass::ALL.len()];
    sample_shape(class, POINTS, mix(seed ^ salt, i as u64))
}

/// Share of inputs that repeat an earlier input, by content.
pub fn repeat_share(clouds: &[&PointCloud]) -> f64 {
    let distinct: HashSet<u64> = clouds.iter().map(|c| c.content_hash()).collect();
    1.0 - distinct.len() as f64 / clouds.len().max(1) as f64
}

pub fn build_session(kind: NetworkKind, strategy: Strategy, workers: usize) -> Session {
    SessionBuilder::from_kind(kind)
        .paper_scale()
        .init_seed(INIT_SEED)
        .strategy(strategy)
        .seed(SAMPLING_SEED)
        .workers(workers)
        .dtype(Dtype::F32)
        .tile_budget(DEFAULT_TILE_BUDGET)
        .unpaged()
        .build()
}

/// What a tape reference forward yields for one cloud.
pub struct Reference {
    pub logits: Matrix,
    pub trace: NetworkTrace,
}

/// Tape forwards of `clouds` under `strategy`, spread over `threads`
/// threads (each running its kernels single-threaded).
pub fn references(
    net: &dyn PointCloudNetwork,
    clouds: &[&PointCloud],
    strategy: Strategy,
    threads: usize,
) -> Vec<Reference> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Reference>>> = Mutex::new((0..clouds.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                mesorasi_par::with_threads(1, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cloud) = clouds.get(i) else { break };
                    let mut g = Graph::new();
                    let fwd = net.forward(&mut g, cloud, strategy, SAMPLING_SEED);
                    let r = Reference { logits: g.value(fwd.logits).clone(), trace: fwd.trace };
                    out.lock().expect("reference slot lock")[i] = Some(r);
                })
            });
        }
    });
    out.into_inner()
        .expect("reference slot lock")
        .into_iter()
        .map(|r| r.expect("computed"))
        .collect()
}

/// MLP MACs of the searching modules per the closed-form cost model, with
/// each module's input size chained from the previous one's output.
pub fn cost_model_macs(modules: &[Module], strategy: Strategy) -> u64 {
    let mut n_in = POINTS;
    let mut total = 0;
    for m in modules {
        total += cost::mlp_macs(&m.config, strategy, n_in);
        n_in = if matches!(m.config.neighbor, NeighborMode::Global) { 1 } else { m.config.n_out };
    }
    total
}

pub fn run(spec: &StreamSpec, seed: u64, seconds: f64, trace: bool, threads: usize) -> Report {
    let mut report = Report::new(spec.name);
    let n_d = ((seconds * spec.frames_per_budget_second).round() as usize).max(spec.original_every);
    let every = spec.original_every;
    let run_start = Instant::now();
    let clouds: Vec<PointCloud> =
        (0..n_d + WARMUP_FRAMES).map(|i| cloud(seed, 0x5717, i)).collect();
    let (measured, warmup) = clouds.split_at(n_d);

    // Set-up: build + warm both sessions, several times; keep the last.
    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut sessions = None;
    for _ in 0..spec.setup_reps {
        drop(sessions.take());
        let t0 = Instant::now();
        let d = build_session(spec.kind, Strategy::Delayed, 1);
        let w0 = Instant::now();
        d.warm(&warmup[0]);
        let dw = w0.elapsed();
        let o = build_session(spec.kind, Strategy::Original, 1);
        let w1 = Instant::now();
        o.warm(&warmup[0]);
        let ow = w1.elapsed();
        setups.push(t0.elapsed().as_secs_f64());
        compiles.push((dw + ow).as_secs_f64());
        sessions = Some((d, o));
    }
    let (d, o) = sessions.expect("at least one set-up");
    {
        let (mut fd, mut fo) = (d.frames(), o.frames());
        for c in warmup {
            fd.infer(c);
            fo.infer(c);
        }
    }
    let d_search0 = d.search_counters();
    let d_cache0 = d.cache_stats();
    let stream_start = Instant::now();

    // The timed stream. In the traced run, every second frame (including
    // every Original-subset frame) is also recorded as a span.
    let mut spans = Spans::new();
    let mut d_ms = Vec::with_capacity(n_d);
    let mut o_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut d_out = Vec::with_capacity(n_d);
    let mut o_out = Vec::new();
    let mut o_idx = Vec::new();
    let mut frame_span = vec![None; n_d];
    {
        let (mut fd, mut fo) = (d.frames(), o.frames());
        for (i, c) in measured.iter().enumerate() {
            let t0 = Instant::now();
            let out = std::hint::black_box(fd.infer(c));
            let t1 = Instant::now();
            if trace && (i + 1) % 2 == 0 {
                frame_span[i] = Some(spans.record(i as u64, "frame", None, t0, t1));
                traced_ms.push(ms(t1 - t0));
            } else {
                untraced_ms.push(ms(t1 - t0));
            }
            d_ms.push(ms(t1 - t0));
            d_out.push(out);
            if (i + 1) % every == 0 {
                let t0 = Instant::now();
                let out = std::hint::black_box(fo.infer(c));
                let t1 = Instant::now();
                if trace {
                    spans.record(i as u64, "frame.original", None, t0, t1);
                }
                o_ms.push(ms(t1 - t0));
                o_out.push(out);
                o_idx.push(i);
            }
        }
    }
    let peak_rss = peak_rss_mb();
    let search = d.search_counters().since(&d_search0);
    let cache = d.cache_stats();
    let refs_start = Instant::now();

    // Outside the timed window: references and the bit-for-bit check.
    let d_refs =
        references(d.network(), &measured.iter().collect::<Vec<_>>(), Strategy::Delayed, threads);
    let o_clouds: Vec<&PointCloud> = o_idx.iter().map(|&i| &measured[i]).collect();
    let o_refs = references(o.network(), &o_clouds, Strategy::Original, threads);
    let d_wrong =
        d_out.iter().zip(&d_refs).filter(|(a, r)| !bits_equal(a.logits(), &r.logits)).count();
    let o_wrong =
        o_out.iter().zip(&o_refs).filter(|(a, r)| !bits_equal(a.logits(), &r.logits)).count();
    report.note(format!(
        "run time: set-up and warm-up {:.1} s, timed stream {:.1} s, references {:.1} s",
        (stream_start - run_start).as_secs_f64(),
        (refs_start - stream_start).as_secs_f64(),
        refs_start.elapsed().as_secs_f64()
    ));
    report.attempted = (d_out.len() + o_out.len()) as u64;
    report.failed = (d_wrong + o_wrong) as u64;

    let n_o = o_ms.len();
    report.e2e("latency_ms_p50", median(&d_ms), "ms", n_d);
    report.e2e("latency_ms_p90", quantile(&d_ms, 0.9), "ms", n_d);
    report.e2e("baseline_ms_p50", median(&o_ms), "ms", n_o);
    report.e2e("loaded_ms_p90", quantile(&d_ms, 0.9), "ms", n_d);
    report.e2e("capacity_per_s", 1e3 * n_d as f64 / d_ms.iter().sum::<f64>(), "1/s", n_d);
    report.e2e("setup_s", median(&setups), "s", setups.len());
    report.e2e("peak_rss_mb", peak_rss, "MiB", 1);

    let all: Vec<&PointCloud> = measured.iter().collect();
    report.note(format!(
        "frame_ms_p50 {:.3} ms, frame_ms_p90 {:.3} ms (n={n_d}); original_frame_ms_p50 {:.3} ms \
         (n={n_o}); setup_s {:.3} s (n={}); peak_rss_mb {peak_rss:.1}",
        median(&d_ms),
        quantile(&d_ms, 0.9),
        median(&o_ms),
        median(&setups),
        setups.len()
    ));
    let quarters: Vec<String> =
        d_ms.chunks(n_d.div_ceil(4)).map(|q| format!("{:.3}", median(q))).collect();
    report.note(format!("frame_ms_p50 by quarter of the run (host drift): {}", quarters.join(" ")));
    report.note(format!(
        "failed_frac {:.4} ({} wrong Delayed + {} wrong Original of {} frames); repeat share {:.3}",
        ratio(report.failed as f64, report.attempted as f64),
        d_wrong,
        o_wrong,
        report.attempted,
        repeat_share(&all)
    ));

    // The paper's headline: measured Delayed-over-Original speedup on the
    // same clouds, next to the cost model's F-MAC ratio.
    let modules = (spec.modules)();
    let cost_d = cost_model_macs(&modules, Strategy::Delayed);
    let cost_o = cost_model_macs(&modules, Strategy::Original);
    let o_of_d: Vec<f64> = o_idx.iter().map(|&i| d_ms[i]).collect();
    report.note(format!(
        "speedup Delayed over Original {:.3}x (median {:.3} / {:.3} ms over the {n_o} shared \
         clouds); cost-model F-MAC ratio {:.3}x ({cost_o} / {cost_d} MLP MACs in the modules)",
        ratio(median(&o_ms), median(&o_of_d)),
        median(&o_ms),
        median(&o_of_d),
        ratio(cost_o as f64, cost_d as f64)
    ));

    // Exact per-frame counts: shape-determined, so identical on every
    // cloud of this size, and equal to the cost model module by module.
    let macs_d = d_refs[0].trace.mlp_macs();
    let macs_o = o_refs.first().map_or(0, |r| r.trace.mlp_macs());
    let agg_bytes = d_refs[0].trace.aggregation_bytes();
    report.check(d_refs.iter().all(|r| r.trace.mlp_macs() == macs_d), || {
        "Delayed MLP MACs differ between clouds of the same size".into()
    });
    report.check(o_refs.iter().all(|r| r.trace.mlp_macs() == macs_o), || {
        "Original MLP MACs differ between clouds of the same size".into()
    });
    report.check(d_refs.iter().all(|r| r.trace.aggregation_bytes() == agg_bytes), || {
        "aggregation bytes differ between clouds of the same size".into()
    });
    let module_macs = |t: &NetworkTrace| -> u64 {
        t.modules.iter().take(modules.len()).map(|m| m.mlp_macs()).sum()
    };
    let head_d = macs_d - module_macs(&d_refs[0].trace);
    if let Some(o_ref) = o_refs.first() {
        let head_o = macs_o - module_macs(&o_ref.trace);
        report.check(
            module_macs(&d_refs[0].trace) == cost_d && module_macs(&o_ref.trace) == cost_o,
            || "traced module MACs differ from core::cost::mlp_macs".into(),
        );
        // feature_macs / .original == cost-model ratio (heads run the
        // same MACs under both strategies), checked exactly.
        report.check(
            head_d == head_o
                && u128::from(macs_d) * u128::from(cost_o + head_o)
                    == u128::from(macs_o) * u128::from(cost_d + head_d),
            || "tensor.feature_macs_per_frame / .original differs from the cost-model ratio".into(),
        );
    }

    if !trace {
        return report;
    }

    // Traced run: per-layer metrics.
    let frames = n_d as f64;
    let neighbors: u64 = d_refs[0]
        .trace
        .modules
        .iter()
        .filter_map(|m| m.search.as_ref())
        .map(|s| (s.queries * s.k) as u64)
        .sum();
    report.layer(
        "knn.search_ms_per_frame",
        (search.query_ns + search.index_build_ns) as f64 / 1e6 / frames,
        "ms",
        n_d,
    );
    report.layer(
        "knn.distance_evals_per_frame",
        search.distance_evals as f64 / frames,
        "count",
        n_d,
    );
    report.layer(
        "knn.evals_per_neighbor",
        ratio(search.distance_evals as f64 / frames, neighbors as f64),
        "ratio",
        n_d,
    );
    report.layer(
        "knn.index_build_ms_per_frame",
        search.index_build_ns as f64 / 1e6 / frames,
        "ms",
        n_d,
    );
    report.layer("tensor.feature_macs_per_frame", macs_d as f64, "count", n_d);
    report.layer("tensor.feature_macs_per_frame.original", macs_o as f64, "count", n_o);
    report.layer("tensor.aggregate_bytes_per_frame", agg_bytes as f64, "bytes", n_d);
    let lookups = (cache.hits + cache.misses).saturating_sub(d_cache0.hits + d_cache0.misses);
    report.layer(
        "core.cache_hit_rate",
        ratio((cache.hits - d_cache0.hits) as f64, lookups as f64),
        "ratio",
        lookups as usize,
    );
    report.layer("core.cache_evictions", (cache.evictions - d_cache0.evictions) as f64, "count", 1);
    report.layer("core.cache_entries", cache.entries as f64, "count", 1);
    if let Some(stats) = d.arena_stats(POINTS) {
        report.layer("core.arena_bytes", stats.arena.peak_bytes as f64, "bytes", 1);
        report.layer("core.search_bytes", stats.search_bytes as f64, "bytes", 1);
    }
    report.layer("nn.compile_s", median(&compiles), "s", compiles.len());
    report.layer("nn.plans_compiled", (d.compiled_plans() + o.compiled_plans()) as f64, "count", 1);
    report.layer(
        "bench.trace_overhead_frac",
        ratio(median(&traced_ms), median(&untraced_ms)) - 1.0,
        "ratio",
        traced_ms.len(),
    );

    // Replay the Original-subset frames layer by layer.
    let mut replayer = Replayer::new(DEFAULT_TILE_BUDGET);
    let mut per = PerFrame::default();
    let mut evals = Vec::new();
    let inputs_of = |i: usize| -> Vec<ModuleInput> {
        module_inputs(&modules, &measured[i], Strategy::Delayed, SAMPLING_SEED)
    };
    // One untimed pass warms the search context and replay buffers.
    if let (Some(&first), Some(o_ref)) = (o_idx.first(), o_refs.first()) {
        let mut scratch = Spans::new();
        let root = scratch.record(0, "warm", None, Instant::now(), Instant::now());
        let inputs = inputs_of(first);
        replayer.sample_and_search(
            &mut scratch,
            0,
            root,
            &modules,
            &inputs,
            &d_refs[first].trace,
            SAMPLING_SEED,
        );
        replayer.feature_and_aggregate(&mut scratch, 0, root, &d_refs[first].trace);
        replayer.feature_and_aggregate(&mut scratch, 0, root, &o_ref.trace);
    }
    for (&i, o_ref) in o_idx.iter().zip(&o_refs) {
        let id = i as u64;
        let inputs = inputs_of(i);
        let start = Instant::now();
        let root = spans.record(id, "replay", frame_span[i], start, start);
        replayer.sample_and_search(
            &mut spans,
            id,
            root,
            &modules,
            &inputs,
            &d_refs[i].trace,
            SAMPLING_SEED,
        );
        evals.push(replayer.last_evals);
        replayer.feature_and_aggregate(&mut spans, id, root, &d_refs[i].trace);
        spans.spans[root].end = Instant::now();
        let start = Instant::now();
        let root_o = spans.record(id, "replay.original", None, start, start);
        replayer.feature_and_aggregate(&mut spans, id, root_o, &o_ref.trace);
        spans.spans[root_o].end = Instant::now();

        let child = |r: usize, name: &str| ms(spans.child_time(r, name));
        // The part of the replay its layer spans cover; the rest of the
        // replay span is the replay's own bookkeeping.
        let layers = ms(spans.duration(root) - spans.self_time(root));
        per.sample.push(child(root, "core.sample"));
        per.coord.push(child(root, "knn.coord_search"));
        per.feature_knn.push(child(root, "knn.feature_knn"));
        per.feature.push(child(root, "tensor.feature"));
        per.aggregate.push(child(root, "tensor.aggregate"));
        per.feature_o.push(child(root_o, "tensor.feature"));
        per.aggregate_o.push(child(root_o, "tensor.aggregate"));
        let frame = frame_span[i].map_or(d_ms[i], |f| ms(spans.duration(f)));
        per.other.push(frame - layers);
        per.frame.push(frame);
    }
    let n_r = per.frame.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.layer("knn.feature_knn_ms", mean(&per.feature_knn), "ms", n_r);
    report.layer("knn.coord_search_ms", mean(&per.coord), "ms", n_r);
    report.layer("tensor.feature_ms_per_frame", mean(&per.feature), "ms", n_r);
    report.layer("tensor.feature_ms_per_frame.original", mean(&per.feature_o), "ms", n_r);
    report.layer("tensor.aggregate_ms_per_frame", mean(&per.aggregate), "ms", n_r);
    report.layer("tensor.aggregate_ms_per_frame.original", mean(&per.aggregate_o), "ms", n_r);
    report.layer("core.sample_ms_per_frame", mean(&per.sample), "ms", n_r);
    report.layer("core.engine_other_ms_per_frame", mean(&per.other), "ms", n_r);
    report.note(format!(
        "traced frame {:.3} ms = sample {:.3} + coord search {:.3} + feature kNN {:.3} + feature \
         {:.3} + aggregate {:.3} + engine other {:.3} (means over {n_r} replayed frames)",
        mean(&per.frame),
        mean(&per.sample),
        mean(&per.coord),
        mean(&per.feature_knn),
        mean(&per.feature),
        mean(&per.aggregate),
        mean(&per.other)
    ));
    report.check(replayer.nit_mismatches == 0, || {
        format!("{} replayed NITs differ from the tape trace", replayer.nit_mismatches)
    });
    let shape_determined = modules
        .iter()
        .all(|m| matches!(m.config.neighbor, NeighborMode::FeatureKnn | NeighborMode::Global));
    let (lo, hi) =
        (evals.iter().min().copied().unwrap_or(0), evals.iter().max().copied().unwrap_or(0));
    if shape_determined {
        report.check(lo == hi && search.distance_evals == lo * n_d as u64, || {
            format!(
                "brute-force distance evals vary: replay {lo}..{hi}, session {}",
                search.distance_evals
            )
        });
    }
    report.note(format!(
        "replayed distance evals per frame {lo}..{hi} ({})",
        if shape_determined {
            "shape-determined, exact"
        } else {
            "ball/kNN index search, data-dependent"
        }
    ));
    let path = format!(".bench_traces/{}-seed{seed}.jsonl", spec.name);
    if let Err(e) = spans.write(std::path::Path::new(&path)) {
        report.note(format!("could not write spans to {path}: {e}"));
    } else {
        report.note(format!("{} spans written to {path}", spans.spans.len()));
    }
    report
}

#[derive(Default)]
struct PerFrame {
    sample: Vec<f64>,
    coord: Vec<f64>,
    feature_knn: Vec<f64>,
    feature: Vec<f64>,
    aggregate: Vec<f64>,
    feature_o: Vec<f64>,
    aggregate_o: Vec<f64>,
    other: Vec<f64>,
    frame: Vec<f64>,
}
