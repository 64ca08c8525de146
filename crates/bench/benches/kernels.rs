//! Micro-benchmarks of the computational kernels the reproduction is built
//! on: neighbor search, gather/reduce, matmul, and the AU simulator itself.
//! These measure *this implementation's* throughput (not the modeled
//! hardware), so regressions in the substrate show up here.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mesorasi_knn::{ball, bruteforce, feature::FeatureView, kdtree::KdTree};
use mesorasi_pointcloud::sampling::random_indices;
use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};
use mesorasi_pointcloud::{morton, PointCloud};
use mesorasi_sim::au::AuConfig;
use mesorasi_tensor::{group, ops, Matrix};

fn cloud_1k() -> PointCloud {
    sample_shape(ShapeClass::Chair, 1024, 7)
}

fn bench_neighbor_search(c: &mut Criterion) {
    let cloud = cloud_1k();
    let queries = random_indices(&cloud, 512, 1);
    let tree = KdTree::build(&cloud);
    let mut g = c.benchmark_group("neighbor_search");
    g.sample_size(20);
    g.bench_function("bruteforce_knn_512x1024_k32", |b| {
        b.iter(|| bruteforce::knn_indices(black_box(&cloud), &queries, 32))
    });
    g.bench_function("kdtree_build_1024", |b| b.iter(|| KdTree::build(black_box(&cloud))));
    g.bench_function("kdtree_knn_512x1024_k32", |b| {
        b.iter(|| tree.knn_indices(black_box(&cloud), &queries, 32))
    });
    g.bench_function("ball_query_512x1024_k32", |b| {
        b.iter(|| ball::ball_query(black_box(&cloud), &tree, &queries, 0.2, 32))
    });
    let feats = Matrix::from_fn(1024, 64, |r, cix| ((r * 31 + cix * 7) % 17) as f32);
    g.bench_function("feature_knn_1024x1024_d64_k20", |b| {
        b.iter(|| {
            let view = FeatureView::new(feats.as_slice(), 64).expect("rectangular");
            mesorasi_knn::feature::knn_rows(view, black_box(&queries), 20)
        })
    });
    // DGCNN's dynamic-graph search at paper scale: every one of 1024 rows
    // queried against all of them in a 128-dimensional feature space.
    let wide = Matrix::from_fn(1024, 128, |r, cix| ((r * 37 + cix * 11) % 101) as f32 * 0.013);
    let all_rows: Vec<usize> = (0..1024).collect();
    g.bench_function("feature_knn_1024x1024_d128_k20", |b| {
        b.iter(|| {
            let view = FeatureView::new(wide.as_slice(), 128).expect("rectangular");
            mesorasi_knn::feature::knn_rows(view, black_box(&all_rows), 20)
        })
    });
    g.finish();
}

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor");
    g.sample_size(20);
    let a = Matrix::from_fn(1024, 64, |r, cix| ((r + cix) % 13) as f32 * 0.1);
    let w = Matrix::from_fn(64, 128, |r, cix| ((r * cix) % 7) as f32 * 0.01);
    g.bench_function("matmul_1024x64x128", |b| b.iter(|| ops::matmul(black_box(&a), &w)));
    // The two paper-scale products whose B (512×1024, 2 MiB) outgrows L2:
    // DGCNN's fuse layer and PointNet++ SA3's widest MLP layer.
    let w_wide = Matrix::from_fn(512, 1024, |r, cix| ((r * 5 + cix * 3) % 23) as f32 * 0.01);
    for m in [1024, 128] {
        let a_wide = Matrix::from_fn(m, 512, |r, cix| ((r + 2 * cix) % 29) as f32 * 0.03);
        let mut out = Matrix::zeros(0, 0);
        g.bench_function(format!("matmul_{m}x512x1024"), |b| {
            b.iter(|| ops::matmul_into(black_box(&a_wide), &w_wide, &mut out))
        });
    }
    let pft = Matrix::from_fn(1024, 128, |r, cix| ((r * 3 + cix) % 19) as f32);
    let cloud = cloud_1k();
    let centroids = random_indices(&cloud, 512, 1);
    let nit = bruteforce::knn_indices(&cloud, &centroids, 32);
    g.bench_function("gather_rows_512x32x128", |b| {
        b.iter(|| group::gather_rows(black_box(&pft), nit.neighbors_flat()))
    });
    g.bench_function("gather_max_reduce_512x32x128", |b| {
        b.iter(|| group::gather_max_reduce(black_box(&pft), nit.neighbors_flat(), 32))
    });
    g.finish();
}

fn bench_au_and_morton(c: &mut Criterion) {
    let mut g = c.benchmark_group("au_sim");
    g.sample_size(20);
    let (mut codes, mut order) = (Vec::new(), Vec::new());
    let mut cloud = PointCloud::new();
    morton::sort_cloud_into(&cloud_1k(), &mut codes, &mut order, &mut cloud);
    let centroids = random_indices(&cloud, 512, 1);
    let nit = bruteforce::knn_indices(&cloud, &centroids, 32);
    let agg = mesorasi_core::trace::AggregateOp {
        nit,
        table_rows: 1024,
        width: 128,
        rows_per_entry: 33,
        fused_reduce: true,
    };
    let au = AuConfig::default();
    g.bench_function("au_simulate_512x32x128", |b| b.iter(|| au.simulate(black_box(&agg))));
    // Warm-path form: scratch and output reused across iterations, so this
    // measures the sort itself rather than per-call allocation.
    let mut sorted = PointCloud::new();
    g.bench_function("morton_sort_1024", |b| {
        b.iter(|| morton::sort_cloud_into(black_box(&cloud), &mut codes, &mut order, &mut sorted))
    });
    g.finish();
}

criterion_group!(benches, bench_neighbor_search, bench_tensor_kernels, bench_au_and_morton);
criterion_main!(benches);
