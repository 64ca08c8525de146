//! Steady-state allocation audit for the inference engine.
//!
//! The whole point of the liveness-planned arena is that once a (plan,
//! sample) pair is warm, a forward pass allocates **nothing**: every
//! intermediate writes into its preassigned slot and the cached bindings
//! are read in place. This binary installs a counting global allocator and
//! asserts exactly that. The counter is process-wide, and libtest runs the
//! tests of one file in parallel on any multi-core host, so every audit
//! holds [`AUDIT`] for its whole body: the audits run one after another,
//! and no other audit's warm-up can land in an armed window.
//!
//! Six audits, in increasing strictness:
//!
//! 1. the original cache-hit audit on [`PlanEngine::run`] — searches are
//!    cached, pure planned tensor execution;
//! 2. the streaming audit on [`PlanEngine::run_streamed`], where the NIT
//!    cache is bypassed, so centroid sampling, **index rebuilds, and
//!    neighbor queries run on every frame** — the search arena must make
//!    them allocation-free too. It runs PointNet++ (coordinate indices)
//!    and DGCNN (feature-space kNN: packed rows, per-worker bound tiles);
//! 3. the f64 shadow audit: the shadow-precision replay is as
//!    allocation-free as the f32 path it shadows;
//! 4. the session-level audit: a warm [`mesorasi::Session`] frame stream
//!    served through `infer_into` (outputs recycled) performs zero heap
//!    allocations end to end;
//! 5. the multi-worker tiled audit: with the pool at 2 threads and a
//!    fixed tile budget, a warm streamed frame still makes zero heap
//!    allocations — job dispatch reuses retired headers and every worker
//!    draws search scratch from its `ScratchPool` slot (both networks);
//! 6. the heap-ceiling audit: once warm, `EngineStats` byte totals
//!    (tensor arena + search arena + parallel scratch: the per-worker
//!    search pools and the per-thread matmul pack buffers) are frozen —
//!    further frames neither grow a slot nor retain new storage (both
//!    networks).

use mesorasi::core::engine::PlanEngine;
use mesorasi::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Held by every audit for its whole body (warm-up included), so armed
/// windows never overlap another audit's work, and the process-wide
/// scratch-pool byte totals the heap-ceiling audit freezes stay put.
static AUDIT: Mutex<()> = Mutex::new(());

/// Takes [`AUDIT`]; a failed audit must not poison the ones after it.
fn audit_lock() -> MutexGuard<'static, ()> {
    AUDIT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations (allocs + reallocs) made by all threads while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    let after = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(false, Ordering::SeqCst);
    after - before
}

/// The streamed networks: PointNet++ rebuilds coordinate indices every
/// frame; DGCNN runs feature-space kNN on the GEMM tier every frame.
const STREAMED: [NetworkKind; 2] =
    [NetworkKind::PointNetPPClassification, NetworkKind::DgcnnClassification];

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_planned_forward_allocates_nothing() {
    // Sequential execution: the pool's job-dispatch machinery is the one
    // part of the stack allowed to allocate, and it is bypassed at 1
    // thread. The per-sample zero-allocation claim is about the engine.
    let _audit = audit_lock();
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let cloud = sample_shape(ShapeClass::Chair, net.input_points(), 4);

        // Warm-up: compile the plan (forward 1) and fill the NIT cache
        // (same forward); run once more to settle any lazy init.
        for _ in 0..2 {
            let _ = engine.run(&cloud, &record);
        }

        let allocs = allocations_during(|| {
            let _ = engine.run(&cloud, &record);
        });
        assert_eq!(allocs, 0, "a warm planned forward must not touch the allocator");
    });
}

#[test]
fn warm_f64_shadow_forward_allocates_nothing() {
    // The shadow-precision tier replays the full plan in f64 after every
    // forward. Its arena, scratch, and rounded outputs are all persistent,
    // so a warm f64-mode forward must be exactly as allocation-free as the
    // f32 path it shadows — the dtype knob may not reintroduce the per-op
    // allocation the planner exists to eliminate.
    let _audit = audit_lock();
    mesorasi_par::with_threads(1, || {
        let mut rng = seeded_rng(6);
        let net = NetworkKind::PointNetPPClassification.build_small(5, &mut rng);
        let mut engine = PlanEngine::new();
        engine.set_dtype(Dtype::F64);
        let record =
            |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
        let cloud = sample_shape(ShapeClass::Chair, net.input_points(), 4);

        // Warm-up: compile the plan and build the shadow (forward 1), fill
        // the NIT cache, and settle any lazy growth in the f64 arena.
        for _ in 0..3 {
            let _ = engine.run(&cloud, &record);
        }

        let allocs = allocations_during(|| {
            let _ = engine.run(&cloud, &record);
        });
        assert_eq!(allocs, 0, "a warm f64 shadow forward must not touch the allocator");
    });
}

#[test]
fn warm_streamed_forward_allocates_nothing_including_search() {
    // The streaming path never caches samples: every frame re-selects
    // centroids, rebuilds per-space indices (forced kd-tree, so real index
    // construction — not just brute-force scans — is under audit), and
    // re-queries; DGCNN's feature-space searches pack their rows and fill
    // bound tiles every frame. All of it must run out of the engine's
    // persistent search arena and the per-worker scratch pools. Sequential
    // execution for the same reason as above.
    let _audit = audit_lock();
    mesorasi_par::with_threads(1, || {
        for kind in STREAMED {
            let mut rng = seeded_rng(6);
            let net = kind.build_small(5, &mut rng);
            let mut engine =
                PlanEngine::with_planner(mesorasi::SearchPlanner::forced(SearchBackend::KdTree));
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            let frames: Vec<PointCloud> =
                (0..4).map(|s| sample_shape(ShapeClass::Chair, net.input_points(), s)).collect();

            // Warm pass: compiles the plan, sizes the stream bindings, and
            // grows every search buffer to this frame population's
            // high-water mark. The streamed replay re-derives everything
            // per frame, so re-running the same frames still exercises the
            // full search path.
            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }

            let allocs = allocations_during(|| {
                for frame in &frames {
                    let _ = engine.run_streamed(frame, &record);
                }
            });
            assert_eq!(allocs, 0, "{kind:?}: a warm streamed forward must not allocate");
            let stats = engine.stats(net.input_points()).expect("compiled");
            assert!(stats.search.distance_evals > 0, "{kind:?}: every frame searches");
            if kind == NetworkKind::PointNetPPClassification {
                assert!(
                    stats.search.index_builds >= 8,
                    "every streamed frame rebuilds its indices"
                );
            }
        }
    });
}

#[test]
fn warm_session_frame_inference_allocates_nothing_end_to_end() {
    // The full serving path: Session → FrameStream::infer_into with a
    // recycled result. Once warm, a frame costs zero heap allocations —
    // engine checkout, per-frame searches, planned execution, and output
    // delivery included.
    let _audit = audit_lock();
    mesorasi_par::with_threads(1, || {
        let session = SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
            .classes(5)
            .workers(1)
            .search_backend(SearchBackend::KdTree)
            .build();
        let n = session.network().input_points();
        let frames: Vec<PointCloud> =
            (0..4).map(|s| sample_shape(ShapeClass::Lamp, n, 40 + s)).collect();

        let mut frame_stream = session.frames();
        let mut out = frame_stream.infer(&frames[0]);
        for frame in &frames {
            frame_stream.infer_into(frame, &mut out);
        }

        let allocs = allocations_during(|| {
            for frame in &frames {
                frame_stream.infer_into(frame, &mut out);
            }
        });
        assert_eq!(allocs, 0, "a warm Session frame must not touch the allocator");
        assert_eq!(out.domain(), Domain::Classification, "results still flow");
    });
}

#[test]
fn warm_tiled_streaming_allocates_nothing_at_two_threads() {
    // The multi-worker bar: at 2 pool threads with a fixed tile budget,
    // tile dispatch rides retired job headers and each participant's
    // kd-rebuild/query scratch and feature-search bound tile come out of
    // its per-worker `ScratchPool` slot — so the warm streamed frame stays
    // at exactly zero heap allocations even though real parallel dispatch
    // is in the loop.
    let _audit = audit_lock();
    mesorasi_par::with_threads(2, || {
        for kind in STREAMED {
            let mut rng = seeded_rng(6);
            let net = kind.build_small(5, &mut rng);
            let mut engine =
                PlanEngine::with_planner(mesorasi::SearchPlanner::forced(SearchBackend::KdTree));
            // A budget well under the frame size, so every frame splits
            // into several tiles and the remainder tile is exercised too.
            engine.set_tile_budget(Some(64));
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            let frames: Vec<PointCloud> = (0..4)
                .map(|s| sample_shape(ShapeClass::Chair, net.input_points(), 60 + s))
                .collect();

            // Warm pass: compiles the plan, sizes stream bindings and
            // every worker's scratch slot, and lets the pool allocate its
            // one-time job headers outside the armed window.
            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }

            let allocs = allocations_during(|| {
                for frame in &frames {
                    let _ = engine.run_streamed(frame, &record);
                }
            });
            assert_eq!(allocs, 0, "{kind:?}: a warm tiled streamed frame must not allocate");
            let stats = engine.stats(net.input_points()).expect("compiled");
            assert_eq!(stats.tile_budget, Some(64), "the tile budget must be live");
        }
    });
}

#[test]
fn warm_tiled_stream_holds_a_hard_heap_ceiling() {
    // The memory-ceiling half of the contract: beyond "no allocator
    // calls", the bytes already *retained* must stop moving once warm.
    // Tensor-arena peak, search-arena retention (packed feature rows
    // included), and the process-wide per-worker scratch pools and
    // per-thread matmul pack buffers (both networks have products of 16
    // rows or more, which pack `B`) are all captured after warm-up and
    // must be bit-for-bit unchanged after further frames — and no arena
    // slot may ever grow past its planned capacity.
    let _audit = audit_lock();
    mesorasi_par::with_threads(2, || {
        for kind in STREAMED {
            let mut rng = seeded_rng(6);
            let net = kind.build_small(5, &mut rng);
            let mut engine =
                PlanEngine::with_planner(mesorasi::SearchPlanner::forced(SearchBackend::KdTree));
            engine.set_tile_budget(Some(64));
            let record =
                |g: &mut Graph, c: &PointCloud| net.session_outputs(g, c, Strategy::Delayed, 7);
            let frames: Vec<PointCloud> = (0..4)
                .map(|s| sample_shape(ShapeClass::Lamp, net.input_points(), 80 + s))
                .collect();

            for frame in &frames {
                let _ = engine.run_streamed(frame, &record);
            }
            let warm = engine.stats(net.input_points()).expect("compiled");
            assert!(warm.arena.peak_bytes > 0, "the arena must retain planned storage");
            assert!(warm.search_bytes > 0, "the search arena must retain storage");

            for _ in 0..3 {
                for frame in &frames {
                    let _ = engine.run_streamed(frame, &record);
                }
            }
            let after = engine.stats(net.input_points()).expect("compiled");

            assert_eq!(after.arena.peak_bytes, warm.arena.peak_bytes, "{kind:?}: arena grew");
            assert_eq!(after.arena.grow_events, warm.arena.grow_events, "{kind:?}: slots grew");
            assert_eq!(after.search_bytes, warm.search_bytes, "{kind:?}: search arena grew");
            assert_eq!(
                after.parallel_scratch_bytes, warm.parallel_scratch_bytes,
                "{kind:?}: per-worker scratch pools grew while warm"
            );
        }
    });
}
