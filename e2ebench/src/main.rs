//! The repository benchmark: end-to-end latency of the Mesorasi inference
//! stack driven through its public entry points, and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <stream-pointnet2|stream-dgcnn|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- compare <old.log> <new.log>
//! ```
//!
//! Workloads (inputs generated from `--seed`; the program sees only the
//! clouds):
//!
//! - `stream-pointnet2`: PointNet++ (c) at paper scale, one closed-loop
//!   stream of distinct 1024-point clouds through `Session::frames`, with
//!   one Original-strategy frame on the same cloud after every fourth
//!   Delayed frame. Most of a frame is feature computation and
//!   aggregation; search is a small share.
//! - `stream-dgcnn`: DGCNN (c) at paper scale, same stream shape (an
//!   Original frame after every eighth Delayed frame). Most of a frame is
//!   feature-space kNN.
//! - `serve-mixed`: open-loop paced traffic to an in-process
//!   `mesorasi-serve` (see `serve.rs`). Takes the NIT-cache path and
//!   exercises batching, admission and queueing.
//!
//! Every run checks every output bit for bit against a reference computed
//! outside the timed window, and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Earlier lines give every metric with its sample count (`metric ...`),
//! the host (`host ...`), and derived report lines. `compare` reads two
//! saved outputs, flags results from differing hosts, and prints each
//! metric's change.
//!
//! Configuration is sealed: the run refuses to start if any `MESORASI_*`
//! variable is set, then pins the `par` pool to `min(2, nproc)` threads
//! for every thread of the process (server dispatchers included) and sets
//! strategy, workers, dispatchers, dtype, tile budget and paging through
//! the builders.

mod replay;
mod serve;
mod stream;
mod util;

use util::{Host, Kind, Report};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Streams / serve-mixed meaning:
/// - `latency_ms_p50`, `latency_ms_p90`: Delayed frame latency /
///   request latency at `nominal`, timed from the due instant (its p90
///   the median over rounds of each round's p90);
/// - `baseline_ms_p50`: Original-strategy frame latency on the same
///   clouds / direct `Session::infer` latency on fresh clouds, no server;
/// - `loaded_ms_p90`: p90 at the workload's heaviest fixed load: the
///   closed loop's one frame in flight (equal to `latency_ms_p90`) /
///   requests at `heavy` (median over rounds of each round's p90);
/// - `capacity_per_s`: Delayed frames per second of the closed loop /
///   the highest ramp rate whose p90 meets the latency limit (`slo_rps`);
/// - `setup_s`: median set-up (session build + plan warm, + server spawn);
/// - `peak_rss_mb`: peak resident memory up to the end of the timed work.
const END_TO_END: [&str; 7] = [
    "latency_ms_p50",
    "latency_ms_p90",
    "baseline_ms_p50",
    "loaded_ms_p90",
    "capacity_per_s",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics of the traced run, with units. A workload whose
/// path does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 32] = [
    ("knn.search_ms_per_frame", "ms"),
    ("knn.distance_evals_per_frame", "count"),
    ("knn.evals_per_neighbor", "ratio"),
    ("knn.index_build_ms_per_frame", "ms"),
    ("knn.feature_knn_ms", "ms"),
    ("knn.coord_search_ms", "ms"),
    ("tensor.feature_ms_per_frame", "ms"),
    ("tensor.feature_ms_per_frame.original", "ms"),
    ("tensor.feature_macs_per_frame", "count"),
    ("tensor.feature_macs_per_frame.original", "count"),
    ("tensor.aggregate_ms_per_frame", "ms"),
    ("tensor.aggregate_ms_per_frame.original", "ms"),
    ("tensor.aggregate_bytes_per_frame", "bytes"),
    ("core.sample_ms_per_frame", "ms"),
    ("core.engine_other_ms_per_frame", "ms"),
    ("core.cache_hit_rate", "ratio"),
    ("core.cache_evictions", "count"),
    ("core.cache_entries", "count"),
    ("core.arena_bytes", "bytes"),
    ("core.search_bytes", "bytes"),
    ("nn.compile_s", "s"),
    ("nn.plans_compiled", "count"),
    ("serve.service_ms_p50.hit", "ms"),
    ("serve.service_ms_p50.miss", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.codec_us", "us"),
    ("bench.gen_late_ms_p90", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["stream-pointnet2", "stream-dgcnn", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Refuses any `MESORASI_*` override, then pins the `par` pool. The pool
/// size is resolved once per process from `MESORASI_THREADS`, which is the
/// one setting that reaches threads the server spawns itself.
fn seal_configuration() -> Result<usize, String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MESORASI_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "the benchmark sets its configuration itself; unset {} and run again",
            set.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    std::env::set_var("MESORASI_THREADS", threads.to_string());
    Ok(threads)
}

fn run_workload(name: &str, args: &Args, threads: usize) -> Result<Report, String> {
    Ok(match name {
        "stream-pointnet2" => {
            stream::run(&stream::POINTNET2, args.seed, args.seconds, args.trace, threads)
        }
        "stream-dgcnn" => stream::run(&stream::DGCNN, args.seed, args.seconds, args.trace, threads),
        _ => serve::run(args.seed, args.seconds, args.trace)?,
    })
}

/// Prints every metric line and returns the result object. A run whose
/// outputs or checks fail still exits 0: `"correct": false` reports it.
fn finish(mut report: Report, trace: bool) -> String {
    if trace {
        let missing: Vec<&str> =
            PER_LAYER.iter().map(|(n, _)| *n).filter(|n| report.value(n).is_none()).collect();
        if !missing.is_empty() {
            report.note(format!(
                "not on this workload's path (reported as 0): {}",
                missing.join(", ")
            ));
        }
        for (name, unit) in PER_LAYER {
            if report.value(name).is_none() {
                report.layer(name, 0.0, unit, 0);
            }
        }
    } else {
        for name in END_TO_END {
            let v = report.value(name);
            report.check(v.is_some_and(|v| v > 0.0), || {
                format!("end-to-end metric {name} is missing or 0")
            });
        }
    }
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let mut fields = Vec::new();
    for m in report.metrics.iter().filter(|m| m.kind == kind) {
        println!("metric {} {} {} {} n={}", report.workload, m.name, m.value, m.unit, m.samples);
        fields
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    let correct = report.failed == 0 && report.check_failures.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    )
}

/// `compare <old> <new>`: flags a host mismatch and prints each metric's
/// change between two saved outputs.
fn compare(old: &str, new: &str) -> Result<i32, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (old, new) = (read(old)?, read(new)?);
    let host = |s: &str| -> String {
        s.lines()
            .find_map(|l| l.strip_prefix("host "))
            .map(|l| l.split(" commit=").next().unwrap_or(l).to_owned())
            .unwrap_or_default()
    };
    let metrics = |s: &str| -> Vec<(String, f64, String)> {
        s.lines()
            .filter_map(|l| l.strip_prefix("metric "))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                Some((
                    format!("{} {}", f.first()?, f.get(1)?),
                    f.get(2)?.parse().ok()?,
                    f.get(3)?.to_string(),
                ))
            })
            .collect()
    };
    let (h_old, h_new) = (host(&old), host(&new));
    if h_old != h_new {
        println!("HOST DIFFERS: results are not comparable\n  old: {h_old}\n  new: {h_new}");
    }
    let new_metrics = metrics(&new);
    for (name, v_old, unit) in metrics(&old) {
        if let Some((_, v_new, _)) = new_metrics.iter().find(|(n, _, _)| *n == name) {
            println!(
                "{name:<60} {v_old:>14.4} -> {v_new:>14.4} {unit:<6} ({:+.2}%)",
                util::ratio(v_new - v_old, v_old) * 100.0
            );
        }
    }
    Ok(if h_old == h_new { 0 } else { 3 })
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [old, new] => compare(old, new),
            _ => Err("usage: compare <old.log> <new.log>".into()),
        };
    }
    let args = parse_args(&argv)?;
    let threads = seal_configuration()?;
    let host = Host::detect(threads);
    println!("{}", host.line());
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    for name in names {
        println!(
            "workload {name} seed {} seconds {} trace {}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let report = run_workload(name, &args, threads)?;
        println!("{}", finish(report, args.trace));
    }
    Ok(0)
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    });
    std::process::exit(code);
}
