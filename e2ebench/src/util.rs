//! Shared pieces: quantiles, the run report, the host record, peak memory,
//! and the in-memory span recorder of the traced run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted sample;
/// 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bit-for-bit equality of two matrices (shape and every f32's bits).
pub fn bits_equal(a: &mesorasi_tensor::Matrix, b: &mesorasi_tensor::Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether a metric goes into the untraced (end-to-end) or the traced
/// (per-layer) result.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub kind: Kind,
}

/// Everything one workload run reports: metrics, outcome counts, failed
/// checks, and free-form report lines printed before the result.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::EndToEnd);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples, Kind::Layer);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, kind: Kind) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples, kind });
    }

    /// Records a failed validity check (the run then reports
    /// `"correct": false`).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED [{}]: {msg}", self.workload);
            self.check_failures.push(msg);
        }
    }

    /// A report line, prefixed with the workload name.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("[{}] {}", self.workload, line.as_ref());
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Describes the host and build a result was measured on. Two results are
/// comparable only when every field but `commit` and `source` agrees.
pub struct Host {
    pub nproc: usize,
    pub par_threads: usize,
    pub simd: bool,
    pub rustc: &'static str,
    pub cpu: String,
    pub commit: String,
    pub source: String,
}

impl Host {
    pub fn detect(par_threads: usize) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|| "none".into());
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            par_threads,
            simd: mesorasi_tensor::simd::vector_path_active(),
            rustc: env!("E2EBENCH_RUSTC"),
            cpu,
            commit,
            source: format!("{:016x}", source_fingerprint(root)),
        }
    }

    /// The fields that must agree for two results to be compared.
    pub fn comparable_key(&self) -> String {
        format!(
            "nproc={} par_threads={} simd={} cpu={} rustc={}",
            self.nproc, self.par_threads, self.simd, self.cpu, self.rustc
        )
    }

    pub fn line(&self) -> String {
        format!("host {} commit={} source={}", self.comparable_key(), self.commit, self.source)
    }
}

/// FNV-1a over the paths and contents of the workspace sources the
/// benchmark builds against (`crates/`, the root manifest and lock file),
/// so results from a checkout without git history still name the code
/// they measured.
fn source_fingerprint(root: &Path) -> u64 {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    visit(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let (Ok(rel), Ok(body)) = (f.strip_prefix(root), std::fs::read(f)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&body);
        }
    }
    h
}

/// One traced interval. Spans of one frame or request share `id`;
/// `parent` indexes the span that caused this one.
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// Spans kept in memory for the whole traced run and written out once at
/// its end.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn record(
        &mut self,
        id: u64,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { id, name: name.into(), start, end, parent });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(id, name, parent, start, Instant::now());
        r
    }

    pub fn duration(&self, i: usize) -> Duration {
        self.spans[i].end.saturating_duration_since(self.spans[i].start)
    }

    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.spans.iter().enumerate().filter(move |(_, s)| s.parent == Some(i)).map(|(j, _)| j)
    }

    /// A span's duration minus the part of its interval its children cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let (start, end) = (self.spans[i].start, self.spans[i].end);
        let mut covered: Vec<(Instant, Instant)> = self
            .children(i)
            .map(|j| (self.spans[j].start.max(start), self.spans[j].end.min(end)))
            .filter(|(s, e)| s < e)
            .collect();
        covered.sort();
        let mut total = Duration::ZERO;
        let mut cursor = start;
        for (s, e) in covered {
            let s = s.max(cursor);
            if e > s {
                total += e - s;
                cursor = e;
            }
        }
        self.duration(i).saturating_sub(total)
    }

    /// Summed duration of the children of span `i` named `name`.
    pub fn child_time(&self, i: usize, name: &str) -> Duration {
        self.children(i).filter(|&j| self.spans[j].name == name).map(|j| self.duration(j)).sum()
    }

    /// Writes the spans as JSON lines (times in microseconds from the
    /// recorder's creation).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"id\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \
                 \"end_us\": {:.1}, \"parent\": {parent}}}",
                s.id,
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        std::fs::write(path, out)
    }
}
