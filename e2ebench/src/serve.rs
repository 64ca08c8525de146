//! The `serve-mixed` workload: open-loop paced traffic over one loopback
//! TCP connection to an in-process `mesorasi-serve` server.
//!
//! The server holds a paper-scale PointNet++ (c) session with 2 engines
//! and 2 dispatchers behind a bounded queue. Three of every four requests
//! repeat a small per-run hot set (the NIT-cache path: hits skip search);
//! the fourth, at a seeded position in its block, is a fresh cloud. The
//! run steps through fixed rates (`light`, `nominal`, `heavy`) and then a
//! ramp of rising rates that stops at the first rate missing the latency
//! limit.
//!
//! The generator is one sender (this thread) pacing requests on a fixed
//! schedule and one reader thread stamping each response as it arrives.
//! Latency runs from the instant a request was due, not from when it was
//! sent, so a stall charges every request it delays. `Client` owns both
//! halves of its socket and cannot be split between a paced sender and a
//! blocking reader, so the generator speaks the wire protocol through
//! `protocol::encode` / `read_frame` on the two halves of one `TcpStream`.

use crate::stream::{build_session, cloud, mix, repeat_share, POINTS};
use crate::util::{bits_equal, median, ms, peak_rss_mb, quantile, ratio, Report, Spans};
use mesorasi_core::Strategy;
use mesorasi_knn::stats::SearchCounters;
use mesorasi_networks::{Domain, NetworkKind, Session};
use mesorasi_pointcloud::PointCloud;
use mesorasi_serve::protocol::{decode, encode, read_frame, Frame};
use mesorasi_serve::{ErrorCode, SchedulerConfig, Server, ServerConfig, PROTOCOL_VERSION};
use mesorasi_tensor::Matrix;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const KIND: NetworkKind = NetworkKind::PointNetPPClassification;
const WORKERS: usize = 2;
const DISPATCHERS: usize = 2;
const MAX_BATCH: usize = 8;
/// Bound of the scheduler queue; overflow sheds the oldest request.
const QUEUE_DEPTH: usize = 64;
const HOT_SET: usize = 8;
/// One request in every block of this many is fresh.
const BLOCK: usize = 4;
/// The latency limit on p90 that the ramp holds the server to.
pub const SLO_P90_MS: f64 = 50.0;
const SETUP_REPS: usize = 5;
/// Rounds per run. Each round steps through `light`, `nominal`, `heavy`
/// and the direct probes, and every `RAMP_EVERY`-th round also through
/// the ramp, so that every rate's samples spread over the whole run and
/// slow phases of a shared host weigh on every rate alike.
const ROUNDS: usize = 8;
const RAMP_EVERY: usize = 2;
/// Direct `Session::infer` calls per class for the service-time baseline.
const PROBES: usize = 48;
/// Fixed steps: name, rate (requests/s), requests per run at
/// `--seconds 20` (scaled linearly with `--seconds`).
const FIXED: [(&str, f64, usize); 3] =
    [("light", 15.0, 40), ("nominal", 25.0, 240), ("heavy", 40.0, 240)];
/// Ramp rates above `heavy`; the fixed rates are its first points.
const RAMP: [f64; 6] = [50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
const RAMP_REQUESTS: usize = 100;

enum Outcome {
    Result(Vec<Matrix>),
    Shed,
    Error,
}

struct Request {
    cloud: usize,
    hot: bool,
    due: Instant,
    sent: Instant,
    /// Requests sent but not yet answered when this one was sent.
    in_flight: u64,
    answered: Option<(Instant, Outcome)>,
}

impl Request {
    fn latency_ms(&self) -> f64 {
        match &self.answered {
            Some((at, Outcome::Result(_))) => ms(at.saturating_duration_since(self.due)),
            _ => f64::INFINITY,
        }
    }
}

/// One rate's requests, pooled over its segments (one per round).
struct Step {
    name: String,
    rate: f64,
    requests: Vec<Request>,
    /// `requests[a..b]` of each segment.
    segments: Vec<(usize, usize)>,
    served: u64,
    batches: u64,
    shed: u64,
    busy: Duration,
}

/// p90 with every shed or failed request counted as missing the limit.
fn slo_p90<'r>(requests: impl Iterator<Item = &'r Request>) -> f64 {
    let all: Vec<f64> = requests.map(Request::latency_ms).collect();
    if all.iter().any(|l| !l.is_finite()) {
        let mut sorted = all;
        sorted.sort_by(f64::total_cmp);
        let rank = ((0.9 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        return sorted[rank - 1];
    }
    quantile(&all, 0.9)
}

impl Step {
    fn new(name: &str, rate: f64) -> Step {
        Step {
            name: name.to_owned(),
            rate,
            requests: Vec::new(),
            segments: Vec::new(),
            served: 0,
            batches: 0,
            shed: 0,
            busy: Duration::ZERO,
        }
    }

    fn ok_latencies(&self) -> Vec<f64> {
        self.requests.iter().map(Request::latency_ms).filter(|l| l.is_finite()).collect()
    }

    /// Median over the segments of `p90` of each segment's requests (of
    /// the second half of each with `second_half`): a tail quantile that
    /// a slow phase of a shared host shifts only in the rounds it
    /// overlaps. Every p90 of the step is taken this way.
    fn per_round(&self, second_half: bool, p90: impl Fn(&[Request]) -> f64) -> f64 {
        let values: Vec<f64> = self
            .segments
            .iter()
            .map(|&(a, b)| p90(&self.requests[if second_half { (a + b) / 2 } else { a }..b]))
            // A fully failed segment is infinitely late; keep the median finite.
            .map(|v| v.min(f64::MAX))
            .collect();
        median(&values)
    }

    /// The p90 the latency limit applies to, counting every shed or
    /// failed request as missing it: of all its requests or, if higher,
    /// of the second half of its segments, so that a growing backlog
    /// misses the limit too.
    fn slo_p90(&self) -> f64 {
        let p90 = |r: &[Request]| slo_p90(r.iter());
        self.per_round(false, p90).max(self.per_round(true, p90))
    }

    /// p90 of the served requests.
    fn round_p90(&self) -> f64 {
        self.per_round(false, |r| {
            let lat: Vec<f64> =
                r.iter().map(Request::latency_ms).filter(|l| l.is_finite()).collect();
            quantile(&lat, 0.9)
        })
    }

    fn meets_slo(&self) -> bool {
        self.slo_p90() <= SLO_P90_MS
    }

    fn failed(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| !matches!(r.answered, Some((_, Outcome::Result(_)))))
            .count()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| ms(r.sent.saturating_duration_since(r.due))).collect()
    }
}

/// The cloud pool and the hot/fresh interleave, both drawn from the seed.
struct Traffic {
    clouds: Vec<PointCloud>,
    next_fresh: usize,
    slot: usize,
    seed: u64,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let clouds = (0..HOT_SET).map(|i| cloud(seed, 0x407, i)).collect();
        Traffic { clouds, next_fresh: 0, slot: 0, seed }
    }

    fn fresh(&mut self) -> usize {
        self.clouds.push(cloud(self.seed, 0xf2e5, self.next_fresh));
        self.next_fresh += 1;
        self.clouds.len() - 1
    }

    /// The next request's cloud: one fresh cloud per block of `BLOCK`
    /// at a seeded position, otherwise the hot set in a seeded rotation.
    fn next(&mut self) -> (usize, bool) {
        let block = (self.slot / BLOCK) as u64;
        let fresh_at = (mix(self.seed, block) % BLOCK as u64) as usize;
        let pos = self.slot % BLOCK;
        self.slot += 1;
        if pos == fresh_at {
            (self.fresh(), false)
        } else {
            let hot_slot = (block as usize) * (BLOCK - 1) + pos - usize::from(pos > fresh_at);
            let offset = (self.seed % HOT_SET as u64) as usize;
            ((hot_slot + offset) % HOT_SET, true)
        }
    }
}

fn spawn_server(session: &Arc<Session>) -> Server {
    Server::spawn(
        Arc::clone(session),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig {
                queue_depth: QUEUE_DEPTH,
                max_batch: MAX_BATCH,
                dispatchers: DISPATCHERS,
            },
        },
    )
    .expect("bind a loopback port for the in-process server")
}

/// A response as the reader saw it: request id, arrival, outcome.
type Response = (u64, Instant, Outcome);

/// The generator's connection: the write half stays with the sender, the
/// read half moves to the reader thread.
struct Generator {
    writer: TcpStream,
    want: mpsc::Sender<usize>,
    got: mpsc::Receiver<Result<Vec<Response>, String>>,
    answered: Arc<AtomicU64>,
    reader: std::thread::JoinHandle<()>,
    next_id: u64,
    buf: Vec<u8>,
}

impl Generator {
    fn connect(addr: std::net::SocketAddr) -> Result<Generator, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let mut reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("clone socket: {e}"))?);
        match read_frame(&mut reader).map_err(|e| format!("hello: {e}"))? {
            Frame::Hello { version, domain: Domain::Classification, .. }
                if version == PROTOCOL_VERSION => {}
            _ => return Err("server greeting does not match this client".into()),
        }
        let (want, want_rx) = mpsc::channel::<usize>();
        let (got_tx, got) = mpsc::channel();
        let answered = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&answered);
        let reader = std::thread::spawn(move || {
            for n in want_rx {
                let mut batch = Vec::with_capacity(n);
                let mut failure = None;
                for _ in 0..n {
                    let (id, outcome) = match read_frame(&mut reader) {
                        Ok(Frame::Result { id, mats }) => (id, Outcome::Result(mats)),
                        Ok(Frame::Error { id, code: ErrorCode::Shed, .. }) => (id, Outcome::Shed),
                        Ok(Frame::Error { id, .. }) => (id, Outcome::Error),
                        Ok(_) => {
                            failure = Some("non-response frame".to_owned());
                            break;
                        }
                        Err(e) => {
                            failure = Some(format!("read: {e}"));
                            break;
                        }
                    };
                    batch.push((id, Instant::now(), outcome));
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                let stop = failure.is_some();
                let _ = got_tx.send(failure.map_or(Ok(batch), Err));
                if stop {
                    return;
                }
            }
        });
        Ok(Generator { writer: stream, want, got, answered, reader, next_id: 0, buf: Vec::new() })
    }

    /// Sends one segment of `step` on its schedule and waits for every
    /// response, so the next segment starts with the queue drained.
    fn run_segment(
        &mut self,
        server: &Server,
        traffic: &mut Traffic,
        step: &mut Step,
        count: usize,
    ) -> Result<(), String> {
        let before = server.stats();
        self.want.send(count).map_err(|_| "reader thread exited early".to_owned())?;
        let first_id = self.next_id;
        let first = step.requests.len();
        let start = Instant::now() + Duration::from_millis(2);
        for j in 0..count {
            let (cloud_idx, hot) = traffic.next();
            let due = start + Duration::from_secs_f64(j as f64 / step.rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let id = self.next_id;
            self.next_id += 1;
            self.buf.clear();
            encode(&Frame::Infer { id, cloud: traffic.clouds[cloud_idx].clone() }, &mut self.buf);
            let sent = Instant::now();
            self.writer.write_all(&self.buf).map_err(|e| format!("send: {e}"))?;
            let in_flight = id - self.answered.load(Ordering::Relaxed);
            step.requests.push(Request {
                cloud: cloud_idx,
                hot,
                due,
                sent,
                in_flight,
                answered: None,
            });
        }
        let responses = self.got.recv().map_err(|_| "reader thread exited early".to_owned())??;
        step.busy += start.elapsed();
        for (id, at, outcome) in responses {
            let slot =
                id.checked_sub(first_id).and_then(|i| step.requests.get_mut(first + i as usize));
            match slot {
                Some(r) if r.answered.is_none() => r.answered = Some((at, outcome)),
                _ => return Err(format!("response to unknown or repeated id {id}")),
            }
        }
        let after = server.stats();
        step.segments.push((first, step.requests.len()));
        step.served += after.served - before.served;
        step.batches += after.batches - before.batches;
        step.shed += after.shed - before.shed;
        Ok(())
    }

    fn close(self) {
        drop(self.want);
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let _ = self.reader.join();
    }
}

/// Median time of one `protocol::encode` + `decode` round of an INFER
/// frame of `cloud` and a RESULT frame of `logits`, in microseconds.
fn codec_us(cloud: &PointCloud, logits: &Matrix) -> f64 {
    let infer = Frame::Infer { id: 1, cloud: cloud.clone() };
    let result = Frame::Result { id: 1, mats: vec![logits.clone()] };
    let mut buf = Vec::new();
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            for frame in [&infer, &result] {
                buf.clear();
                encode(std::hint::black_box(frame), &mut buf);
                std::hint::black_box(decode(&buf[4..]).expect("round-trip of a frame we encoded"));
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("serve-mixed");
    let mut spans = Spans::new();
    let scale = seconds / 20.0;
    let segment_len =
        |n: usize, rounds: usize| ((n as f64 * scale / rounds as f64).round() as usize).max(4);
    let mut traffic = Traffic::new(seed);
    let hot = traffic.clouds.clone();
    let probes: Vec<PointCloud> = (0..PROBES).map(|i| cloud(seed, 0x9be, i)).collect();

    // Set-up: session build + plan warm + server spawn, several times.
    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = live.take() {
            Server::shutdown(server);
        }
        let t0 = Instant::now();
        let session = Arc::new(build_session(KIND, Strategy::Delayed, WORKERS));
        let w0 = Instant::now();
        session.warm(&hot[0]);
        compiles.push(w0.elapsed().as_secs_f64());
        let server = spawn_server(&session);
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((session, server));
    }
    let (session, server) = live.expect("at least one set-up");
    // Steady state of a server that has seen its hot set: every engine
    // caches it.
    for c in &hot {
        session.warm(c);
    }

    let search0 = session.search_counters();
    let cache0 = session.cache_stats();
    let mut generator = Generator::connect(server.local_addr())?;
    let mut fixed: Vec<Step> = FIXED.iter().map(|&(name, rate, _)| Step::new(name, rate)).collect();
    let mut ramp: Vec<Step> = RAMP.iter().map(|&r| Step::new(&format!("ramp-{r:.0}"), r)).collect();
    // Direct service times (no server, queue drained): hot clouds hit the
    // NIT cache, fresh probe clouds miss it.
    let (mut service_hit, mut service_miss) = (Vec::new(), Vec::new());
    let mut direct: Vec<(&PointCloud, Matrix, Instant, Instant)> = Vec::new();
    let probes_per_round = PROBES.div_ceil(ROUNDS);
    // The probes' own search and cache traffic, kept out of the served
    // traffic's per-layer counts.
    let mut probe_search = SearchCounters::default();
    let (mut probe_hits, mut probe_misses) = (0, 0);
    for round in 0..ROUNDS {
        for (step, &(_, _, count)) in fixed.iter_mut().zip(&FIXED) {
            generator.run_segment(&server, &mut traffic, step, segment_len(count, ROUNDS))?;
        }
        let (search_before, cache_before) = (session.search_counters(), session.cache_stats());
        for i in round * probes_per_round..((round + 1) * probes_per_round).min(PROBES) {
            for (c, times) in
                [(&hot[i % HOT_SET], &mut service_hit), (&probes[i], &mut service_miss)]
            {
                let t0 = Instant::now();
                let out = std::hint::black_box(session.infer(c));
                let t1 = Instant::now();
                times.push(ms(t1 - t0));
                direct.push((c, out.logits().clone(), t0, t1));
            }
        }
        probe_search.add(&session.search_counters().since(&search_before));
        let cache_after = session.cache_stats();
        probe_hits += cache_after.hits - cache_before.hits;
        probe_misses += cache_after.misses - cache_before.misses;
        if round % RAMP_EVERY == RAMP_EVERY - 1 {
            for step in &mut ramp {
                let count = segment_len(RAMP_REQUESTS, ROUNDS / RAMP_EVERY);
                generator.run_segment(&server, &mut traffic, step, count)?;
            }
        }
    }
    generator.close();
    let peak_rss = peak_rss_mb();
    let search = session.search_counters().since(&search0).since(&probe_search);
    let cache = session.cache_stats();
    let arena = session.arena_stats(POINTS);
    let plans = session.compiled_plans();
    server.shutdown();

    // Outside the timed window: reference `Session::infer` of every cloud
    // on a fresh session, and the bit-for-bit check of every result.
    let reference = build_session(KIND, Strategy::Delayed, WORKERS);
    let batch: Vec<&PointCloud> = traffic.clouds.iter().collect();
    let expected: Vec<Matrix> =
        reference.infer_batch(&batch).into_iter().map(|r| r.logits().clone()).collect();
    let direct_clouds: Vec<&PointCloud> = direct.iter().map(|d| d.0).collect();
    let direct_expected = reference.infer_batch(&direct_clouds);
    let direct_wrong = direct
        .iter()
        .zip(&direct_expected)
        .filter(|((_, got, _, _), want)| !bits_equal(got, want.logits()))
        .count();
    let wrong_in = |step: &Step| -> usize {
        step.requests
            .iter()
            .filter(|r| match &r.answered {
                Some((_, Outcome::Result(mats))) => {
                    mats.len() != 1 || !bits_equal(&mats[0], &expected[r.cloud])
                }
                _ => false,
            })
            .count()
    };
    let fixed_failed: usize = fixed.iter().map(|s| s.failed() + wrong_in(s)).sum();
    let ramp_wrong: usize = ramp.iter().map(&wrong_in).sum();
    let ramp_errors: usize = ramp
        .iter()
        .flat_map(|s| &s.requests)
        .filter(|r| matches!(r.answered, Some((_, Outcome::Error)) | None))
        .count();
    let fixed_sent: usize = fixed.iter().map(|s| s.requests.len()).sum();
    let ramp_sent: usize = ramp.iter().map(|s| s.requests.len()).sum();
    report.attempted = (fixed_sent + ramp_sent + direct.len()) as u64;
    report.failed = (fixed_failed + ramp_wrong + ramp_errors + direct_wrong) as u64;

    for s in fixed.iter().chain(&ramp) {
        let lat = s.ok_latencies();
        report.note(format!(
            "step {:<8} {:>4.0} rps: sent {} ok {} shed {} failed {} wrong {}; p50 {:.3} ms p90 {:.3} ms \
             (pooled over rounds {:.3} ms) (n={}, from due instant); limit p90 {:.3} ms, meets limit {}; \
             batch mean {:.2}; max in flight {}; late p90 {:.3} ms; {} segments, {:.2} s",
            s.name,
            s.rate,
            s.requests.len(),
            s.requests.len() - s.failed(),
            s.shed,
            s.failed() as u64 - s.shed.min(s.failed() as u64),
            wrong_in(s),
            median(&lat),
            s.round_p90(),
            quantile(&lat, 0.9),
            lat.len(),
            s.slo_p90(),
            s.meets_slo(),
            ratio(s.served as f64, s.batches as f64),
            s.requests.iter().map(|r| r.in_flight).max().unwrap_or(0),
            quantile(&s.late_ms(), 0.9),
            s.segments.len(),
            s.busy.as_secs_f64()
        ));
    }

    // slo_rps: the highest rate meeting the limit, refined by linear
    // interpolation of p90 towards the first rate that misses it. Every
    // fixed rate is a point of the curve, so a host too slow for `light`
    // still yields a rate: `light` scaled by how far its p90 overshoots.
    let [light, nominal, heavy] = [&fixed[0], &fixed[1], &fixed[2]];
    let curve: Vec<&Step> = fixed.iter().chain(&ramp).collect();
    let passed = curve.iter().take_while(|s| s.meets_slo()).count();
    let slo_rps = match (passed.checked_sub(1).map(|i| curve[i]), curve.get(passed)) {
        (Some(pass), Some(fail)) => {
            let (p0, p1) = (pass.slo_p90(), fail.slo_p90());
            let frac = if p1.is_finite() && p1 > p0 {
                ((SLO_P90_MS - p0) / (p1 - p0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            pass.rate + (fail.rate - pass.rate) * frac
        }
        (Some(pass), None) => {
            report.note(format!(
                "every rate up to {} rps met the limit; slo_rps is a lower bound",
                pass.rate
            ));
            pass.rate
        }
        (None, _) => {
            report
                .note(format!("even light ({} rps) misses the {SLO_P90_MS} ms limit", light.rate));
            light.rate * (SLO_P90_MS / light.round_p90()).min(1.0)
        }
    };

    let nominal_lat = nominal.ok_latencies();
    let heavy_lat = heavy.ok_latencies();
    report.e2e("latency_ms_p50", median(&nominal_lat), "ms", nominal_lat.len());
    report.e2e("latency_ms_p90", nominal.round_p90(), "ms", nominal_lat.len());
    report.e2e("baseline_ms_p50", median(&service_miss), "ms", service_miss.len());
    report.e2e("loaded_ms_p90", heavy.round_p90(), "ms", heavy_lat.len());
    report.e2e("capacity_per_s", slo_rps, "1/s", curve.len());
    report.e2e("setup_s", median(&setups), "s", setups.len());
    report.e2e("peak_rss_mb", peak_rss, "MiB", 1);
    let fixed_shed: u64 = fixed.iter().map(|s| s.shed).sum();
    let fixed_requests: Vec<&Request> = fixed.iter().flat_map(|s| &s.requests).collect();
    let fixed_clouds: Vec<&PointCloud> =
        fixed_requests.iter().map(|r| &traffic.clouds[r.cloud]).collect();
    report.note(format!(
        "request_ms_p50 {:.3} ms, request_ms_p90 {:.3} ms at nominal (n={}); request_ms_p90.heavy \
         {:.3} ms (n={}) (each p90 a median over {ROUNDS} rounds of the round's p90); slo_rps \
         {slo_rps:.2} (p90 <= {SLO_P90_MS} ms; {passed} of {} rates met it); \
         direct Session::infer p50 {:.3} ms fresh / {:.3} ms hot (n={} each); setup_s {:.3} s (n={}); \
         peak_rss_mb {peak_rss:.1}",
        median(&nominal_lat),
        nominal.round_p90(),
        nominal_lat.len(),
        heavy.round_p90(),
        heavy_lat.len(),
        curve.len(),
        median(&service_miss),
        median(&service_hit),
        service_miss.len(),
        median(&setups),
        setups.len()
    ));
    report.note(format!(
        "failed_frac {:.4} over the fixed-rate steps ({fixed_failed} of {fixed_sent}: {fixed_shed} \
         shed); {ramp_wrong} wrong and {ramp_errors} errored ramp results; {direct_wrong} wrong direct \
         results; repeat share {:.3} by content, {:.3} of requests from the hot set",
        ratio(fixed_failed as f64, fixed_sent as f64),
        repeat_share(&fixed_clouds),
        ratio(fixed_requests.iter().filter(|r| r.hot).count() as f64, fixed_requests.len() as f64)
    ));
    let late: Vec<f64> = fixed.iter().flat_map(|s| s.late_ms()).collect();
    let hits = cache.hits - cache0.hits - probe_hits;
    let misses = cache.misses - cache0.misses - probe_misses;
    let lookups = hits + misses;
    report.note(format!(
        "core.cache_hit_rate {:.4} over all served traffic ({lookups} lookups); generator late p90 {:.3} ms",
        ratio(hits as f64, lookups as f64),
        quantile(&late, 0.9)
    ));
    report.check(light.shed + nominal.shed + heavy.shed == 0, || {
        format!("{fixed_shed} requests shed at a fixed rate below the shedding point")
    });

    if !trace {
        return Ok(report);
    }

    let served = (fixed_sent + ramp_sent) as f64;
    let searched = misses as f64;
    let probe = crate::stream::references(session.network(), &[&probes[0]], Strategy::Delayed, 1);
    let neighbors: f64 = probe[0]
        .trace
        .modules
        .iter()
        .filter_map(|m| m.search.as_ref())
        .map(|s| (s.queries * s.k) as f64)
        .sum();
    let n = served as usize;
    report.layer(
        "knn.search_ms_per_frame",
        (search.query_ns + search.index_build_ns) as f64 / 1e6 / served,
        "ms",
        n,
    );
    report.layer("knn.distance_evals_per_frame", search.distance_evals as f64 / served, "count", n);
    report.layer(
        "knn.evals_per_neighbor",
        ratio(search.distance_evals as f64, searched * neighbors),
        "ratio",
        searched as usize,
    );
    report.layer(
        "knn.index_build_ms_per_frame",
        search.index_build_ns as f64 / 1e6 / served,
        "ms",
        n,
    );
    report.layer(
        "core.cache_hit_rate",
        ratio(hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
    );
    report.layer("core.cache_evictions", (cache.evictions - cache0.evictions) as f64, "count", 1);
    report.layer("core.cache_entries", cache.entries as f64, "count", 1);
    if let Some(stats) = arena {
        report.layer("core.arena_bytes", stats.arena.peak_bytes as f64, "bytes", 1);
        report.layer("core.search_bytes", stats.search_bytes as f64, "bytes", 1);
    }
    report.layer("nn.compile_s", median(&compiles), "s", compiles.len());
    report.layer("nn.plans_compiled", plans as f64, "count", 1);
    let (hit_ms, miss_ms) = (median(&service_hit), median(&service_miss));
    report.layer("serve.service_ms_p50.hit", hit_ms, "ms", service_hit.len());
    report.layer("serve.service_ms_p50.miss", miss_ms, "ms", service_miss.len());
    let overhead: Vec<f64> = nominal
        .requests
        .iter()
        .map(|r| r.latency_ms() - if r.hot { hit_ms } else { miss_ms })
        .filter(|v| v.is_finite())
        .collect();
    report.layer("serve.overhead_ms_p50", median(&overhead), "ms", overhead.len());
    report.layer("serve.overhead_ms_p90", quantile(&overhead, 0.9), "ms", overhead.len());
    report.layer(
        "serve.batch_size_mean",
        ratio(heavy.served as f64, heavy.batches as f64),
        "count",
        heavy.batches as usize,
    );
    let depth = heavy.requests.iter().map(|r| r.in_flight).max().unwrap_or(0);
    report.layer("serve.queue_depth_max", depth as f64, "count", heavy.requests.len());
    report.layer("serve.shed", fixed_shed as f64, "count", fixed_sent);
    report.layer("serve.codec_us", codec_us(&probes[0], &probe[0].logits), "us", 200);
    report.layer("bench.gen_late_ms_p90", quantile(&late, 0.9), "ms", late.len());
    report.note(
        "serve.queue_depth_max is the most requests in flight (queued or in service) seen by the \
         sender at heavy: Server::stats reads the queue only after locking every engine",
    );

    for (i, r) in fixed.iter().chain(&ramp).flat_map(|s| &s.requests).enumerate() {
        let id = i as u64;
        let end = r.answered.as_ref().map_or(r.sent, |(at, _)| *at);
        let root = spans.record(id, "request", None, r.due, end);
        spans.record(id, "generator.late", Some(root), r.due, r.sent);
        spans.record(id, "server", Some(root), r.sent, end);
    }
    for (i, (c, _, t0, t1)) in direct.iter().enumerate() {
        let name =
            if hot.iter().any(|h| std::ptr::eq(h, *c)) { "service.hit" } else { "service.miss" };
        spans.record(i as u64, name, None, *t0, *t1);
    }
    let path = format!(".bench_traces/serve-mixed-seed{seed}.jsonl");
    match spans.write(std::path::Path::new(&path)) {
        Ok(()) => report.note(format!("{} spans written to {path}", spans.spans.len())),
        Err(e) => report.note(format!("could not write spans to {path}: {e}")),
    }
    Ok(report)
}
