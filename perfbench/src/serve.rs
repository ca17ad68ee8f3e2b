//! The `serve_admission` workload: a seeded admission-request stream,
//! answered by the real unix-socket server under an open loop.
//!
//! The stream mixes three request classes over a small hot set of task
//! sets: repeats (admission-cache hits), fixed-period goal flips on a hot
//! set (a new decision over a cached analysis context) and novel task
//! sets (the cold path through partition, context build and design).
//! Every response is checked byte for byte against the answer of a
//! cache-disabled engine, computed during set-up.
//!
//! The mix is a synthetic assumption, not measured traffic: nothing in
//! the repository records how admission requests arrive. The constants
//! below are chosen so that every class is sampled densely enough for its
//! own percentiles, and the latency metrics are taken per class (hits for
//! p50, novel task sets for the tail), so another mix moves throughput
//! but not what the latency metrics measure.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftsched_analysis::Algorithm;
use ftsched_design::partitioner::{partition_system, PartitionHeuristic};
use ftsched_design::region::{max_feasible_period_with, RegionConfig};
use ftsched_design::{DesignGoal, DesignProblem};
use ftsched_serve::{
    read_frame, serve_stream, write_frame, AdmissionEngine, AdmissionRequest, AdmissionResponse,
    EngineConfig, TaskRequest, Verdict, DEFAULT_MAX_FRAME_BYTES,
};
use ftsched_task::generator::generate_taskset;
use ftsched_task::{Task, TaskSet};

use crate::campaign::peak_rss_mb;
use crate::metrics::RunResult;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{generator_config, mix_seed};

/// Task sets in the hot set: a few dozen, so that the admission cache
/// holds them all and repeats are hits (assumed). They are drawn like
/// the novel task sets.
const HOT_SETS: usize = 24;
/// Share of novel task sets (cold path) in the stream (assumed): 900 per
/// repetition, so their p95 has 45 samples beyond it.
const COLD_SHARE: f64 = 0.15;
/// Share of goal flips on hot task sets (assumed).
const FLIP_SHARE: f64 = 0.1;
/// Offered rate of the traced run's open-loop windows, requests per
/// second.
const FIXED_RATE: f64 = 1_000.0;
/// Share of `--seconds` the traced run's open-loop windows take, and
/// how many there are, each on a fresh server.
const FIXED_SHARE: f64 = 0.5;
const FIXED_WINDOWS: usize = 15;
/// Requests every untraced repetition decides.
const STREAM_LEN: usize = 6_000;
/// Requests decided per replay batch (the `ftsched serve --replay`
/// default).
const REPLAY_BATCH: usize = 32;
/// Repetitions an untraced run makes at least.
const MIN_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Flip,
    Cold,
}

/// One generated request, its wire frame and the expected response.
pub struct Item {
    pub class: Class,
    pub request: AdmissionRequest,
    pub frame: Vec<u8>,
    pub expected: Vec<u8>,
}

/// The seeded request stream and the hot set it draws from.
pub struct Stream {
    pub hot: Vec<Item>,
    pub items: Vec<Item>,
}

fn to_request(id: u64, tasks: &TaskSet, algorithm: Algorithm, overhead: f64) -> AdmissionRequest {
    AdmissionRequest {
        id,
        tasks: tasks
            .iter()
            .map(|t| TaskRequest {
                id: t.id.0,
                wcet: t.wcet,
                period: t.period,
                deadline: t.deadline,
                mode: t.mode,
            })
            .collect(),
        algorithm,
        goal: DesignGoal::MinimizeOverheadBandwidth,
        total_overhead: overhead,
        heuristic: PartitionHeuristic::WorstFitDecreasing,
    }
}

/// Fractional part of the golden ratio: steps of it cover [0, 1) evenly.
const GOLDEN_STEP: f64 = 0.618_033_988_749_894_9;

/// The novel task sets of a stream. The k-th one's utilisation (0.5–1.1)
/// follows a golden-ratio sequence from a seeded start, and its algorithm
/// and overhead cycle, so every stream covers the same ranges evenly:
/// seeds differ in their task sets, not in how many hard ones they hold.
struct Novel {
    start: f64,
    k: usize,
}

impl Novel {
    fn new(rng: &mut StdRng) -> Novel {
        Novel {
            start: rng.gen(),
            k: 0,
        }
    }

    fn next(&mut self, rng: &mut StdRng, id: u64) -> AdmissionRequest {
        loop {
            let k = self.k;
            self.k += 1;
            let utilization = 0.5 + 0.6 * (self.start + k as f64 * GOLDEN_STEP).fract();
            if let Ok(tasks) = generate_taskset(rng, &generator_config(utilization)) {
                let algorithm = if k.is_multiple_of(2) {
                    Algorithm::EarliestDeadlineFirst
                } else {
                    Algorithm::RateMonotonic
                };
                let overhead = [0.02, 0.05][(k / 2) % 2];
                return to_request(id, &tasks, algorithm, overhead);
            }
        }
    }
}

fn encode<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("requests and responses serialise")
        .into_bytes()
}

fn item(class: Class, request: AdmissionRequest, verdict: Verdict) -> Item {
    let expected = encode(&AdmissionResponse {
        id: request.id,
        verdict,
    });
    Item {
        class,
        frame: encode(&request),
        request,
        expected,
    }
}

/// Generates `len` requests from `seed`, with their expected answers
/// from a cache-disabled engine.
pub fn generate(seed: u64, len: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed) ^ 0x5E4E_ADD1);
    let reference = AdmissionEngine::new(EngineConfig {
        cache: false,
        ..EngineConfig::default()
    });
    let mut hot_sets = Novel::new(&mut rng);
    let hot_requests: Vec<AdmissionRequest> =
        (0..HOT_SETS).map(|_| hot_sets.next(&mut rng, 0)).collect();
    let mut novel = Novel::new(&mut rng);
    let hot_verdicts: Vec<Verdict> = hot_requests
        .iter()
        .map(|request| reference.admit(request).verdict)
        .collect();
    let hot_period = |j: usize| match &hot_verdicts[j] {
        Verdict::Admitted { design } => design.period,
        _ => 2.0,
    };
    let items = (0..len)
        .map(|i| {
            let id = i as u64 + 1;
            let draw: f64 = rng.gen();
            let j = rng.gen_range(0..HOT_SETS);
            let (class, request) = if draw < COLD_SHARE {
                (Class::Cold, novel.next(&mut rng, id))
            } else if draw < COLD_SHARE + FLIP_SHARE {
                let period = hot_period(j) * rng.gen_range(0.5..1.0);
                let mut request = hot_requests[j].clone();
                request.id = id;
                request.goal = DesignGoal::FixedPeriod(period);
                (Class::Flip, request)
            } else {
                let mut request = hot_requests[j].clone();
                request.id = id;
                (Class::Hot, request)
            };
            let verdict = match class {
                Class::Hot => hot_verdicts[j].clone(),
                _ => reference.admit(&request).verdict,
            };
            item(class, request, verdict)
        })
        .collect();
    let hot = hot_requests
        .into_iter()
        .zip(hot_verdicts)
        .map(|(request, verdict)| item(Class::Hot, request, verdict))
        .collect();
    Stream { hot, items }
}

/// A live server for one window: a fresh engine answering one accepted
/// unix-socket connection with `serve_stream`, the per-connection loop
/// `serve_unix` runs on every connection it accepts. (`serve_unix`
/// itself accepts forever, so its thread could never be joined nor its
/// engine freed between windows.) The thread ends when the client closes
/// the connection.
struct Server {
    path: PathBuf,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl Server {
    fn start(dir: &Path, tag: &str) -> io::Result<Server> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("serve-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let thread = std::thread::spawn(move || {
            let engine = AdmissionEngine::new(EngineConfig::default());
            let (stream, _) = listener.accept()?;
            let mut reader = stream.try_clone()?;
            let mut writer = stream;
            serve_stream(&engine, &mut reader, &mut writer, DEFAULT_MAX_FRAME_BYTES).map(|_| ())
        });
        Ok(Server {
            path,
            thread: Some(thread),
        })
    }

    /// Connects and warms the hot set closed-loop; returns the
    /// connection and the number of warm-up answers that were wrong.
    fn connect(&self, hot: &[Item]) -> io::Result<(UnixStream, u64)> {
        let mut conn = UnixStream::connect(&self.path)?;
        let mut wrong = 0;
        for item in hot {
            write_frame(&mut conn, &item.frame)?;
            let answer = read_frame(&mut conn, DEFAULT_MAX_FRAME_BYTES)
                .map_err(|e| io::Error::other(e.to_string()))?;
            wrong += u64::from(answer.as_deref() != Some(&item.expected[..]));
        }
        Ok((conn, wrong))
    }
}

impl Drop for Server {
    /// Joins the server thread. A connection that was never made is made
    /// and closed here, so the thread's `accept` returns.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            if !thread.is_finished() {
                let _ = UnixStream::connect(&self.path);
            }
            if let Ok(Err(e)) = thread.join() {
                eprintln!("server {} failed: {e}", self.path.display());
            }
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wire-to-wire latency of each request, µs, from its due time.
    pub latency_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    pub gen_lag_us: Vec<f64>,
    pub backlog_max: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Sends `count` frames on a fixed schedule at `rate` per second, from
/// `items[offset..]` (wrapping), while reading answers on the calling
/// thread. Each latency counts from the request's due time, so a stall
/// raises the latency of every request queued behind it. A missing or
/// wrong answer is a failed request.
pub fn open_loop(
    mut reader: impl io::Read,
    mut writer: impl io::Write + Send,
    items: &[Item],
    offset: usize,
    rate: f64,
    count: usize,
) -> Phase {
    let item = |i: usize| &items[(offset + i) % items.len()];
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(count);
            let mut backlog_max = 0;
            for i in 0..count {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lags.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                if write_frame(&mut writer, &item(i).frame).is_err() {
                    break;
                }
                backlog_max = backlog_max.max(i + 1 - received.load(Ordering::Relaxed));
            }
            (lags, backlog_max)
        });
        for i in 0..count {
            phase.attempted += 1;
            match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some(answer)) => {
                    let at = Instant::now();
                    received.store(i + 1, Ordering::Relaxed);
                    let latency = at.saturating_duration_since(due(i)).as_secs_f64() * 1e6;
                    phase.latency_us.push(latency);
                    phase.failed += u64::from(answer != item(i).expected);
                }
                _ => {
                    phase.failed += (count - i) as u64;
                    phase.attempted += (count - i - 1) as u64;
                    received.store(count, Ordering::Relaxed);
                    break;
                }
            }
        }
        let (lags, backlog_max) = sender.join().expect("the sender thread does not panic");
        phase.gen_lag_us = lags;
        phase.backlog_max = backlog_max;
    });
    phase
}

/// One open-loop window of `count` requests at `rate` from
/// `items[offset..]` (wrapping), on a fresh, warmed server.
fn open_window(
    stream: &Stream,
    dir: &Path,
    tag: &str,
    offset: usize,
    rate: f64,
    count: usize,
    run: &mut RunResult,
) -> Phase {
    let phase = Server::start(dir, tag).and_then(|server| {
        let (conn, wrong) = server.connect(&stream.hot)?;
        let mut phase = open_loop(&conn, &conn, &stream.items, offset, rate, count);
        conn.shutdown(std::net::Shutdown::Both)?;
        phase.attempted += stream.hot.len() as u64;
        phase.failed += wrong;
        Ok(phase)
    });
    let phase = phase.unwrap_or_else(|e| {
        eprintln!("serve window {tag} failed: {e}");
        Phase {
            attempted: count as u64,
            failed: count as u64,
            ..Phase::default()
        }
    });
    run.attempted += phase.attempted;
    run.failed += phase.failed;
    phase
}

/// The pooled latency samples, µs, of the best third of `windows` by
/// p99. Other tenants of the host only add latency, so windows they
/// disturbed are set aside; the program's own stalls show in every
/// window and stay in.
fn steady_latency(windows: &[Phase]) -> Vec<f64> {
    let mut by_p99: Vec<&Phase> = windows.iter().collect();
    by_p99.sort_by(|a, b| {
        let p99 = |p: &Phase| stats::percentile(&p.latency_us, 99.0);
        p99(a).total_cmp(&p99(b))
    });
    by_p99[..windows.len().div_ceil(3)]
        .iter()
        .flat_map(|p| p.latency_us.iter().copied())
        .collect()
}

fn median_over(phases: &[Phase], metric: impl Fn(&Phase) -> f64) -> f64 {
    stats::median(&phases.iter().map(metric).collect::<Vec<_>>())
}

/// Requests offered at `rate` over `seconds`, at least enough for a p99
/// with ten samples beyond it.
fn phase_count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(1_000)
}

fn fixed_window_count(seconds: f64) -> usize {
    phase_count(FIXED_RATE, seconds * FIXED_SHARE / FIXED_WINDOWS as f64)
}

/// One set-up: the stream and every expected answer, timed. Answers
/// that differ from `first`'s count as failed operations.
fn set_up(seed: u64, len: usize, first: Option<&Stream>, run: &mut RunResult) -> (Stream, f64) {
    let start = Instant::now();
    let stream = generate(seed, len);
    let secs = start.elapsed().as_secs_f64();
    if let Some(first) = first {
        run.check(
            first
                .items
                .iter()
                .zip(&stream.items)
                .all(|(a, b)| a.expected == b.expected),
        );
    }
    (stream, secs)
}

/// A fixed-rate window: wire-to-wire latency at [`FIXED_RATE`]. Windows
/// start at evenly spaced points of the stream, so a run averages over
/// more novel task sets.
fn fixed_window(stream: &Stream, dir: &Path, k: usize, seconds: f64, run: &mut RunResult) -> Phase {
    let offset = k * stream.items.len() / FIXED_WINDOWS;
    let count = fixed_window_count(seconds);
    open_window(
        stream,
        dir,
        &format!("fixed-{k}"),
        offset,
        FIXED_RATE,
        count,
        run,
    )
}

/// An engine with the hot set decided once, as a long-running server
/// has it.
fn warmed_engine(stream: &Stream) -> AdmissionEngine {
    let engine = AdmissionEngine::new(EngineConfig::default());
    for item in &stream.hot {
        engine.admit(&item.request);
    }
    engine
}

/// One request from frame to answer bytes: decode, admit, encode.
fn decide(engine: &AdmissionEngine, frame: &[u8]) -> Vec<u8> {
    let request: AdmissionRequest = std::str::from_utf8(frame)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .expect("generated frames parse");
    encode(&engine.admit(&request))
}

/// The untraced serve run, in process and CPU-bound. Each repetition
/// replays the stream's JSONL log through `ftsched_serve::replay`
/// (batched over the rayon pool, as `ftsched serve --replay` does), then
/// decides it once more request by request on one thread, timing each
/// decode + admit + encode. Every repetition starts from a fresh engine
/// with the hot set warmed, and every answer is checked.
pub fn measure(seed: u64, seconds: f64) -> RunResult {
    let mut run = RunResult::default();
    let (stream, first) = set_up(seed, STREAM_LEN, None, &mut run);
    let mut setups = vec![first];
    let log: String = stream
        .items
        .iter()
        .map(|item| std::str::from_utf8(&item.frame).expect("frames are JSON text"))
        .flat_map(|line| [line, "\n"])
        .collect();
    let n = stream.items.len();
    let (mut batched, mut serial) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut hit_p50s, mut cold_p95s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || batched.len() < MIN_REPS {
        if stats::setup_due(setups.len(), start.elapsed().as_secs_f64(), seconds) {
            setups.push(set_up(seed, STREAM_LEN, Some(&stream), &mut run).1);
        }
        let engine = warmed_engine(&stream);
        let mut transcript = Vec::new();
        let begun = Instant::now();
        let replayed = ftsched_serve::replay(&engine, &log, &mut transcript, REPLAY_BATCH);
        batched.push(begun.elapsed().as_secs_f64());
        let lines: Vec<&[u8]> = transcript.split(|&b| b == b'\n').collect();
        for (i, item) in stream.items.iter().enumerate() {
            run.check(replayed.is_ok() && lines.get(i) == Some(&&item.expected[..]));
        }

        let engine = warmed_engine(&stream);
        let mut latency_us = Vec::with_capacity(n);
        let (mut hit_us, mut cold_us) = (Vec::new(), Vec::new());
        let begun = Instant::now();
        for item in &stream.items {
            let t = Instant::now();
            let answer = decide(&engine, &item.frame);
            let us = t.elapsed().as_secs_f64() * 1e6;
            latency_us.push(us);
            match item.class {
                Class::Hot => hit_us.push(us),
                Class::Cold => cold_us.push(us),
                Class::Flip => {}
            }
            run.check(answer == item.expected);
        }
        serial.push(begun.elapsed().as_secs_f64());
        p50s.push(stats::median(&latency_us));
        p99s.push(stats::percentile(&latency_us, 99.0));
        hit_p50s.push(stats::median(&hit_us));
        // About 900 novel task sets: p95 is the highest percentile with
        // ten of them beyond it.
        cold_p95s.push(stats::percentile(&cold_us, 95.0));
    }
    while setups.len() < stats::SETUP_REPEATS {
        setups.push(set_up(seed, STREAM_LEN, Some(&stream), &mut run).1);
    }
    let setup_s = stats::median(&setups);
    let throughput = n as f64 / stats::median(&batched);
    let throughput_1t = n as f64 / stats::median(&serial);
    let (p50, p99) = (stats::median(&p50s), stats::median(&p99s));
    let (hit_p50, cold_p95) = (stats::median(&hit_p50s), stats::median(&cold_p95s));
    run.set("throughput", throughput);
    run.set("throughput_1t", throughput_1t);
    run.set("latency_p50_ms", hit_p50 / 1e3);
    run.set("latency_tail_ms", cold_p95 / 1e3);
    run.set("setup_s", setup_s);
    run.set("peak_rss_mb", peak_rss_mb());
    run.named("decisions_per_s", throughput, "1/s");
    run.named("decisions_per_s_1t", throughput_1t, "1/s");
    run.named("decision_hit_p50_us", hit_p50, "us");
    run.named("decision_cold_p95_us", cold_p95, "us");
    run.named("decision_p50_us", p50, "us");
    run.named("decision_p99_us", p99, "us");
    run.named("setup_s", setup_s, "s");
    run.named("peak_rss_mb", peak_rss_mb(), "MB");
    let cold = stream
        .items
        .iter()
        .filter(|i| i.class == Class::Cold)
        .count();
    run.note(format!(
        "{n} requests ({cold} novel task sets) per repetition, {} repetitions; \
         decision latencies are medians over repetitions",
        batched.len()
    ));
    run
}

fn build_taskset(request: &AdmissionRequest) -> Option<TaskSet> {
    let tasks: Option<Vec<Task>> = request
        .tasks
        .iter()
        .map(|t| Task::constrained_deadline(t.id, t.wcet, t.period, t.deadline, t.mode).ok())
        .collect();
    TaskSet::new(tasks?).ok()
}

fn admit_span(class: Class) -> &'static str {
    match class {
        Class::Hot => "serve.admit_hit",
        Class::Flip => "serve.admit_flip",
        Class::Cold => "serve.admit_cold",
    }
}

/// Replays `items` in-process on a fresh, warmed engine: decode, admit,
/// encode. With a tracer, each step runs in a span. Returns the wall
/// time and the number of wrong answers.
fn in_process(stream: &Stream, n: usize, mut tracer: Option<&mut Tracer>) -> (f64, u64) {
    let engine = warmed_engine(stream);
    let mut wrong = 0;
    let start = Instant::now();
    for (i, item) in stream.items[..n].iter().enumerate() {
        let decode = || {
            std::str::from_utf8(&item.frame)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    serde_json::from_str::<AdmissionRequest>(text).map_err(|e| e.to_string())
                })
        };
        let answer = match tracer.as_deref_mut() {
            Some(t) => {
                t.open("request", i as u64);
                let request = t.span("serve.decode", decode).expect("frames parse");
                let response = t.span(admit_span(item.class), || engine.admit(&request));
                let bytes = t.span("serve.encode", || encode(&response));
                t.close();
                bytes
            }
            None => decide(&engine, &item.frame),
        };
        wrong += u64::from(answer != item.expected);
    }
    (start.elapsed().as_secs_f64(), wrong)
}

/// The cold path of one request, call by call: partition, problem,
/// context, period search, allocation.
fn cold_breakdown(request: &AdmissionRequest, tracer: &mut Tracer, points: &mut u64) {
    let Some(tasks) = build_taskset(request) else {
        return;
    };
    let Ok(partition) = tracer.span("design.partition", || {
        partition_system(&tasks, request.heuristic)
    }) else {
        return;
    };
    let Ok(problem) = tracer.span("core.problem", || {
        DesignProblem::with_total_overhead(
            tasks.clone(),
            partition,
            request.total_overhead,
            request.algorithm,
        )
    }) else {
        return;
    };
    let Ok(ctx) = tracer.span("analysis.context", || problem.analysis_context()) else {
        return;
    };
    *points += ctx.point_count() as u64;
    let region = RegionConfig::for_problem(&problem);
    if let Ok(period) = tracer.span("design.period_search", || {
        max_feasible_period_with(&ctx, &region)
    }) {
        let _ = tracer.span("design.allocation", || ctx.minimum_allocation(period));
    }
}

/// The traced serve run: a fixed-rate open-loop phase for the wire and
/// generator numbers, then the same stream replayed in-process with a
/// span around decode, admit (by class) and encode, then each cold
/// request broken down call by call.
pub fn traced(seed: u64, seconds: f64, dir: &Path, trace_out: Option<&Path>) -> RunResult {
    let mut run = RunResult::default();
    let (stream, _) = set_up(
        seed,
        fixed_window_count(seconds) * FIXED_WINDOWS,
        None,
        &mut run,
    );
    let fixed: Vec<Phase> = (0..FIXED_WINDOWS)
        .map(|k| fixed_window(&stream, dir, k, seconds, &mut run))
        .collect();
    let samples: usize = fixed.iter().map(|p| p.latency_us.len()).sum();

    let n = samples.clamp(1, stream.items.len());
    let (untraced, wrong) = in_process(&stream, n, None);
    run.attempted += n as u64;
    run.failed += wrong;
    let obs = ftsched_obs::metrics();
    let before = obs.snapshot();
    let mut tracer = Tracer::new();
    let (wall, wrong) = in_process(&stream, n, Some(&mut tracer));
    let during = obs.snapshot().since(&before);
    run.attempted += n as u64;
    run.failed += wrong;

    let mut breakdown = Tracer::new();
    let mut points = 0;
    for (i, item) in stream.items[..n].iter().enumerate() {
        if item.class == Class::Cold {
            breakdown.open("cold", i as u64);
            cold_breakdown(&item.request, &mut breakdown, &mut points);
            breakdown.close();
        }
    }

    let p50 = |t: &Tracer, name: &str| stats::median(&t.durations_us(name));
    let tail = |t: &Tracer, name: &str| stats::tail(&t.durations_us(name)).0;
    let wire_p50 = stats::median(&steady_latency(&fixed));
    run.set("serve.decode_us.p50", p50(&tracer, "serve.decode"));
    run.set("serve.encode_us.p50", p50(&tracer, "serve.encode"));
    run.set("serve.admit_hit_us.p50", p50(&tracer, "serve.admit_hit"));
    run.set("serve.admit_hit_us.p99", tail(&tracer, "serve.admit_hit"));
    run.set("serve.admit_flip_us.p50", p50(&tracer, "serve.admit_flip"));
    run.set("serve.admit_cold_us.p50", p50(&tracer, "serve.admit_cold"));
    run.set("serve.admit_cold_us.p99", tail(&tracer, "serve.admit_cold"));
    run.set(
        "serve.wire_overhead_us",
        wire_p50
            - p50(&tracer, "serve.decode")
            - p50(&tracer, "serve.admit_hit")
            - p50(&tracer, "serve.encode"),
    );
    let hit = |c: ftsched_obs::CacheSnapshot| c.hits as f64 / (c.hits + c.misses).max(1) as f64;
    run.set(
        "serve.cache.admission_hit_frac",
        hit(during.timing.serve_admission_cache),
    );
    run.set(
        "serve.cache.context_hit_frac",
        hit(during.timing.serve_context_cache),
    );
    run.set(
        "serve.gen_lag_us.p99",
        median_over(&fixed, |p| stats::percentile(&p.gen_lag_us, 99.0)),
    );
    run.set(
        "serve.backlog_max",
        fixed.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    run.set("serve.samples", samples as f64);

    let totals = breakdown.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    run.set(
        "analysis.context.calls",
        total("analysis.context").count as f64,
    );
    run.set("analysis.context.ms", total("analysis.context").ms());
    run.set("analysis.context.points", points as f64);
    run.set(
        "design.period_search.calls",
        total("design.period_search").count as f64,
    );
    run.set(
        "design.period_search.ms",
        total("design.period_search").ms(),
    );
    let searches = total("design.period_search").count;
    let allocations = total("design.allocation").count;
    run.set(
        "design.period_search.reject_frac",
        (searches - allocations) as f64 / searches.max(1) as f64,
    );
    run.set("design.allocation.ms", total("design.allocation").ms());
    run.set(
        "design.partition.calls",
        total("design.partition").count as f64,
    );
    run.set("design.partition.ms", total("design.partition").ms());
    let partitions = total("design.partition").count;
    let problems = total("core.problem").count;
    run.set(
        "design.partition.fail_frac",
        (partitions - problems) as f64 / partitions.max(1) as f64,
    );
    run.set("core.problem.ms", total("core.problem").ms());

    let covered = tracer.covered_ns() as f64;
    let admit_ns: u64 = tracer
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("serve.admit"))
        .map(|(_, t)| t.self_ns)
        .sum();
    run.set("trace.coverage", covered / (wall * 1e9));
    run.set("trace.overhead", wall / untraced - 1.0);
    run.set("trace.design_frac", admit_ns as f64 / covered.max(1.0));
    run.set("trace.wall_ms", wall * 1e3);
    run.set(
        "trace.spans",
        (tracer.spans().len() + breakdown.spans().len()) as f64,
    );
    run.note(format!(
        "{n} requests replayed in-process: traced {:.1} ms, untraced {:.1} ms; \
         wire p50 {wire_p50:.1} us over {samples} samples",
        wall * 1e3,
        untraced * 1e3,
    ));
    if let Some(path) = trace_out {
        crate::write_trace(&tracer, path);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn fake_items(n: usize) -> Vec<Item> {
        (0..n)
            .map(|i| Item {
                class: Class::Hot,
                request: AdmissionRequest {
                    id: i as u64,
                    tasks: Vec::new(),
                    algorithm: Algorithm::EarliestDeadlineFirst,
                    goal: DesignGoal::MinimizeOverheadBandwidth,
                    total_overhead: 0.0,
                    heuristic: PartitionHeuristic::WorstFitDecreasing,
                },
                frame: format!("request {i}").into_bytes(),
                expected: format!("answer {i}").into_bytes(),
            })
            .collect()
    }

    /// A fake server: answers frame `i` with `answer(i)` after `delay(i)`.
    fn fake_server(
        mut conn: UnixStream,
        n: usize,
        delay: impl Fn(usize) -> Duration + Send + 'static,
        answer: impl Fn(usize) -> Vec<u8> + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for i in 0..n {
                read_frame(&mut conn, DEFAULT_MAX_FRAME_BYTES)
                    .unwrap()
                    .expect("the client sends every frame");
                std::thread::sleep(delay(i));
                write_frame(&mut conn, &answer(i)).unwrap();
            }
            conn.flush().unwrap();
        })
    }

    #[test]
    fn a_stalled_server_delays_every_request_queued_behind_it() {
        let items = fake_items(20);
        let (client, server) = UnixStream::pair().unwrap();
        let stall = Duration::from_millis(60);
        let handle = fake_server(
            server,
            items.len(),
            move |i| if i == 0 { stall } else { Duration::ZERO },
            |i| format!("answer {i}").into_bytes(),
        );
        // 1000 requests per second: request i is due i ms after the start.
        let phase = open_loop(&client, &client, &items, 0, 1_000.0, items.len());
        handle.join().unwrap();
        assert_eq!((phase.attempted, phase.failed), (20, 0));
        // Requests sent during the stall wait for it: each one's latency,
        // timed from its due time, includes the rest of the stall.
        for (i, &latency) in phase.latency_us.iter().enumerate() {
            let floor = 60_000.0 - 1_000.0 * i as f64;
            assert!(
                latency >= floor - 500.0,
                "request {i}: {latency} us is below the {floor} us the stall imposes"
            );
        }
        assert!(stats::median(&phase.latency_us) > 40_000.0);
        // The generator kept its schedule through the stall: nearly every
        // request was outstanding at once.
        assert!(phase.backlog_max >= 15, "backlog {}", phase.backlog_max);
    }

    #[test]
    fn the_response_check_catches_a_tampered_answer() {
        let items = fake_items(10);
        let (client, server) = UnixStream::pair().unwrap();
        let handle = fake_server(
            server,
            items.len(),
            |_| Duration::ZERO,
            |i| {
                let mut answer = format!("answer {i}").into_bytes();
                if i == 7 {
                    answer[0] ^= 1;
                }
                answer
            },
        );
        let phase = open_loop(&client, &client, &items, 0, 5_000.0, items.len());
        handle.join().unwrap();
        assert_eq!((phase.attempted, phase.failed), (10, 1));
    }

    #[test]
    fn a_missing_answer_fails_every_outstanding_request() {
        let items = fake_items(10);
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = server;
            for i in 0..4 {
                read_frame(&mut conn, DEFAULT_MAX_FRAME_BYTES).unwrap();
                write_frame(&mut conn, format!("answer {i}").as_bytes()).unwrap();
            }
            // Close without answering the rest.
        });
        let phase = open_loop(&client, &client, &items, 0, 5_000.0, items.len());
        handle.join().unwrap();
        assert_eq!((phase.attempted, phase.failed), (10, 6));
    }

    #[test]
    fn served_answers_match_the_cache_disabled_reference() {
        let stream = generate(7, 120);
        assert!(stream.items.iter().any(|i| i.class == Class::Cold));
        assert!(stream.items.iter().any(|i| i.class == Class::Flip));
        let mut run = RunResult::default();
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let phase = open_window(&stream, &dir, "test", 0, 2_000.0, 120, &mut run);
        assert_eq!(phase.latency_us.len(), 120);
        assert_eq!(run.failed, 0, "every served answer equals the reference");
        assert_eq!(run.attempted, (120 + HOT_SETS) as u64);
        let _ = std::fs::remove_dir_all(dir);
    }
}
