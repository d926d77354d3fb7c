//! End-to-end benchmark of the sparql-hsp front doors.
//!
//! One run takes a workload name and a seed, generates its inputs from the
//! seed, drives the program only through `Session` (in process) and
//! `Server`/`Client` (framed TCP), checks every answer and reports the
//! metrics of [`report`]. An untraced run reports the end-to-end metrics;
//! a traced run also replays the workload's requests through each layer's
//! public calls under [`trace`] spans and reports the per-layer metrics.
//! `METRICS.md` next to this crate explains every metric and workload.

use std::time::Instant;

use sparql_hsp::rdf::ntriples;
use sparql_hsp::session::{Request, Session};
use sparql_hsp::store::Dataset;

pub mod check;
pub mod gen;
mod paper;
pub mod replay;
pub mod report;
mod serving;
pub mod stats;
pub mod trace;

use gen::Sizes;
use replay::{Counts, Replayer};
use report::Metrics;
use stats::{mean, median, ratio};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 14 queries under HSP and CDP, in process.
    Paper,
    /// Selective templated reads over TCP from two closed-loop clients.
    Lookup,
    /// One closed-loop reader and one open-loop writer over TCP.
    MixedWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Lookup, Workload::MixedWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Lookup => "lookup",
            Workload::MixedWrite => "mixed_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Corrupt one expected answer, so the checks must count a failure
    /// (the self-test uses this).
    pub plant_wrong_answer: bool,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts later claims must name (sizes, workload properties), as
    /// `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
    /// The traced run's spans as JSON lines.
    pub spans: Option<String>,
}

pub fn run(config: &Config) -> Outcome {
    progress("start");
    match config.workload {
        Workload::Paper => paper::run(config),
        Workload::Lookup => serving::run(config, false),
        Workload::MixedWrite => serving::run(config, true),
    }
}

/// Log a phase boundary to stderr with the seconds since the first call.
fn progress(phase: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!(
        "perfbench: {phase} at {:.1} s",
        start.elapsed().as_secs_f64()
    );
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A cheap query whose answer proves the front door is serving.
const PROBE: &str = "SELECT ?p ?o WHERE { <http://localhost/perfbench/probe> ?p ?o . }";

/// The traced replay's writes: two small batches in turn, each request
/// inserting one and deleting the other, so every request publishes the
/// same amount of work and neither the store delta nor the dictionary
/// grows.
fn replay_writes(seed: u64) -> gen::Writes {
    gen::Writes {
        seed,
        subjects: 4,
        lag: 1,
        batches: 2,
    }
}

/// Fewest samples per chunk of a chunked 99th percentile, so that each
/// chunk has at least 10 samples above it.
const P99_CHUNK: usize = 1000;

/// Reads and updates the traced replay sends.
const REPLAY_READS: usize = 600;
const REPLAY_UPDATES: usize = 100;

/// Checked requests and how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set-up times per repetition, in seconds.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    parse: Vec<f64>,
    build: Vec<f64>,
}

/// N-Triples text to a dataset, as `Dataset::from_ntriples` does it, in
/// two spans; adds the parse and build seconds to the last repetition.
fn load(doc: &str, tracer: &mut Tracer, times: &mut SetupTimes) -> Dataset {
    let request = tracer.request_id();
    let (triples, parse_ms) = tracer.span(request, "rdf.ntriples_parse", |_| {
        ntriples::parse_document(doc)
    });
    let triples = triples.expect("generated N-Triples parse");
    let (ds, build_ms) = tracer.span(request, "store.build", |_| Dataset::from_triples(&triples));
    drop(triples);
    *times.parse.last_mut().expect("a repetition is open") += parse_ms / 1e3;
    *times.build.last_mut().expect("a repetition is open") += build_ms / 1e3;
    ds
}

/// One set-up, timed into a new repetition of `times`.
fn timed_setup<T>(times: &mut SetupTimes, setup: impl FnOnce(&mut SetupTimes) -> T) -> T {
    times.parse.push(0.0);
    times.build.push(0.0);
    let start = Instant::now();
    let kept = setup(times);
    times.total.push(start.elapsed().as_secs_f64());
    kept
}

/// The set-ups after the first, each timed and dropped at once, so
/// `setup_s` is a median. They run last, once the run's own session is
/// gone: freeing a loaded store changes the allocator's state. After
/// repeated set-ups of the SP2Bench-like data each small update took about
/// 150 page faults (three times the time), which a process that loaded
/// it once did not take.
fn later_setups<T>(times: &mut SetupTimes, mut setup: impl FnMut(&mut SetupTimes) -> T) {
    for _ in 1..SETUP_REPS {
        drop(timed_setup(times, &mut setup));
    }
}

/// First answered request through a session.
fn first_answer(session: &Session) {
    session
        .query(Request::new(PROBE).without_cache())
        .expect("the probe query is answered");
}

/// Latencies of a writer, timed from when each request was due.
#[derive(Default)]
struct WriterLog {
    latencies: Vec<f64>,
    tally: Tally,
    /// How far behind schedule the writer sent, at worst.
    max_late_ms: f64,
}

impl WriterLog {
    /// Send writer request `i`, due at `due`, through `send` (which returns
    /// the triples inserted and deleted), and record it.
    fn send(
        &mut self,
        send: &mut impl FnMut(&str) -> Result<(usize, usize), String>,
        writes: &gen::Writes,
        i: usize,
        due: Instant,
    ) {
        let late = Instant::now().saturating_duration_since(due);
        self.max_late_ms = self.max_late_ms.max(late.as_secs_f64() * 1e3);
        let (text, inserted, deleted) = writes.request(i);
        let result = send(&text);
        self.latencies.push(due.elapsed().as_secs_f64() * 1e3);
        self.tally.record(result == Ok((inserted, deleted)));
    }
}

/// Counters of the measured phase that the per-layer report needs.
#[derive(Default)]
struct PhaseCounters {
    pool_batches: u64,
    cross_query_switches: u64,
    result_hits: u64,
    result_misses: u64,
    plan_hits: u64,
    plan_misses: u64,
    invalidations: u64,
    compactions: u64,
    rejected: u64,
    errors: u64,
    repeat_share: f64,
    shapes: usize,
    extended_share: f64,
    updates_sent: usize,
}

impl PhaseCounters {
    /// Pool and cache counters accumulated by `session` since `before`.
    fn session_delta(session: &Session, before: &SessionCounters) -> PhaseCounters {
        let now = SessionCounters::of(session);
        PhaseCounters {
            pool_batches: now.pool.0 - before.pool.0,
            cross_query_switches: now.pool.1 - before.pool.1,
            result_hits: now.cache.result_hits - before.cache.result_hits,
            result_misses: now.cache.result_misses - before.cache.result_misses,
            plan_hits: now.cache.plan_hits - before.cache.plan_hits,
            plan_misses: now.cache.plan_misses - before.cache.plan_misses,
            invalidations: now.cache.invalidations - before.cache.invalidations,
            compactions: session.snapshot().store().compactions(),
            ..PhaseCounters::default()
        }
    }
}

/// A session's lifetime pool and cache counters at one moment.
struct SessionCounters {
    pool: (u64, u64),
    cache: sparql_hsp::cache::CacheStats,
}

impl SessionCounters {
    fn of(session: &Session) -> SessionCounters {
        SessionCounters {
            pool: session
                .pool_stats()
                .map_or((0, 0), |p| (p.batches, p.cross_query_switches)),
            cache: session.cache_stats(),
        }
    }
}

/// The per-layer metrics from the set-up times, the measured phase's
/// counters and the two replays.
fn layer_metrics(
    setup: &SetupTimes,
    phase: &PhaseCounters,
    tally: Tally,
    traced: &Replayer,
    untraced: &Counts,
) -> Metrics {
    let layer = traced.layer_ms();
    let ms = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let c = &traced.counts;
    let mut m = Metrics::default();
    m.set("rdf.ntriples_parse_s", median(&setup.parse));
    m.set("store.build_s", median(&setup.build));
    m.set("rdf.decode_ms", ms("rdf.decode"));
    m.set("rdf.decoded_cells", c.decoded_cells as f64);
    m.set("sparql.parse_ms", ms("sparql.parse"));
    m.set("sparql.canon_ms", ms("sparql.canon"));
    m.set("core.plan_ms", ms("core.plan"));
    m.set("baseline.plan_ms", ms("baseline.plan"));
    m.set("engine.exec_ms", ms("engine.exec"));
    m.set("engine.intermediate_rows", c.intermediate_rows as f64);
    m.set(
        "engine.pipeline_rows_avoided",
        c.pipeline_rows_avoided as f64,
    );
    m.set(
        "engine.pool_hit_ratio",
        ratio(c.pool_hits, c.pool_hits + c.pool_misses),
    );
    m.set("engine.governor_mem_peak_bytes", c.governor_mem_peak as f64);
    m.set("engine.merged_scans", c.merged_scans as f64);
    m.set("engine.pool_batches", phase.pool_batches as f64);
    m.set(
        "engine.cross_query_switches",
        phase.cross_query_switches as f64,
    );
    m.set("results.render_ms", ms("results.render"));
    m.set("results.bytes", mean(&c.render_bytes));
    m.set("session.query_ms", ms("session.query"));
    m.set("session.overhead_ms", mean(&c.session_overhead_ms));
    m.set("extended.query_ms", ms("extended.query"));
    m.set("serve.wire_ms", mean(&c.wire_ms));
    m.set(
        "cache.result_hit_ratio",
        ratio(phase.result_hits, phase.result_hits + phase.result_misses),
    );
    m.set(
        "cache.plan_hit_ratio",
        ratio(phase.plan_hits, phase.plan_hits + phase.plan_misses),
    );
    m.set("cache.invalidations", phase.invalidations as f64);
    m.set("update.publish_ms", ms("update.publish"));
    m.set("store.delta_rows", mean(&c.delta_rows));
    m.set("store.compactions", phase.compactions as f64);
    m.set("serve.rejected", phase.rejected as f64);
    m.set("serve.errors", phase.errors as f64);
    m.set("error_share", ratio(tally.failed, tally.attempted));
    m.set(
        "trace.overhead_ms",
        mean(&c.request_ms) - mean(&untraced.request_ms),
    );
    m.set("trace.spans", traced.tracer.spans().len() as f64);
    m.set("workload.repeat_share", phase.repeat_share);
    m.set("workload.shapes", phase.shapes as f64);
    m.set("workload.extended_share", phase.extended_share);
    m.set("workload.updates_sent", phase.updates_sent as f64);
    m
}

/// The end-to-end metrics every workload shares the definition of, apart
/// from `setup_s`, which waits for [`later_setups`].
fn common_metrics(m: &mut Metrics, tally: Tally) {
    m.set("ok_share", 1.0 - ratio(tally.failed, tally.attempted));
    m.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
}
