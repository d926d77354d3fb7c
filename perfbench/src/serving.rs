//! `lookup` and `mixed_write`: templated reads over framed TCP against
//! one `Server` with its shipped defaults (apart from the bind address).
//! `lookup` runs two closed-loop reader connections; `mixed_write` runs
//! one closed-loop reader and one open-loop writer connection.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sparql_hsp::results::to_sparql_json;
use sparql_hsp::serve::{Client, ServeConfig, Server, ServerHandle};
use sparql_hsp::session::{Planner, Request, Session};

use crate::check::{ok_body, Fingerprint};
use crate::gen::{self, ReadMix, Shape, LOOKUP_MIX, MIXED_MIX};
use crate::replay::{alternate, Replayer};
use crate::report::{number, Metrics};
use crate::stats::{chunked_quantile, geomean, median, median_rate, quantile, ratio};
use crate::trace::Tracer;
use crate::{
    common_metrics, later_setups, layer_metrics, load, progress, replay_writes, timed_setup,
    Config, Outcome, PhaseCounters, SessionCounters, SetupTimes, Tally, WriterLog, P99_CHUNK,
    PROBE, REPLAY_READS, REPLAY_UPDATES,
};

/// Untimed reads before the measured phase, so the caches fill first (a
/// synthetic choice like the read mix; the facts line prints the result
/// and plan hit ratios the measured phase then sees).
const WARMUP: Duration = Duration::from_secs(1);

/// The `mixed_write` writer's schedule: one request per interval.
const WRITE_INTERVAL: Duration = Duration::from_millis(40);

/// Fresh subjects per `mixed_write` request.
const WRITE_SUBJECTS: usize = 16;

/// A write deletes the batch inserted this many requests earlier. At 32
/// inserted triples per request the store's default compaction threshold
/// (4096 delta rows) is reached every 128 requests, so the deleted batch
/// is already in the base runs: deletes add tombstones instead of
/// cancelling delta rows, and compactions keep coming.
const WRITE_LAG: usize = 128;

/// Windows the measured phase is cut into for `throughput_qps`, and the
/// most chunks `latency_p99_ms` is taken over.
const RATE_WINDOWS: usize = 10;

/// Requests per shape in the CDP probe.
const CDP_PROBE_SAMPLES: usize = 16;

/// One reader connection's log.
#[derive(Default)]
struct ReaderLog {
    /// `(text index, latency in ms)` per request.
    samples: Vec<(u32, f64)>,
    /// Completion time of each request, in seconds from `since`.
    done: Vec<f64>,
    tally: Tally,
    /// Position in the connection's sequence to continue from.
    next: usize,
}

/// The `mixed_write` writer: its own connection, one request due every
/// [`WRITE_INTERVAL`] until `deadline` (open loop), each timed from when
/// it was due.
fn write_loop(addr: SocketAddr, seed: u64, deadline: Instant) -> WriterLog {
    let mut client = Client::connect(addr).expect("writer connects");
    let writes = gen::Writes {
        seed,
        subjects: WRITE_SUBJECTS,
        lag: WRITE_LAG,
        batches: usize::MAX,
    };
    let mut log = WriterLog::default();
    let start = Instant::now();
    for i in 0.. {
        let due = start + WRITE_INTERVAL * i;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.send(
            &mut |text| update_over_tcp(&mut client, text),
            &writes,
            i as usize,
            due,
        );
    }
    log
}

/// Send `mix.sequences[conn]` from `from` on one connection, each request
/// after the previous answer, until `deadline`; check every answer.
fn read_loop(
    addr: SocketAddr,
    mix: &ReadMix,
    expected: &[Option<Fingerprint>],
    conn: usize,
    from: usize,
    deadline: Instant,
) -> ReaderLog {
    let mut client = Client::connect(addr).expect("reader connects");
    let sequence = &mix.sequences[conn];
    let since = Instant::now();
    let mut log = ReaderLog {
        next: from,
        ..ReaderLog::default()
    };
    while Instant::now() < deadline {
        let index = sequence[log.next % sequence.len()];
        log.next += 1;
        let start = Instant::now();
        let response = client.query("", &mix.texts[index as usize]);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let answer = response
            .ok()
            .as_deref()
            .and_then(ok_body)
            .and_then(Fingerprint::of_json);
        log.tally
            .record(answer.is_some() && answer == expected[index as usize]);
        log.samples.push((index, ms));
        log.done.push(since.elapsed().as_secs_f64());
    }
    log
}

/// Run every reader connection, and the writer when `writer_seed` is
/// given, at once until `duration` has passed.
fn run_phase(
    addr: SocketAddr,
    mix: &ReadMix,
    expected: &[Option<Fingerprint>],
    positions: &mut [usize],
    duration: Duration,
    writer_seed: Option<u64>,
) -> (Vec<ReaderLog>, Option<WriterLog>) {
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        let readers: Vec<_> = positions
            .iter()
            .enumerate()
            .map(|(conn, &from)| {
                scope.spawn(move || read_loop(addr, mix, expected, conn, from, deadline))
            })
            .collect();
        let writer = writer_seed.map(|seed| scope.spawn(move || write_loop(addr, seed, deadline)));
        let logs: Vec<ReaderLog> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        for (pos, log) in positions.iter_mut().zip(&logs) {
            *pos = log.next;
        }
        (logs, writer.map(|h| h.join().expect("writer thread")))
    })
}

/// `UPDATE` over TCP, returning the triples inserted and deleted.
fn update_over_tcp(client: &mut Client, text: &str) -> Result<(usize, usize), String> {
    let response = client.update("", text).map_err(|e| e.to_string())?;
    let field = |key: &str| -> Option<usize> {
        response
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    };
    match (
        response.starts_with("OK "),
        field("inserted"),
        field("deleted"),
    ) {
        (true, Some(inserted), Some(deleted)) => Ok((inserted, deleted)),
        _ => Err(response),
    }
}

pub(crate) fn run(config: &Config, mixed: bool) -> Outcome {
    let doc = gen::sp2b_document(config.sizes, config.seed);
    let weights = if mixed { MIXED_MIX } else { LOOKUP_MIX };
    let connections = if mixed { 1 } else { 2 };
    let mix = ReadMix::new(&doc, weights, connections, config.seed);
    progress("inputs generated");
    let mut tracer = Tracer::new(config.trace);
    let mut setup = SetupTimes::default();
    let server = timed_setup(&mut setup, |times| start_server(&doc, &mut tracer, times));
    drop(doc);
    let addr = server.addr();
    // A handle that outlives the server, for the in-process answers and replay.
    let session_handle = server.session().clone();
    let session = &session_handle;
    let triples = session.snapshot().len();

    progress("set up");
    let setup_rss_mb = crate::stats::peak_rss_mb().unwrap_or(f64::NAN);
    // Expected answers: each text the run can send, in process, uncached.
    let cdp_probe = mix.cdp_probe(CDP_PROBE_SAMPLES);
    let mut expected: Vec<Option<Fingerprint>> = vec![None; mix.texts.len()];
    for index in mix.used().into_iter().chain(cdp_probe.iter().copied()) {
        let slot = &mut expected[index as usize];
        if slot.is_none() {
            let response = session
                .query(Request::new(&mix.texts[index as usize]).without_cache())
                .unwrap_or_else(|e| panic!("expected answer failed: {e}"));
            *slot = Fingerprint::of_json(&to_sparql_json(&response.output));
        }
    }
    if config.plant_wrong_answer {
        let index = mix.sequences[0][0] as usize;
        expected[index] = expected[index].map(Fingerprint::corrupted);
    }

    progress("expected answers computed");
    let mut positions = vec![0; connections];
    let mut tally = Tally::default();
    let (warmup, _) = run_phase(addr, &mix, &expected, &mut positions, WARMUP, None);
    let before = SessionCounters::of(session);
    let serve_before = (server.metrics().rejected(), server.metrics().errors());
    let (logs, writer) = run_phase(
        addr,
        &mix,
        &expected,
        &mut positions,
        Duration::from_secs_f64(config.seconds),
        mixed.then_some(config.seed),
    );
    progress("measured phase done");
    let mut phase = PhaseCounters::session_delta(session, &before);
    phase.rejected = server.metrics().rejected() - serve_before.0;
    phase.errors = server.metrics().errors() - serve_before.1;

    // Workload properties, over every read sent.
    let sent: Vec<u32> = warmup
        .iter()
        .chain(&logs)
        .flat_map(|log| log.samples.iter().map(|s| s.0))
        .collect();
    let distinct: BTreeSet<u32> = sent.iter().copied().collect();
    let shapes: BTreeSet<&str> = sent
        .iter()
        .map(|&i| mix.shapes[i as usize].name())
        .collect();
    let extended = sent
        .iter()
        .filter(|&&i| mix.shapes[i as usize] == Shape::AuthorOptional)
        .count();
    phase.repeat_share = 1.0 - distinct.len() as f64 / sent.len() as f64;
    phase.shapes = shapes.len();
    phase.extended_share = extended as f64 / sent.len() as f64;
    phase.updates_sent = writer.as_ref().map_or(0, |w| w.latencies.len());
    for log in warmup.iter().chain(&logs) {
        tally.add(log.tally);
    }
    if let Some(writer) = &writer {
        tally.add(writer.tally);
    }

    let samples: Vec<(u32, f64)> = logs.iter().flat_map(|l| l.samples.clone()).collect();
    let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let mut info = vec![
        ("sp2b_triples", triples.to_string()),
        ("setup_peak_rss_mb", number(setup_rss_mb)),
        ("reads", latencies.len().to_string()),
        ("repeat_share", phase.repeat_share.to_string()),
        ("shapes", phase.shapes.to_string()),
        ("extended_share", phase.extended_share.to_string()),
        ("updates_sent", phase.updates_sent.to_string()),
        ("compactions", phase.compactions.to_string()),
        (
            "result_hit_ratio",
            ratio(phase.result_hits, phase.result_hits + phase.result_misses).to_string(),
        ),
        (
            "plan_hit_ratio",
            ratio(phase.plan_hits, phase.plan_hits + phase.plan_misses).to_string(),
        ),
    ];
    if let Some(writer) = &writer {
        info.push(("writer_max_late_ms", writer.max_late_ms.to_string()));
    }
    let mut metrics = Metrics::default();
    let mut spans = None;
    if config.trace {
        let mut untraced = Replayer::new(Tracer::new(false), None);
        let mut traced = Replayer::new(tracer, None);
        let mut client = Client::connect(addr).expect("replay client connects");
        for (k, &index) in mix.sequences[0].iter().take(REPLAY_READS).enumerate() {
            for replayer in alternate(k, &mut untraced, &mut traced) {
                replayer
                    .read(
                        session,
                        Some(&mut client),
                        &mix.texts[index as usize],
                        Planner::Hsp,
                    )
                    .unwrap_or_else(|e| panic!("replay failed: {e}"));
            }
        }
        for i in 0..REPLAY_UPDATES {
            let (text, _, _) = replay_writes(config.seed.wrapping_add(1)).request(i);
            traced
                .update(session, &text)
                .unwrap_or_else(|e| panic!("replayed update failed: {e}"));
        }
        let (_, untraced_counts) = untraced.finish();
        drop(client);
        server.shutdown();
        drop(session_handle);
        let doc = gen::sp2b_document(config.sizes, config.seed);
        later_setups(&mut setup, |times| {
            start_server(&doc, &mut traced.tracer, times)
        });
        metrics = layer_metrics(&setup, &phase, tally, &traced, &untraced_counts);
        spans = Some(traced.finish().0.to_jsonl());
    } else {
        let done: Vec<f64> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
        metrics.set(
            "throughput_qps",
            median_rate(&done, config.seconds, RATE_WINDOWS),
        );
        metrics.set("latency_p50_ms", quantile(&latencies, 0.5));
        let mut by_time: Vec<(f64, f64)> = logs
            .iter()
            .flat_map(|l| l.done.iter().copied().zip(l.samples.iter().map(|s| s.1)))
            .collect();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        let in_time_order: Vec<f64> = by_time.into_iter().map(|(_, ms)| ms).collect();
        metrics.set(
            "latency_p99_ms",
            chunked_quantile(&in_time_order, 0.99, P99_CHUNK, RATE_WINDOWS),
        );
        metrics.set("geomean_ms.hsp", shape_geomean(&mix, &samples));

        // CDP probe: the CDP-plannable shapes through the same front door,
        // uncached, after the measured phase.
        let mut client = Client::connect(addr).expect("probe client connects");
        let mut cdp_samples = Vec::new();
        for &index in &cdp_probe {
            let start = Instant::now();
            let response = client.query("planner=cdp cache=off", &mix.texts[index as usize]);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let answer = response
                .ok()
                .as_deref()
                .and_then(ok_body)
                .and_then(Fingerprint::of_json);
            tally.record(answer.is_some() && answer == expected[index as usize]);
            cdp_samples.push((index, ms));
        }
        metrics.set("geomean_ms.cdp", shape_geomean(&mix, &cdp_samples));
        drop(client);
        server.shutdown();

        if let Some(writer) = &writer {
            // Publication latency is a fact of `mixed_write` only, the one
            // workload that writes; no end-to-end metric bounds it.
            let updates = &writer.latencies;
            info.push(("update_p50_ms", number(quantile(updates, 0.5))));
            info.push(("update_p99_ms", number(quantile(updates, 0.99))));
        }
        let chunk = latencies.len() / (latencies.len() / P99_CHUNK).clamp(1, RATE_WINDOWS);
        let above_p99 = chunk - (0.99 * chunk as f64).ceil() as usize;
        info.push(("reads_above_p99_per_chunk", above_p99.to_string()));
        common_metrics(&mut metrics, tally);
        drop(session_handle);
        let doc = gen::sp2b_document(config.sizes, config.seed);
        later_setups(&mut setup, |times| start_server(&doc, &mut tracer, times));
        metrics.set("setup_s", median(&setup.total));
    }
    progress("done");
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
        spans,
    }
}

/// Load `doc`, start a session and a server with its shipped defaults
/// (apart from the bind address), and have the server answer a probe.
fn start_server(doc: &str, tracer: &mut Tracer, times: &mut SetupTimes) -> ServerHandle {
    let session = Session::new(load(doc, tracer, times));
    let server = Server::start(
        session,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let response = client.query("cache=off", PROBE).expect("probe answered");
    assert!(response.starts_with("OK "), "probe refused: {response}");
    server
}

/// Geometric mean over shapes of each shape's median latency.
fn shape_geomean(mix: &ReadMix, samples: &[(u32, f64)]) -> f64 {
    let mut by_shape: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(index, ms) in samples {
        by_shape
            .entry(mix.shapes[index as usize].name())
            .or_default()
            .push(ms);
    }
    geomean(&by_shape.values().map(|v| median(v)).collect::<Vec<_>>())
}
