//! `paper`: the paper's experiment. The 14 workload queries on the
//! SP2Bench-like and YAGO-like data, each under HSP and under CDP,
//! through `Session::query` with the caches bypassed, by one closed-loop
//! client running whole passes.

use std::time::{Duration, Instant};

use sparql_hsp::datagen::DatasetKind;
use sparql_hsp::engine::ExecStrategy;
use sparql_hsp::session::{Planner, Request, Session};

use crate::check::Fingerprint;
use crate::gen::{self, paper_queries};
use crate::replay::{alternate, Replayer};
use crate::report::{number, Metrics};
use crate::stats::{geomean, median, quantile_interpolated};
use crate::trace::Tracer;
use crate::{
    common_metrics, first_answer, later_setups, layer_metrics, load, progress, replay_writes,
    timed_setup, Config, Outcome, PhaseCounters, SessionCounters, SetupTimes, Tally,
    REPLAY_UPDATES,
};

const PLANNERS: [Planner; 2] = [Planner::Hsp, Planner::Cdp];

/// Thread budget of every paper request. The paper compares plans, and on
/// a 2-vCPU host whose vCPUs may share a physical core, parallel kernels
/// made run-to-run figures swing by about 15%; single-threaded they hold
/// within about 5%.
const THREADS: usize = 1;

/// The SP2Bench-like and YAGO-like N-Triples documents.
fn documents(config: &Config) -> (String, String) {
    (
        gen::sp2b_document(config.sizes, config.seed),
        gen::yago_document(config.sizes, config.seed),
    )
}

/// Load both documents and open a session on each, answering a probe.
fn open_sessions(
    sp2b_doc: &str,
    yago_doc: &str,
    tracer: &mut Tracer,
    times: &mut SetupTimes,
) -> [Session; 2] {
    let sp2b = load(sp2b_doc, tracer, times);
    let yago = load(yago_doc, tracer, times);
    let sessions = [Session::new(sp2b), Session::new(yago)];
    sessions.iter().for_each(first_answer);
    sessions
}

pub(crate) fn run(config: &Config) -> Outcome {
    let (sp2b_doc, yago_doc) = documents(config);
    progress("inputs generated");
    let mut tracer = Tracer::new(config.trace);
    let mut setup = SetupTimes::default();
    let sessions = timed_setup(&mut setup, |times| {
        open_sessions(&sp2b_doc, &yago_doc, &mut tracer, times)
    });
    drop((sp2b_doc, yago_doc));
    let session_of = |kind: DatasetKind| match kind {
        DatasetKind::Sp2Bench => &sessions[0],
        DatasetKind::Yago => &sessions[1],
    };

    progress("set up");
    let setup_rss_mb = crate::stats::peak_rss_mb().unwrap_or(f64::NAN);
    // The oracle: every query once through the operator-at-a-time
    // executor, whose answer each (query, planner) result must equal.
    let queries = paper_queries();
    let mut oracle: Vec<Fingerprint> = queries
        .iter()
        .map(|(q, _, _)| {
            let request = Request::new(q.text)
                .with_strategy(ExecStrategy::OperatorAtATime)
                .without_cache();
            let response = session_of(q.dataset)
                .query(request)
                .unwrap_or_else(|e| panic!("oracle run of {} failed: {e}", q.id));
            Fingerprint::of_output(&response.output)
        })
        .collect();
    if config.plant_wrong_answer {
        oracle[0] = oracle[0].corrupted();
    }
    // One pass: every query under both planners; CDP gets the
    // filter-unified SP4a.
    let pass: Vec<(usize, Planner, &str, &Session)> = queries
        .iter()
        .enumerate()
        .flat_map(|(i, (q, hsp, cdp))| {
            let session = session_of(q.dataset);
            [
                (i, Planner::Hsp, *hsp, session),
                (i, Planner::Cdp, *cdp, session),
            ]
        })
        .collect();

    let mut tally = Tally::default();
    let mut run_pass = |latencies: &mut Vec<(usize, Planner, f64)>| {
        for &(i, planner, text, session) in &pass {
            let request = Request::new(text)
                .with_planner(planner)
                .with_threads(THREADS)
                .without_cache();
            let start = Instant::now();
            let response = session.query(request);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            tally.record(
                matches!(&response, Ok(r) if Fingerprint::of_output(&r.output) == oracle[i]),
            );
            latencies.push((i, planner, ms));
        }
    };
    // The oracle run doubles as the warm-up.
    progress("oracle computed");
    let before = [&sessions[0], &sessions[1]].map(SessionCounters::of);
    let mut latencies = Vec::new();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(config.seconds);
    let mut pass_qps = Vec::new();
    while latencies.is_empty() || start.elapsed() < deadline {
        let pass_start = Instant::now();
        run_pass(&mut latencies);
        pass_qps.push(pass.len() as f64 / pass_start.elapsed().as_secs_f64());
    }
    progress("measured phase done");
    let phases = [0, 1].map(|k| PhaseCounters::session_delta(&sessions[k], &before[k]));
    let mut phase = PhaseCounters {
        pool_batches: phases.iter().map(|p| p.pool_batches).sum(),
        cross_query_switches: phases.iter().map(|p| p.cross_query_switches).sum(),
        shapes: queries.len(),
        ..PhaseCounters::default()
    };
    phase.compactions = phases.iter().map(|p| p.compactions).sum();

    let mut info = vec![
        ("sp2b_triples", sessions[0].snapshot().len().to_string()),
        ("yago_triples", sessions[1].snapshot().len().to_string()),
        ("setup_peak_rss_mb", number(setup_rss_mb)),
        (
            "pass_qps",
            format!(
                "[{}]",
                pass_qps
                    .iter()
                    .map(|q| format!("{q:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "cdp_sp4a_text",
            "\"filter-unified (?hp2 renamed ?hp1)\"".to_string(),
        ),
    ];
    let mut metrics = Metrics::default();
    let mut spans = None;
    if config.trace {
        let mut untraced = Replayer::new(Tracer::new(false), Some(THREADS));
        let mut traced = Replayer::new(tracer, Some(THREADS));
        for (k, &(_, planner, text, session)) in pass.iter().enumerate() {
            for replayer in alternate(k, &mut untraced, &mut traced) {
                replayer
                    .read(session, None, text, planner)
                    .unwrap_or_else(|e| panic!("replay failed: {e}"));
            }
        }
        for i in 0..REPLAY_UPDATES {
            let (text, _, _) = replay_writes(config.seed).request(i);
            traced
                .update(&sessions[0], &text)
                .unwrap_or_else(|e| panic!("replayed update failed: {e}"));
        }
        let (_, untraced_counts) = untraced.finish();
        drop(pass);
        drop(sessions);
        let (sp2b_doc, yago_doc) = documents(config);
        later_setups(&mut setup, |times| {
            open_sessions(&sp2b_doc, &yago_doc, &mut traced.tracer, times)
        });
        metrics = layer_metrics(&setup, &phase, tally, &traced, &untraced_counts);
        spans = Some(traced.finish().0.to_jsonl());
    } else {
        // Per pass, then the median over passes: a pass holds each query
        // once, so pooled percentiles would sit on the boundary between two
        // queries' latencies.
        let per_pass = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
            let values: Vec<f64> = latencies
                .chunks(pass.len())
                .map(|chunk| f(&chunk.iter().map(|l| l.2).collect::<Vec<_>>()))
                .collect();
            median(&values)
        };
        metrics.set("throughput_qps", median(&pass_qps));
        metrics.set(
            "latency_p50_ms",
            per_pass(&|v| quantile_interpolated(v, 0.5)),
        );
        metrics.set(
            "latency_p99_ms",
            per_pass(&|v| quantile_interpolated(v, 0.99)),
        );
        for (planner, name) in PLANNERS.iter().zip(["geomean_ms.hsp", "geomean_ms.cdp"]) {
            let medians: Vec<f64> = (0..queries.len())
                .map(|i| {
                    let of_query: Vec<f64> = latencies
                        .iter()
                        .filter(|l| l.0 == i && l.1 == *planner)
                        .map(|l| l.2)
                        .collect();
                    median(&of_query)
                })
                .collect();
            metrics.set(name, geomean(&medians));
        }
        common_metrics(&mut metrics, tally);
        drop(pass);
        drop(sessions);
        let (sp2b_doc, yago_doc) = documents(config);
        later_setups(&mut setup, |times| {
            open_sessions(&sp2b_doc, &yago_doc, &mut tracer, times)
        });
        metrics.set("setup_s", median(&setup.total));
    }
    info.push(("reads", latencies.len().to_string()));
    progress("done");
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
        spans,
    }
}
