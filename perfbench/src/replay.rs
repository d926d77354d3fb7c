//! The traced replay: each read goes through the public calls of every
//! layer, in the order `Session::query` makes them (parse, join parse,
//! canonicalise, plan, execute, decode; or the extended evaluator), next
//! to the same request through `Session::query`, the result renderer and,
//! for the serving workloads, the TCP client. Differences between those
//! timings give the session's and the wire's own share.
//!
//! The session canonicalises only to look a query up in its cache, so the
//! uncached requests replayed here skip that step inside
//! `Session::query`. The replay still times `canonicalize` on its own,
//! and leaves it out of the layer sum that `session.overhead_ms`
//! subtracts.

use std::collections::BTreeMap;

use sparql_hsp::baseline::CdpPlanner;
use sparql_hsp::engine::{execute_in, ExecConfig, MorselConfig, SharedPool};
use sparql_hsp::extended::evaluate_ast_in;
use sparql_hsp::hsp::HspPlanner;
use sparql_hsp::rdf::Term;
use sparql_hsp::results::to_sparql_json;
use sparql_hsp::serve::Client;
use sparql_hsp::session::{Planner, Request, Session};
use sparql_hsp::sparql::{canonicalize, parse_query, JoinQuery};

use crate::stats::mean;
use crate::trace::Tracer;

/// Memory budget of the extra governed execution that reads the
/// governor's peak (large enough never to trip).
const GOVERNOR_PROBE_BYTES: usize = 1 << 40;

/// Work counters summed over the replayed requests.
#[derive(Debug, Default)]
pub struct Counts {
    pub intermediate_rows: u64,
    pub pipeline_rows_avoided: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub governor_mem_peak: u64,
    pub merged_scans: u64,
    pub decoded_cells: u64,
    pub render_bytes: Vec<f64>,
    pub delta_rows: Vec<f64>,
    pub session_overhead_ms: Vec<f64>,
    pub wire_ms: Vec<f64>,
    /// Whole-request time per replayed read, for the tracing overhead.
    pub request_ms: Vec<f64>,
}

pub struct Replayer {
    pub tracer: Tracer,
    pub counts: Counts,
    /// Mirrors the session's shared pool, so kernels schedule the same way.
    pool: SharedPool,
    /// The request's thread budget, as `Request::with_threads` sets it.
    threads: Option<usize>,
}

impl Replayer {
    pub fn new(tracer: Tracer, threads: Option<usize>) -> Replayer {
        Replayer {
            tracer,
            counts: Counts::default(),
            pool: SharedPool::new(MorselConfig::auto().threads()),
            threads,
        }
    }

    /// Replay one read; `client` sends it over TCP too (`cache=off`, like
    /// the in-process calls). Errors are returned as text.
    pub fn read(
        &mut self,
        session: &Session,
        client: Option<&mut Client>,
        text: &str,
        planner: Planner,
    ) -> Result<(), String> {
        let id = self.tracer.request_id();
        let pool = &self.pool;
        let threads = self.threads;
        let counts = &mut self.counts;
        let mut layers_ms = 0.0;
        let (result, total_ms) = self.tracer.span(id, "request", |t| {
            let client_ms = match client {
                Some(client) => {
                    let mut options = format!("cache=off planner={}", planner_name(planner));
                    if let Some(n) = threads {
                        options.push_str(&format!(" threads={n}"));
                    }
                    let (response, ms) =
                        t.span(id, "serve.client", |_| client.query(&options, text));
                    let response = response.map_err(|e| e.to_string())?;
                    if !response.starts_with("OK ") {
                        return Err(response);
                    }
                    Some(ms)
                }
                None => None,
            };
            let mut request = Request::new(text).with_planner(planner).without_cache();
            if let Some(n) = threads {
                request = request.with_threads(n);
            }
            let (response, session_ms) = t.span(id, "session.query", |_| session.query(request));
            let response = response.map_err(|e| e.to_string())?;
            counts
                .delta_rows
                .push(response.metrics.store_delta_rows as f64);
            let (json, render_ms) =
                t.span(id, "results.render", |_| to_sparql_json(&response.output));
            counts.render_bytes.push(json.len() as f64);
            // Free the session's answer before the layer calls rebuild it.
            drop((response, json));
            if let Some(client_ms) = client_ms {
                counts.wire_ms.push(client_ms - session_ms - render_ms);
            }

            let ds = session.snapshot();
            let mut config = ExecConfig::unlimited();
            config.threads = threads;
            let (ast, ms) = t.span(id, "sparql.parse", |_| parse_query(text));
            layers_ms += ms;
            let (join, ms) = t.span(id, "sparql.parse", |_| JoinQuery::parse(text));
            layers_ms += ms;
            let plan = match join {
                Ok(query) => {
                    let planned = if planner == Planner::Hsp {
                        // Not in `layers_ms`: the uncached session skips it.
                        t.span(id, "sparql.canon", |_| canonicalize(&query));
                        let (p, ms) = t.span(id, "core.plan", |_| HspPlanner::new().plan(&query));
                        layers_ms += ms;
                        p.map(|p| (p.plan, p.query)).map_err(|e| e.to_string())
                    } else {
                        let (p, ms) =
                            t.span(id, "baseline.plan", |_| CdpPlanner::new().plan(&ds, &query));
                        layers_ms += ms;
                        p.map(|p| (p.plan, p.query)).map_err(|e| e.to_string())
                    };
                    let (plan, planned_query) = planned?;
                    let ctx = config.context();
                    let (output, ms) = t.span(id, "engine.exec", |_| {
                        let _installed = pool.install(id);
                        execute_in(&plan, &ds, &config, &ctx)
                    });
                    layers_ms += ms;
                    let output = output.map_err(|e| e.to_string())?;
                    let (rows, ms) = t.span(id, "rdf.decode", |_| {
                        (0..output.table.len())
                            .map(|i| {
                                planned_query
                                    .projection
                                    .iter()
                                    .map(|&(_, v)| output.term(&ds, output.table.value(v, i)))
                                    .collect::<Vec<Option<Term>>>()
                            })
                            .collect::<Vec<_>>()
                    });
                    layers_ms += ms;
                    counts.decoded_cells += (rows.len() * planned_query.projection.len()) as u64;
                    counts.intermediate_rows += output.profile.total_intermediate_rows() as u64;
                    counts.pipeline_rows_avoided += output.runtime.pipeline_rows_avoided as u64;
                    counts.pool_hits += output.runtime.pool_hits as u64;
                    counts.pool_misses += output.runtime.pool_misses as u64;
                    counts.merged_scans += output.runtime.merged_scans as u64;
                    Some(plan)
                }
                Err(_) => {
                    let ast = ast.map_err(|e| e.to_string())?;
                    // The session parses the text a second time on this path.
                    let (_, ms) = t.span(id, "sparql.parse", |_| parse_query(text));
                    layers_ms += ms;
                    let (output, ms) = t.span(id, "extended.query", |_| {
                        let _installed = pool.install(id);
                        evaluate_ast_in(&ds, &ast, &config, &config.context())
                    });
                    layers_ms += ms;
                    output.map_err(|e| e.to_string())?;
                    None
                }
            };
            counts.session_overhead_ms.push(session_ms - layers_ms);
            Ok(plan)
        });
        counts.request_ms.push(total_ms);
        // Outside the request span: one governed execution of the same
        // plan, whose governor records the peak bytes it admitted.
        if let Some(plan) = result? {
            let ds = session.snapshot();
            let mut config = ExecConfig::unlimited().with_mem_budget(GOVERNOR_PROBE_BYTES);
            config.threads = self.threads;
            let output =
                execute_in(&plan, &ds, &config, &config.context()).map_err(|e| e.to_string())?;
            let peak = output.runtime.governor_mem_peak as u64;
            self.counts.governor_mem_peak = self.counts.governor_mem_peak.max(peak);
        }
        Ok(())
    }

    /// Replay one update through `Session::update`.
    pub fn update(&mut self, session: &Session, text: &str) -> Result<(), String> {
        let id = self.tracer.request_id();
        let (result, _) = self
            .tracer
            .span(id, "update.publish", |_| session.update(Request::new(text)));
        result.map(drop).map_err(|e| e.to_string())
    }

    /// Per layer: mean self time per request that called it, in ms.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, self_ns) in self.tracer.spans().iter().zip(self.tracer.self_ns()) {
            *per_request.entry((s.name, s.request)).or_default() += self_ns as f64 / 1e6;
        }
        let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ms) in per_request {
            by_layer.entry(name).or_default().push(ms);
        }
        by_layer.into_iter().map(|(k, v)| (k, mean(&v))).collect()
    }

    pub fn finish(self) -> (Tracer, Counts) {
        self.pool.shutdown();
        (self.tracer, self.counts)
    }
}

/// Both replayers, the untraced one first on even requests and the traced
/// one first on odd ones, so warm-up and ordering cancel out of the
/// tracing overhead.
pub fn alternate<'a>(
    k: usize,
    untraced: &'a mut Replayer,
    traced: &'a mut Replayer,
) -> [&'a mut Replayer; 2] {
    if k.is_multiple_of(2) {
        [untraced, traced]
    } else {
        [traced, untraced]
    }
}

pub fn planner_name(planner: Planner) -> &'static str {
    match planner {
        Planner::Cdp => "cdp",
        _ => "hsp",
    }
}
