//! Planner dispatch for the harness.

use std::time::Instant;

use hsp_baseline::cdp::CdpError;
use hsp_baseline::{CdpPlanner, HybridPlanner, LeftDeepPlanner, StockerPlanner};
use hsp_core::{HspConfig, HspPlanner};
use hsp_engine::plan::PhysicalPlan;
use hsp_engine::{execute, ExecConfig, ExecOutput};
use hsp_sparql::rewrite::rewrite_filters;
use hsp_sparql::JoinQuery;
use hsp_store::Dataset;

/// The planners compared in the paper's evaluation (plus the hybrid
/// extension from its future-work section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// The heuristic planner (the paper's contribution) — `MonetDB/HSP`.
    Hsp,
    /// The RDF-3X-style cost-based DP baseline — `RDF-3X/CDP`.
    Cdp,
    /// The SQL-style left-deep baseline — `MonetDB/SQL`.
    Sql,
    /// HSP structure + cost-based ordering (paper §7 future work).
    Hybrid,
    /// Stocker et al.'s selectivity-estimation framework (the paper's
    /// related-work reference \[32\]) — summary statistics, greedy
    /// most-selective-first left-deep ordering.
    Stocker,
}

impl PlannerKind {
    /// All five planners.
    pub const ALL: [PlannerKind; 5] = [
        PlannerKind::Hsp,
        PlannerKind::Cdp,
        PlannerKind::Sql,
        PlannerKind::Hybrid,
        PlannerKind::Stocker,
    ];

    /// The paper's three evaluated systems.
    pub const PAPER: [PlannerKind; 3] = [PlannerKind::Hsp, PlannerKind::Cdp, PlannerKind::Sql];

    /// Row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PlannerKind::Hsp => "MonetDB/HSP",
            PlannerKind::Cdp => "RDF-3X/CDP",
            PlannerKind::Sql => "MonetDB/SQL",
            PlannerKind::Hybrid => "Hybrid",
            PlannerKind::Stocker => "Stocker-SEL",
        }
    }
}

/// A planned query, ready for execution.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// The query the plan's pattern indices refer to (post-rewrite).
    pub query: JoinQuery,
    /// Planning wall-clock time in seconds.
    pub planning_seconds: f64,
    /// `true` if CDP needed the manually-rewritten (unified) query — the
    /// paper did the same for SP4a ("we manually rewrote them into their
    /// equivalent form by eliminating the FILTER expressions").
    pub cdp_used_rewritten: bool,
}

/// Plan `query` with the given planner.
///
/// CDP refuses cross-product queries (as RDF-3X does); for those the
/// harness re-plans on the filter-rewritten form, mirroring the paper's
/// manual rewrite, and records that it did.
pub fn plan_query(
    kind: PlannerKind,
    ds: &Dataset,
    query: &JoinQuery,
) -> Result<PlannedQuery, String> {
    let start = Instant::now();
    match kind {
        PlannerKind::Hsp => {
            let planner = HspPlanner::with_config(HspConfig::default());
            let out = planner.plan(query).map_err(|e| e.to_string())?;
            Ok(PlannedQuery {
                plan: out.plan,
                query: out.query,
                planning_seconds: start.elapsed().as_secs_f64(),
                cdp_used_rewritten: false,
            })
        }
        PlannerKind::Cdp => {
            let planner = CdpPlanner::new();
            match planner.plan(ds, query) {
                Ok(out) => Ok(PlannedQuery {
                    plan: out.plan,
                    query: out.query,
                    planning_seconds: start.elapsed().as_secs_f64(),
                    cdp_used_rewritten: false,
                }),
                Err(CdpError::CrossProduct) => {
                    let (rewritten, _) = rewrite_filters(query);
                    let out = planner.plan(ds, &rewritten).map_err(|e| e.to_string())?;
                    Ok(PlannedQuery {
                        plan: out.plan,
                        query: out.query,
                        planning_seconds: start.elapsed().as_secs_f64(),
                        cdp_used_rewritten: true,
                    })
                }
                Err(e) => Err(e.to_string()),
            }
        }
        PlannerKind::Sql => {
            let out = LeftDeepPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok(PlannedQuery {
                plan: out.plan,
                query: out.query,
                planning_seconds: start.elapsed().as_secs_f64(),
                cdp_used_rewritten: false,
            })
        }
        PlannerKind::Hybrid => {
            let out = HybridPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok(PlannedQuery {
                plan: out.plan,
                query: out.query,
                planning_seconds: start.elapsed().as_secs_f64(),
                cdp_used_rewritten: false,
            })
        }
        PlannerKind::Stocker => {
            let out = StockerPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok(PlannedQuery {
                plan: out.plan,
                query: out.query,
                planning_seconds: start.elapsed().as_secs_f64(),
                cdp_used_rewritten: false,
            })
        }
    }
}

/// Timing result of the warm-run protocol.
#[derive(Debug, Clone)]
pub enum TimedRun {
    /// Mean milliseconds of the warm runs, plus the executed output of the
    /// last run.
    Ok {
        /// Mean warm-run time (ms).
        mean_ms: f64,
        /// Result rows.
        rows: usize,
        /// The last run's output (profile included), boxed so the enum
        /// stays pointer-sized next to the `Failed` variant.
        output: Box<ExecOutput>,
    },
    /// Execution failed (e.g. the row budget tripped on a Cartesian
    /// product) — the paper prints `XXX`.
    Failed(String),
}

/// The paper's §6.1 protocol: run `runs` times warm, drop the first run,
/// report the mean of the rest.
pub fn timed_warm_runs(
    plan: &PhysicalPlan,
    ds: &Dataset,
    runs: usize,
    row_budget: usize,
) -> TimedRun {
    let config = ExecConfig::with_row_budget(row_budget);
    let mut last: Option<ExecOutput> = None;
    let mut total = 0.0;
    let timed = runs.max(2) - 1;
    for i in 0..=timed {
        let start = Instant::now();
        match execute(plan, ds, &config) {
            Ok(out) => {
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                if i > 0 {
                    total += elapsed;
                }
                last = Some(out);
            }
            Err(e) => return TimedRun::Failed(e.to_string()),
        }
    }
    let output = last.expect("at least one run");
    TimedRun::Ok {
        mean_ms: total / timed as f64,
        rows: output.table.len(),
        output: Box::new(output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_datagen::{generate_sp2bench, Sp2BenchConfig};

    fn ds() -> Dataset {
        generate_sp2bench(Sp2BenchConfig {
            target_triples: 10_000,
            seed: 1,
        })
    }

    fn sp1() -> JoinQuery {
        hsp_datagen::workload()
            .into_iter()
            .find(|q| q.id == "SP1")
            .unwrap()
            .parse()
    }

    #[test]
    fn all_planners_plan_sp1() {
        let ds = ds();
        let q = sp1();
        for kind in PlannerKind::ALL {
            let planned = plan_query(kind, &ds, &q).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(planned.plan.validate().is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn planners_agree_on_sp1_result() {
        let ds = ds();
        let q = sp1();
        let mut results = Vec::new();
        for kind in PlannerKind::ALL {
            let planned = plan_query(kind, &ds, &q).unwrap();
            let out = execute(&planned.plan, &ds, &hsp_engine::ExecConfig::unlimited()).unwrap();
            let proj: Vec<_> = planned.query.projection.iter().map(|&(_, v)| v).collect();
            results.push(out.table.sorted_rows_for(&proj));
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn cdp_falls_back_to_rewritten_sp4a() {
        let ds = ds();
        let q = hsp_datagen::workload()
            .into_iter()
            .find(|q| q.id == "SP4a")
            .unwrap()
            .parse();
        let planned = plan_query(PlannerKind::Cdp, &ds, &q).unwrap();
        assert!(planned.cdp_used_rewritten);
        assert!(planned.plan.validate().is_ok());
    }

    #[test]
    fn warm_runs_report_mean() {
        let ds = ds();
        let q = sp1();
        let planned = plan_query(PlannerKind::Hsp, &ds, &q).unwrap();
        match timed_warm_runs(&planned.plan, &ds, 3, 1_000_000) {
            TimedRun::Ok { mean_ms, rows, .. } => {
                assert!(mean_ms >= 0.0);
                assert_eq!(rows, 1); // exactly one "Journal 1 (1940)"
            }
            TimedRun::Failed(e) => panic!("unexpected failure: {e}"),
        }
    }

    #[test]
    fn sql_sp4a_trips_budget() {
        let ds = ds();
        let q = hsp_datagen::workload()
            .into_iter()
            .find(|q| q.id == "SP4a")
            .unwrap()
            .parse();
        let planned = plan_query(PlannerKind::Sql, &ds, &q).unwrap();
        match timed_warm_runs(&planned.plan, &ds, 2, 10_000) {
            TimedRun::Failed(msg) => assert!(msg.contains("budget")),
            TimedRun::Ok { .. } => panic!("SP4a under SQL should explode"),
        }
    }
}
