//! Byte-identity of the pipeline executor against the operator-at-a-time
//! oracle: for randomly generated SP²Bench- and YAGO-shaped datasets and
//! plans, `execute` (pipeline lowering, the default) must produce a
//! [`BindingTable`] **equal in every field** — values, column order,
//! sortedness metadata, row count — to
//! [`ExecStrategy::OperatorAtATime`]'s output, at forced thread counts
//! 1–4 with tiny morsels (so even these small inputs split across
//! workers), and the per-operator [`Profile`] cardinalities must agree
//! row for row.

use hsp_engine::exec::{execute_in, ExecConfig, ExecError, ExecStrategy};
use hsp_engine::{BindingTable, ExecContext, MorselConfig, PhysicalPlan, QueryGovernor};
use hsp_rdf::Term;
use hsp_sparql::{CmpOp, FilterExpr, Operand, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};
use proptest::prelude::*;

fn cv(name: &str) -> TermOrVar {
    TermOrVar::Const(Term::iri(format!("http://e/{name}")))
}

fn vv(i: u32) -> TermOrVar {
    TermOrVar::Var(Var(i))
}

fn scan(idx: usize, s: TermOrVar, p: TermOrVar, o: TermOrVar, order: Order) -> PhysicalPlan {
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(s, p, o),
        order,
    }
}

/// An SP²Bench-shaped micro graph: articles cite articles, have numeric
/// years and venues — enough fan-out that joins produce skewed groups.
fn sp2b_doc(cites: &[(u8, u8)], years: &[(u8, u8)]) -> String {
    let mut doc = String::new();
    for &(a, b) in cites {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/cites> <http://e/art{b}> .\n"
        ));
    }
    for &(a, y) in years {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/year> \"{}\" .\n",
            1990 + (y as u32 % 30)
        ));
    }
    doc
}

/// A YAGO-shaped star: entities with several attribute predicates hanging
/// off the same subject variable.
fn yago_doc(facts: &[(u8, u8, u8)]) -> String {
    let preds = ["bornIn", "livesIn", "worksAt"];
    let mut doc = String::new();
    for &(s, p, o) in facts {
        doc.push_str(&format!(
            "<http://e/e{s}> <http://e/{}> <http://e/c{o}> .\n",
            preds[p as usize % preds.len()]
        ));
    }
    doc
}

/// Execute `plan` under the oracle and under the pipeline executor at
/// forced thread counts 1–4 (tiny morsels, no row threshold) and assert
/// byte-identical tables and identical per-operator cardinalities.
fn assert_pipeline_matches_oracle(ds: &Dataset, plan: &PhysicalPlan) -> Result<(), TestCaseError> {
    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let oracle = execute_in(plan, ds, &oracle_config, &oracle_config.context())
        .expect("oracle execution succeeds");
    let pipeline_config = ExecConfig::unlimited();
    for threads in 1..=4usize {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let out =
            execute_in(plan, ds, &pipeline_config, &ctx).expect("pipeline execution succeeds");
        prop_assert_eq!(&out.table, &oracle.table, "threads={}", threads);
        let mut got = Vec::new();
        out.profile
            .visit(&mut |p| got.push((p.label.clone(), p.output_rows)));
        let mut want = Vec::new();
        oracle
            .profile
            .visit(&mut |p| want.push((p.label.clone(), p.output_rows)));
        prop_assert_eq!(got, want, "profile diverges at threads={}", threads);
    }
    Ok(())
}

proptest! {
    /// SP²Bench-shaped chain: cites ⋈ cites ⋈ year with a numeric FILTER —
    /// the canonical scan → probe → probe → filter pipeline.
    #[test]
    fn sp2b_probe_chain_matches_oracle(
        cites in proptest::collection::vec((0u8..12, 0u8..12), 0..40),
        years in proptest::collection::vec((0u8..12, 0u8..30), 0..20),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        // ?a cites ?b . ?b cites ?c . ?b year ?y . FILTER(?y > 1995)
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(1), cv("cites"), vv(2), Order::Pso)),
                    vars: vec![Var(1)],
                }),
                right: Box::new(scan(2, vv(1), cv("year"), vv(3), Order::Pso)),
                vars: vec![Var(1)],
            }),
            expr: FilterExpr::Cmp {
                op: CmpOp::Gt,
                lhs: Operand::Var(Var(3)),
                rhs: Operand::Const(Term::literal("1995")),
            },
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// Merge-join + pipeline mix: a sorted merge join feeds a probe +
    /// filter pipeline, topped by projection / ORDER BY / slice breakers —
    /// every breaker kind in one plan.
    /// (Both inputs are kept non-empty: a scan over a predicate missing
    /// from the dictionary loses its static sortedness — in both
    /// executors — and the merge join rejects it before either runs.)
    #[test]
    fn sp2b_modifier_stack_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 1..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 1..15),
        offset in 0usize..5,
        limit in 1usize..8,
        distinct in any::<bool>(),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        // mergejoin(?a cites ?b, ?a year ?y) ⋈hj (?b year ?z), project,
        // order by ?y, slice.
        let plan = PhysicalPlan::Slice {
            input: Box::new(PhysicalPlan::OrderBy {
                input: Box::new(PhysicalPlan::Project {
                    input: Box::new(PhysicalPlan::HashJoin {
                        left: Box::new(PhysicalPlan::MergeJoin {
                            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                            right: Box::new(scan(1, vv(0), cv("year"), vv(2), Order::Pso)),
                            var: Var(0),
                        }),
                        right: Box::new(scan(2, vv(1), cv("year"), vv(3), Order::Pso)),
                        vars: vec![Var(1)],
                    }),
                    projection: vec![("a".into(), Var(0)), ("y".into(), Var(2))],
                    distinct,
                }),
                keys: vec![hsp_sparql::SortKey {
                    expr: hsp_sparql::Expr::Var(Var(2)),
                    descending: false,
                }],
            }),
            offset,
            limit: Some(limit),
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// YAGO-shaped star join on one subject variable: probe chains where
    /// every build side shares the same variable, plus a repeated-variable
    /// extra check (?0 appears in all three patterns).
    #[test]
    fn yago_star_matches_oracle(
        facts in proptest::collection::vec((0u8..10, 0u8..3, 0u8..6), 0..40),
    ) {
        let ds = Dataset::from_ntriples(&yago_doc(&facts)).unwrap();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("livesIn"), vv(2), Order::Pso)),
                vars: vec![Var(0)],
            }),
            right: Box::new(scan(2, vv(0), cv("worksAt"), vv(3), Order::Pso)),
            vars: vec![Var(0)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// A join whose inputs share a *non-key* variable exercises the probe
    /// stage's extra-check path (the repeated-variable verification that
    /// the operator-at-a-time join does through `extra_pairs`).
    #[test]
    fn shared_non_key_variable_matches_oracle(
        facts in proptest::collection::vec((0u8..6, 0u8..3, 0u8..4), 0..35),
    ) {
        let ds = Dataset::from_ntriples(&yago_doc(&facts)).unwrap();
        // Both sides bind ?0 and ?1: join on ?0, verify ?1 as extra.
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
            right: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(1, vv(0), cv("livesIn"), vv(1), Order::Pso)),
                right: Box::new(scan(2, vv(0), cv("worksAt"), vv(2), Order::Pso)),
                vars: vec![Var(0)],
            }),
            vars: vec![Var(0), Var(1)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// OPTIONAL chain: two left-outer probes over the cites graph —
    /// `?a cites ?b OPTIONAL { ?b year ?y } OPTIONAL { ?b cites ?c }` —
    /// unmatched rows carry UNBOUND, and the whole chain runs as one
    /// pipeline with outer-probe stages.
    #[test]
    fn optional_chain_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 0..12),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(PhysicalPlan::LeftOuterHashJoin {
                left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
                vars: vec![Var(1)],
            }),
            right: Box::new(scan(2, vv(1), cv("cites"), vv(3), Order::Pso)),
            vars: vec![Var(1)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        // The chain is one pipeline whose outer probes stream.
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.pipelines > 0);
        prop_assert_eq!(out.runtime.pipeline_outer_probes, 2);
    }

    /// OPTIONAL under a FILTER and a plain root projection: the filter
    /// reads the nullable (UNBOUND-padded) column, and the projection
    /// folds into the pipeline sink instead of breaking.
    #[test]
    fn root_projection_over_optional_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 0..12),
        keep_year in 1990u32..2020,
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::LeftOuterHashJoin {
                    left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
                    vars: vec![Var(1)],
                }),
                expr: FilterExpr::Cmp {
                    op: CmpOp::Ne,
                    lhs: Operand::Var(Var(2)),
                    rhs: Operand::Const(Term::literal(keep_year.to_string())),
                },
            }),
            projection: vec![("a".into(), Var(0)), ("y".into(), Var(2))],
            distinct: false,
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.pipelines > 0);
        prop_assert_eq!(out.runtime.pipeline_outer_probes, 1);
    }

    /// Plain root projection over a breaker (merge join): the breaker's
    /// single-consumer output hands off to the projection pipeline, whose
    /// sink moves the projected columns instead of copying.
    #[test]
    fn projection_handoff_over_merge_join_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 1..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 1..12),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("year"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            projection: vec![("y".into(), Var(2)), ("a".into(), Var(0))],
            distinct: false,
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.breaker_handoffs > 0);
    }

    /// Cross products (breakers) interleaved with a streaming filter.
    #[test]
    fn cross_product_with_filter_matches_oracle(
        facts in proptest::collection::vec((0u8..5, 0u8..1, 0u8..4), 0..20),
        years in proptest::collection::vec((0u8..5, 0u8..30), 0..10),
    ) {
        let mut doc = yago_doc(&facts);
        doc.push_str(&sp2b_doc(&[], &years));
        let ds = Dataset::from_ntriples(&doc).unwrap();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::CrossProduct {
                left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(2), cv("year"), vv(3), Order::Pso)),
            }),
            expr: FilterExpr::Cmp {
                op: CmpOp::Lt,
                lhs: Operand::Var(Var(3)),
                rhs: Operand::Const(Term::literal("2005")),
            },
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }
}

#[test]
fn empty_dataset_all_plan_shapes() {
    let ds = Dataset::from_ntriples("").unwrap();
    let plans = [
        scan(0, vv(0), cv("cites"), vv(1), Order::Pso),
        PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
            vars: vec![Var(1)],
        },
    ];
    for plan in &plans {
        let oracle = execute_in(
            plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
            &ExecConfig::unlimited().context(),
        )
        .unwrap();
        let out = execute_in(
            plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .unwrap();
        assert_eq!(out.table, oracle.table);
    }
}

/// The sort order-enforcer (a breaker) between two pipelines: scan → sort →
/// merge join, with the parallel merge sort underneath.
#[test]
fn sort_enforcer_feeds_merge_join_identically() {
    let mut doc = String::new();
    for i in 0..200u32 {
        doc.push_str(&format!(
            "<http://e/a{}> <http://e/p> <http://e/b{}> .\n",
            i % 40,
            (i * 7) % 23
        ));
        doc.push_str(&format!(
            "<http://e/b{}> <http://e/q> \"{}\" .\n",
            i % 23,
            i % 9
        ));
    }
    let ds = Dataset::from_ntriples(&doc).unwrap();
    // ?a p ?b sorted by ?b via POS? No: enforce with Sort instead.
    let plan = PhysicalPlan::MergeJoin {
        left: Box::new(PhysicalPlan::Sort {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            var: Var(1),
        }),
        right: Box::new(scan(1, vv(1), cv("q"), vv(2), Order::Pso)),
        var: Var(1),
    };
    let oracle = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    for threads in 1..=4usize {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(8)
                .with_min_parallel_rows(0),
        );
        let out = execute_in(&plan, &ds, &ExecConfig::unlimited(), &ctx).unwrap();
        assert_eq!(out.table, oracle.table, "threads={threads}");
        if threads > 1 {
            assert!(
                out.runtime.parallel_sorts > 0,
                "forced-parallel sort should fire: {:?}",
                out.runtime
            );
        }
    }
}

/// BindingTable sanity for the proptest harness itself: the oracle and the
/// pipeline must even agree on a zero-row filter result's metadata.
#[test]
fn empty_filter_result_metadata_matches() {
    let ds = Dataset::from_ntriples("<http://e/a> <http://e/year> \"1990\" .\n").unwrap();
    let plan = PhysicalPlan::Filter {
        input: Box::new(scan(0, vv(0), cv("year"), vv(1), Order::Pso)),
        expr: FilterExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Operand::Var(Var(1)),
            rhs: Operand::Const(Term::literal("3000")),
        },
    };
    let oracle = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    let out = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited(),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    assert!(out.table.is_empty());
    assert_eq!(out.table, oracle.table);
    let _: &BindingTable = &out.table;
}

/// Twelve articles, each citing three others, ten of them with a year:
/// 36 `cites` rows, 10 `year` rows, 108 two-hop citation paths.
fn budget_doc() -> String {
    let mut doc = String::new();
    for a in 0..12u32 {
        for step in [1u32, 3, 7] {
            doc.push_str(&format!(
                "<http://e/art{a}> <http://e/cites> <http://e/art{}> .\n",
                (a + step) % 12
            ));
        }
    }
    for a in 0..10u32 {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/year> \"{}\" .\n",
            1990 + a
        ));
    }
    doc
}

/// The row budget runs in the pipelines: tripping on a streamed probe
/// stage, on a cross product (before materialising it), on a pipeline's
/// scan source and on a breaker scan, the pipelines report exactly the
/// oracle's `BudgetExceeded` — pinned from the tree walk — at forced
/// threads 1–4, governed or not, and leave the pool balanced and the
/// memory account at zero.
#[test]
fn row_budget_trips_identically_in_pipelines_and_oracle() {
    let ds = Dataset::from_ntriples(&budget_doc()).unwrap();
    let two_hop = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(1), cv("cites"), vv(2), Order::Pso)),
            vars: vec![Var(1)],
        }),
        expr: FilterExpr::Cmp {
            op: CmpOp::Ne,
            lhs: Operand::Var(Var(0)),
            rhs: Operand::Var(Var(2)),
        },
    };
    let cross = PhysicalPlan::CrossProduct {
        left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
        right: Box::new(scan(1, vv(2), cv("year"), vv(3), Order::Pso)),
    };
    let dated = PhysicalPlan::HashJoin {
        left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
        right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
        vars: vec![Var(1)],
    };
    // (plan, budget, operator, rows) — the tree walk's errors.
    let cases = [
        (&two_hop, 36, "hashjoin(?v1)", 108),
        (&cross, 36, "crossproduct", 360),
        (&dated, 20, "scan(pso) [tp0]", 36),
        (&dated, 5, "scan(pso) [tp1]", 10),
    ];
    // The first case's trip is inside a pipeline, not at a breaker.
    assert_eq!(
        hsp_engine::pipeline::lower(&two_hop, false).pipeline_count(),
        1
    );
    for (plan, budget, operator, rows) in cases {
        let want = ExecError::BudgetExceeded {
            operator: operator.into(),
            rows,
            budget,
        };
        for strategy in [ExecStrategy::Auto, ExecStrategy::OperatorAtATime] {
            for threads in 1..=4usize {
                for governed in [false, true] {
                    let config = ExecConfig::with_row_budget(budget).with_strategy(strategy);
                    let mut ctx = ExecContext::with_morsel_config(
                        MorselConfig::with_threads(threads)
                            .with_morsel_rows(4)
                            .with_min_parallel_rows(0),
                    );
                    if governed {
                        ctx.set_governor(Some(QueryGovernor::new().with_mem_budget(usize::MAX)));
                    }
                    let got = execute_in(plan, &ds, &config, &ctx).unwrap_err();
                    let at = format!("{strategy:?} threads={threads} governed={governed}");
                    assert_eq!(got, want, "{at}");
                    let stats = ctx.pool.stats();
                    assert_eq!(
                        stats.hits + stats.misses,
                        stats.returned,
                        "{at}: pool imbalance {stats:?}"
                    );
                    if let Some(gov) = ctx.governor() {
                        assert_eq!(gov.mem_used(), 0, "{at}: leaked memory accounting");
                    }
                }
            }
        }
    }
}
