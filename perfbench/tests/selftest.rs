//! Self-test of the benchmark on small data: every workload prints every
//! metric with its unit and answers every request correctly, a planted
//! wrong expectation is counted as a failure, and `BENCHMARK.json` lists
//! exactly the metrics the benchmark prints and only workloads it runs.

use perfbench::gen::Sizes;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Workload};

const SMALL: Sizes = Sizes {
    sp2b: 20_000,
    yago: 20_000,
};

fn config(workload: Workload, trace: bool, plant_wrong_answer: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        sizes: SMALL,
        plant_wrong_answer,
    }
}

#[test]
fn short_runs_print_every_metric_and_answer_correctly() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&config(workload, trace, false));
            let name = workload.name();
            assert!(out.attempted > 0, "{name}: nothing attempted");
            assert_eq!(
                out.failed, 0,
                "{name} (trace {trace}): error_share must be 0"
            );
            let table = if trace { PER_LAYER } else { END_TO_END };
            let json = out.metrics.to_json(table);
            for (metric, unit) in table {
                let printed = format!("\"{metric}\": {{\"value\": ");
                assert!(
                    json.contains(&printed),
                    "{name}: {metric} missing from {json}"
                );
                assert!(
                    json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {unit}"
                );
                let value = out.metrics.get(metric).expect("measured");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if !trace {
                    assert!(value > 0.0, "{name}: end-to-end {metric} must not be 0");
                }
            }
            assert_eq!(out.spans.is_some(), trace, "{name}: spans only when traced");
        }
    }
}

#[test]
fn planted_wrong_answer_counts_as_a_failure() {
    for workload in Workload::ALL {
        let out = run(&config(workload, false, true));
        assert!(
            out.failed >= 1,
            "{}: the planted answer went unnoticed",
            workload.name()
        );
        assert!(out.metrics.get("ok_share").expect("measured") < 1.0);
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    for (metric, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{metric}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{metric} ({unit}) not in BENCHMARK.json"
        );
    }
    let workloads = Workload::ALL
        .iter()
        .filter(|w| json.contains(&format!("\"name\": \"{}\"", w.name())))
        .count();
    assert!(workloads >= 2, "BENCHMARK.json lists {workloads} workloads");
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + workloads,
        "BENCHMARK.json names something the benchmark does not print or run"
    );
}
