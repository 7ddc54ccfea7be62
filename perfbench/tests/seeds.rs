//! A seed fixes the inputs and everything deterministic the benchmark
//! reports; another seed changes the inputs.
//!
//! Each run lasts one pass (`seconds` is tiny), so run with `--release`.

use perfbench::{input_digest, run, Outcome, RunConfig, WORKLOADS};

/// Per-layer metrics derived from wall-clock time, which no seed fixes.
const TIMED: [&str; 4] = [
    "telemetry.live_overhead",
    "bench.trace_overhead",
    "bench.budget_error",
    "par.utilization",
];

fn once(workload: &str, seed: u64, trace: bool) -> Outcome {
    run(&RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 1e-3,
        trace,
        spin: None,
    })
    .expect("run")
}

/// The deterministic per-layer values: counts and ratios of counts.
fn counts(o: &Outcome) -> Vec<(String, f64)> {
    o.metrics
        .iter()
        .filter(|m| m.unit != "s/op" && !TIMED.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn a_seed_reproduces_goodput_and_layer_counts() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (once(workload, 7, false), once(workload, 7, false));
        assert!(a.correct && b.correct, "{workload}: checks failed");
        assert_eq!(
            a.metric("goodput_mbps"),
            b.metric("goodput_mbps"),
            "{workload}: goodput differs between runs of one seed"
        );
        assert!(a.metric("goodput_mbps").unwrap() > 0.0, "{workload}");

        let (a, b) = (once(workload, 7, true), once(workload, 7, true));
        assert!(a.correct && b.correct, "{workload}: traced checks failed");
        assert_eq!(counts(&a), counts(&b), "{workload}: layer counts differ");
        assert!(
            counts(&a).iter().any(|(_, v)| *v != 0.0),
            "{workload}: no layer counts"
        );
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for (workload, _) in WORKLOADS {
        let a = input_digest(workload, 7).expect("digest");
        assert_eq!(a, input_digest(workload, 7).expect("digest"), "{workload}");
        assert_ne!(a, input_digest(workload, 8).expect("digest"), "{workload}");
    }
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    for (name, unit) in perfbench::PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(
            per_layer.contains(&entry),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    assert_eq!(
        per_layer.matches("\"name\"").count(),
        perfbench::PER_LAYER.len(),
        "BENCHMARK.json lists per-layer metrics the harness does not print"
    );
}
