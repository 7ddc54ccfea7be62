//! Sensitivity self-test: stretching one layer call by `SPIN_FACTOR` must
//! move its workload's `ops_per_s` past the bound in BENCHMARK.json, and
//! leave every other workload within it.
//!
//! Slow (32 runs), so ignored by default:
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`

use perfbench::{run, RunConfig, WORKLOADS};

const SECONDS: f64 = 4.0;
const SEED: u64 = 3;

/// The `bound` of end-to-end metric `name` in BENCHMARK.json.
fn bound(name: &str) -> f64 {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let entry = &json[json
        .find(&format!("\"name\": \"{name}\""))
        .expect("metric listed")..];
    let value = &entry[entry.find("\"bound\": ").expect("bound") + 9..];
    let end = value
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .expect("number end");
    value[..end].parse().expect("bound is a number")
}

fn ops_per_s(workload: &str, spin: Option<&str>) -> f64 {
    let outcome = run(&RunConfig {
        workload: workload.to_string(),
        seed: SEED,
        seconds: SECONDS,
        trace: false,
        spin: spin.map(str::to_string),
    })
    .expect("run");
    assert!(
        outcome.correct,
        "{workload} under spin {spin:?} failed its checks"
    );
    outcome.metric("ops_per_s").expect("ops_per_s")
}

#[test]
#[ignore = "runs every workload under every spin, each paired with a plain run; minutes"]
fn a_spun_layer_moves_only_its_own_workload() {
    let bound = bound("ops_per_s");
    for (_, layer) in WORKLOADS {
        for (workload, own) in WORKLOADS {
            // A plain run right before each spun one, so that the host's
            // speed drifting over minutes does not enter the comparison.
            let base = ops_per_s(workload, None);
            let change = ops_per_s(workload, Some(layer)) / base - 1.0;
            eprintln!(
                "spin {layer:<16} {workload:<15} ops_per_s {:+.1}%",
                change * 100.0
            );
            if own == layer {
                assert!(
                    change < -bound,
                    "spinning {layer} moved {workload} by only {change:+.3}"
                );
            } else {
                assert!(
                    change.abs() <= bound,
                    "spinning {layer} moved {workload} by {change:+.3}"
                );
            }
        }
    }
}
