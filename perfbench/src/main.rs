//! Command-line entry point; see `README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spin LAYER]
//! ```
//!
//! The last line of standard output is the JSON result; progress and the
//! traced run's budget table go to standard error.

use perfbench::{run, RunConfig};

fn parse() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        spin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            "--spin" => cfg.spin = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let outcome = parse().and_then(|cfg| run(&cfg));
    match outcome {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spin LAYER]"
            );
            std::process::exit(2);
        }
    }
}
