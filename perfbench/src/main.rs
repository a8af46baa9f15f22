//! Steady-state benchmark of Camus's packet path and mutation path.
//!
//! `camus-perfbench --workload <name> --seed <n> --seconds <s> --trace
//! <0|1>` sets the workload up, measures it for `--seconds`, checks its
//! outputs and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

mod churn;
mod common;
mod fabric;
mod feed;
mod layers;

use common::{result_line, Args, Seeds};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seeds = Seeds::from_workload_seed(args.seed);
    let outcome = match args.workload.as_str() {
        "feed_symbol" | "feed_price" => feed::run(&args.workload, &args, seeds),
        "churn" => churn::run(&args, seeds),
        "fabric" => fabric::run(&args, seeds),
        other => Err(format!(
            "unknown workload {other} (feed_symbol, feed_price, churn, fabric)"
        )),
    };
    let outcome =
        outcome.and_then(
            |out| match out.metrics.iter().find(|(_, value, _)| !value.is_finite()) {
                Some((name, value, _)) => Err(format!("metric {name} is {value}")),
                None => Ok(out),
            },
        );
    match outcome {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!("{}", result_line(true, out.attempted, &out.metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed its checks: {e}", args.workload);
            println!("{}", result_line(false, 0, &[]));
            std::process::exit(1);
        }
    }
}
