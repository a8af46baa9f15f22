//! Throughput of the multi-core sharded engine vs. the sequential
//! batch path, sweeping worker counts, plus the telemetry A/B. Writes
//! `results/BENCH_engine.json` with packets/sec per configuration so
//! the scaling curve is inspectable offline, and
//! `results/TELEMETRY_engine.json` with the merged observability
//! snapshot (per-stage latency percentiles, per-table hit counters,
//! control-plane spans) from an instrumented replay.
//!
//! The `engine_w{N}_telemetry` rows re-run the worker sweep with
//! histograms enabled; the A/B against the matching uninstrumented row
//! is what proves instrumentation stays under its 5 % throughput
//! budget (`overhead_pct` in the telemetry export, asserted by CI).
//!
//! The host's core count is recorded alongside every row: on a
//! single-core container the worker sweep measures scheduling overhead,
//! not parallel speedup, and the JSON must say so honestly.

use camus_bench::engine_runs::{
    capture_telemetry, host_cores, results_dir, telemetry_doc, telemetry_overhead_ab,
    time_engine_trace, write_telemetry_json,
};
use camus_bench::harness::Bench;
use camus_bench::{impl_to_json, json};
use camus_core::{Compiler, CompilerOptions};
use camus_engine::{shard, EngineConfig};
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::DecisionBuf;
use camus_workload::bench_feed;

#[derive(Debug, Clone)]
struct EngineRow {
    config: String,
    workers: usize,
    host_cores: usize,
    packets_per_iter: u64,
    ns_per_iter: f64,
    pkts_per_sec: f64,
    speedup_vs_sequential: f64,
}

impl_to_json!(EngineRow {
    config,
    workers,
    host_cores,
    packets_per_iter,
    ns_per_iter,
    pkts_per_sec,
    speedup_vs_sequential,
});

fn main() {
    let bench = Bench::from_env();
    let host_cores = host_cores();

    // Same table shape as linerate_pipeline: 200 symbols over 32 ports.
    let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
    let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
    let src: String = (0..200)
        .map(|i| {
            format!(
                "stock == {} : fwd({})\n",
                camus_workload::itch_subs::stock_symbol(i),
                i % 32 + 1
            )
        })
        .collect();
    let rules = parse_program(&src).unwrap();
    let prog = compiler.compile(&rules).unwrap();
    let pipeline = prog.pipeline;

    let packets: Vec<Vec<u8>> = bench_feed(4_000).into_iter().map(|p| p.bytes).collect();
    let n = packets.len() as u64;

    let mut rows: Vec<EngineRow> = Vec::new();

    // Sequential baseline: the allocation-free batch path on one core.
    let mut baseline = pipeline.clone();
    let mut ctx = baseline.new_shard_ctx();
    let mut out = DecisionBuf::default();
    let base = bench.run("engine/sequential_batch_4k_packets", n, || {
        out.clear();
        baseline
            .process_batch_shared(
                &mut ctx,
                packets.iter().map(|p| (p.as_slice(), 0u64)),
                &mut out,
            )
            .unwrap();
        out.len()
    });
    base.report();
    let base_pps = base.elems_per_sec().unwrap();
    rows.push(EngineRow {
        config: "sequential_batch".into(),
        workers: 1,
        host_cores,
        packets_per_iter: n,
        ns_per_iter: base.ns_per_iter,
        pkts_per_sec: base_pps,
        speedup_vs_sequential: 1.0,
    });

    // Worker sweep, uninstrumented then instrumented (the visible A/B
    // rows). Each iteration starts the engine, replays the trace and
    // joins — so the measured rate includes thread startup, matching
    // how a replay tool would run it.
    let shard_fn = shard::itch_symbol_shard();
    let sweep = [1usize, 2, 4, 8];
    for &workers in &sweep {
        for telemetry in [false, true] {
            let cfg = EngineConfig {
                workers,
                telemetry,
                ..Default::default()
            };
            let suffix = if telemetry { "_telemetry" } else { "" };
            let r = time_engine_trace(
                &bench,
                &format!("engine/run_trace_4k_packets_w{workers}{suffix}"),
                &pipeline,
                &cfg,
                &shard_fn,
                &packets,
            );
            let pps = r.elems_per_sec().unwrap();
            rows.push(EngineRow {
                config: format!("engine_w{workers}{suffix}"),
                workers,
                host_cores,
                packets_per_iter: n,
                ns_per_iter: r.ns_per_iter,
                pkts_per_sec: pps,
                speedup_vs_sequential: pps / base_pps,
            });
        }
    }

    // Authoritative overhead number: paired alternating iterations at
    // the largest worker count the host can actually run in parallel
    // (larger sweep counts on a small host measure scheduling noise,
    // not instrumentation).
    let ab_workers = sweep
        .iter()
        .copied()
        .filter(|&w| w <= host_cores)
        .max()
        .unwrap_or(1);
    let ab_cfg = EngineConfig {
        workers: ab_workers,
        ..Default::default()
    };
    let overhead = telemetry_overhead_ab(&bench, &pipeline, &ab_cfg, &shard_fn, &packets);
    println!(
        "telemetry overhead @ w{} (paired A/B): {:.2}%",
        overhead.workers, overhead.overhead_pct
    );

    // Telemetry export: one untimed instrumented replay at the A/B
    // worker count for the distributions, plus the A/B numbers above.
    let snap = capture_telemetry(&pipeline, &ab_cfg, &shard_fn, &packets);
    let doc = telemetry_doc("linerate_engine", &snap, overhead);
    let tpath = write_telemetry_json(&doc);
    println!("wrote {}", tpath.display());

    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_engine.json");
    std::fs::write(&path, json::to_string_pretty(rows.as_slice())).unwrap();
    println!(
        "wrote {} ({} rows, host_cores={host_cores})",
        path.display(),
        rows.len()
    );
}
