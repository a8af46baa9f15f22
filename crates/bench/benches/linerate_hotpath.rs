//! Hot-path accelerators end to end: the SPSC-ring engine with and
//! without the hot-symbol decision cache, against the sequential batch
//! baseline. Writes `results/BENCH_hotpath.json`.
//!
//! Two traces, two questions:
//!
//! - **Uniform fan-out feed** (`bench_feed`, the canonical engine-bench
//!   trace): does the single-worker engine now beat the sequential
//!   batch path? `engine_w1_nocache` shows what the ring + shared-`Arc`
//!   data path alone buys; `engine_w1` adds the decision cache — the
//!   headline row, targeted at ≥ 1.1× `sequential_batch`.
//! - **Zipf-popularity feed** (`zipf_s = 1.1`, the paper's symbol
//!   skew): the cache A/B. `zipf_cache_on` vs `zipf_cache_off` is the
//!   same engine, same trace, cache armed vs not — the ratio isolates
//!   what memoizing per-symbol decisions is worth on realistic traffic
//!   (target ≥ 1.5×).
//!
//! Cache-on rows record the measured hit rate from an untimed replay of
//! the same configuration (`time_engine_trace` discards the engine
//! report), and the bench asserts the cache was genuinely live — a row
//! whose cache silently failed to arm would otherwise measure the
//! uncached path under a cached label.
//!
//! `engine_w8` rides along only when the host has more than one core;
//! on a 1-core container an 8-worker row measures scheduling overhead,
//! not parallelism, and would just be noise with a misleading name.

use camus_bench::engine_runs::{host_cores, results_dir, time_engine_trace};
use camus_bench::harness::Bench;
use camus_bench::{impl_to_json, json};
use camus_core::{Compiler, CompilerOptions};
use camus_engine::{shard, Engine, EngineConfig, ShardFn};
use camus_lang::{parse_program, parse_spec};
use camus_pipeline::{DecisionBuf, Pipeline};
use camus_workload::{bench_feed, synthesize_feed, TraceConfig};

#[derive(Debug, Clone)]
struct HotpathRow {
    config: String,
    workers: usize,
    cache: bool,
    host_cores: usize,
    packets_per_iter: u64,
    ns_per_iter: f64,
    pkts_per_sec: f64,
    /// Uniform rows: vs `sequential_batch`. Zipf rows: vs
    /// `zipf_cache_off` (each pair's own uncached run is its baseline).
    speedup_vs_baseline: f64,
    /// hits / (hits + misses) from an untimed replay; 0 when uncached.
    cache_hit_rate: f64,
}

impl_to_json!(HotpathRow {
    config,
    workers,
    cache,
    host_cores,
    packets_per_iter,
    ns_per_iter,
    pkts_per_sec,
    speedup_vs_baseline,
    cache_hit_rate,
});

const CACHE_FIELD: &str = "add_order.stock";

/// One untimed replay returning the cache hit rate, asserting the cache
/// actually armed and observed every message.
fn measured_hit_rate(
    pipeline: &Pipeline,
    cfg: &EngineConfig,
    shard_fn: &ShardFn,
    packets: &[Vec<u8>],
) -> f64 {
    let mut engine = Engine::start(pipeline, cfg, shard_fn.clone());
    for p in packets {
        engine.submit(p, 0);
    }
    let report = engine.finish();
    assert!(report.error.is_none(), "engine fault during hit-rate probe");
    let h = &report.hotpath;
    assert!(
        h.cache_hits > 0,
        "decision cache never hit — did it arm? {h:?}"
    );
    assert_eq!(
        h.cache_hits + h.cache_misses,
        report.stats.messages,
        "a cacheable program must classify every message"
    );
    h.cache_hits as f64 / (h.cache_hits + h.cache_misses) as f64
}

fn main() {
    let bench = Bench::from_env();
    let host_cores = host_cores();

    // Same program shape as linerate_engine: 200 symbols over 32 ports.
    // Symbol-only rules keep the compiled chain a pure function of the
    // stock field, so the decision cache can arm.
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
    let pipeline = compiler.compile(&rules).unwrap().pipeline;
    let shard_fn = shard::itch_symbol_shard();

    let uniform: Vec<Vec<u8>> = bench_feed(4_000).into_iter().map(|p| p.bytes).collect();
    // The paper's symbol skew: Zipf(1.1) add-order popularity over the
    // same 200-symbol universe the rules subscribe to, smooth arrivals.
    let zipf: Vec<Vec<u8>> = synthesize_feed(&TraceConfig {
        target_fraction: 0.0,
        add_order_fraction: 1.0,
        zipf_s: 1.1,
        burst_multiplier: 1.0,
        ..TraceConfig::synthetic(4_000)
    })
    .into_iter()
    .map(|p| p.bytes)
    .collect();
    let n = uniform.len() as u64;

    let mut rows: Vec<HotpathRow> = Vec::new();

    // Sequential baseline: the allocation-free batch path on one core,
    // no cache — the bar the accelerated engine has to clear.
    let mut baseline = pipeline.clone();
    let mut ctx = baseline.new_shard_ctx();
    let mut out = DecisionBuf::default();
    let base = bench.run("hotpath/sequential_batch_4k_packets", n, || {
        out.clear();
        baseline
            .process_batch_shared(
                &mut ctx,
                uniform.iter().map(|p| (p.as_slice(), 0u64)),
                &mut out,
            )
            .unwrap();
        out.len()
    });
    base.report();
    let base_pps = base.elems_per_sec().unwrap();
    rows.push(HotpathRow {
        config: "sequential_batch".into(),
        workers: 1,
        cache: false,
        host_cores,
        packets_per_iter: n,
        ns_per_iter: base.ns_per_iter,
        pkts_per_sec: base_pps,
        speedup_vs_baseline: 1.0,
        cache_hit_rate: 0.0,
    });

    // Uniform-feed engine rows: ring+Arc alone, then with the cache.
    let mut engine_sweep: Vec<(String, usize, bool)> = vec![
        ("engine_w1_nocache".into(), 1, false),
        ("engine_w1".into(), 1, true),
    ];
    if host_cores > 1 {
        engine_sweep.push(("engine_w8".into(), 8, true));
    } else {
        println!("host has 1 core: skipping the engine_w8 row");
    }
    for (config, workers, cache) in engine_sweep {
        let cfg = EngineConfig {
            workers,
            pin_workers: host_cores > 1,
            decision_cache: cache.then(|| CACHE_FIELD.into()),
            ..Default::default()
        };
        let hit_rate = if cache {
            measured_hit_rate(&pipeline, &cfg, &shard_fn, &uniform)
        } else {
            0.0
        };
        let r = time_engine_trace(
            &bench,
            &format!("hotpath/{config}_4k_packets"),
            &pipeline,
            &cfg,
            &shard_fn,
            &uniform,
        );
        let pps = r.elems_per_sec().unwrap();
        rows.push(HotpathRow {
            config,
            workers,
            cache,
            host_cores,
            packets_per_iter: n,
            ns_per_iter: r.ns_per_iter,
            pkts_per_sec: pps,
            speedup_vs_baseline: pps / base_pps,
            cache_hit_rate: hit_rate,
        });
    }

    // Zipf A/B: identical single-worker engine, cache off vs on.
    let zn = zipf.len() as u64;
    let mut zipf_off_pps = 0.0f64;
    for (config, cache) in [("zipf_cache_off", false), ("zipf_cache_on", true)] {
        let cfg = EngineConfig {
            workers: 1,
            decision_cache: cache.then(|| CACHE_FIELD.into()),
            ..Default::default()
        };
        let hit_rate = if cache {
            measured_hit_rate(&pipeline, &cfg, &shard_fn, &zipf)
        } else {
            0.0
        };
        let r = time_engine_trace(
            &bench,
            &format!("hotpath/{config}_4k_packets"),
            &pipeline,
            &cfg,
            &shard_fn,
            &zipf,
        );
        let pps = r.elems_per_sec().unwrap();
        if !cache {
            zipf_off_pps = pps;
        }
        rows.push(HotpathRow {
            config: config.into(),
            workers: 1,
            cache,
            host_cores,
            packets_per_iter: zn,
            ns_per_iter: r.ns_per_iter,
            pkts_per_sec: pps,
            speedup_vs_baseline: pps / zipf_off_pps,
            cache_hit_rate: hit_rate,
        });
    }

    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_hotpath.json");
    std::fs::write(&path, json::to_string_pretty(rows.as_slice())).unwrap();
    println!(
        "wrote {} ({} rows, host_cores={host_cores})",
        path.display(),
        rows.len()
    );
}
