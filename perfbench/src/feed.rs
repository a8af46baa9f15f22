//! `feed_symbol` and `feed_price`: a warm single-worker `Engine`
//! filtering a replayed ITCH feed, read-only.

use std::time::{Duration, Instant};

use camus::engine::{shard, Engine, EngineConfig};
use camus::lang::Spec;
use camus::pipeline::Pipeline;

use crate::common::*;
use crate::layers;

/// Feed packets generated per run (replayed cyclically).
const SYMBOL_PACKETS: usize = 1 << 18;
const PRICE_PACKETS: usize = 1 << 17;
/// Packets submitted before the system counts as warm.
const WARM_PACKETS: usize = 1 << 16;
/// Set-ups per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 3;
/// Packets submitted between clock reads.
const CHUNK: usize = 1024;
/// Gap between latency probes inside the timed window.
const PROBE_GAP: Duration = Duration::from_millis(50);
/// Lone packets timed at each probe.
const LONE_PER_PROBE: usize = 8;
/// Oracle sample size.
const SAMPLE: usize = 4096;

struct FeedWorkload {
    spec: Spec,
    rules: RuleSet,
    feed: Feed,
}

impl FeedWorkload {
    fn new(name: &str, seeds: Seeds) -> BenchResult<FeedWorkload> {
        let (rules, feed) = match name {
            "feed_symbol" => (
                symbol_rules(seeds),
                Feed::add_orders(seeds, SYMBOL_PACKETS)?,
            ),
            _ => (
                price_rules(seeds),
                Feed::nasdaq_like(seeds, PRICE_PACKETS, 4)?,
            ),
        };
        Ok(FeedWorkload {
            spec: itch_spec()?,
            rules,
            feed,
        })
    }
}

/// The engine configuration every workload uses: one worker, the
/// decision cache armed on the stock symbol (it disarms itself when
/// the program is not cacheable on it).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        decision_cache: Some(SHARD_FIELD.into()),
        ..EngineConfig::default()
    }
}

struct Ready {
    program: Pipeline,
    engine: Engine,
    /// Next feed index to submit.
    cursor: usize,
    compile_ns: u64,
    start_ns: u64,
    total_ns: u64,
}

/// From nothing to ready: compile, start, warm up (and drain).
fn setup(w: &FeedWorkload) -> BenchResult<Ready> {
    let t0 = Instant::now();
    let program = compile(&w.spec, &w.rules.installed)?;
    let compile_ns = ns(t0.elapsed());
    let t1 = Instant::now();
    let mut engine = Engine::start(&program, &engine_config(), shard::itch_symbol_shard());
    let start_ns = ns(t1.elapsed());
    for i in 0..WARM_PACKETS {
        engine.submit(w.feed.packet(i), 0);
    }
    engine
        .quiesce()
        .map_err(|e| format!("warm-up quiesce: {e}"))?;
    Ok(Ready {
        program,
        engine,
        cursor: WARM_PACKETS,
        compile_ns,
        start_ns,
        total_ns: ns(t0.elapsed()),
    })
}

#[derive(Default)]
struct Window {
    msgs: u64,
    packets: u64,
    elapsed_ns: u64,
    /// Messages per second of each stretch between probes (probes
    /// included).
    rates: Vec<f64>,
    /// Full-load drain: everything in flight decided.
    drain: Samples,
    /// One packet on an idle engine, submit → decided.
    lone: Samples,
}

/// Streams the feed for `dur`. Every `PROBE_GAP` the stream pauses for
/// latency probes: a drain of everything in flight, then lone packets
/// one at a time. With `spans`, the submit chunks and drains are timed too.
fn window(
    r: &mut Ready,
    feed: &Feed,
    dur: Duration,
    mut spans: Option<&mut Spans>,
) -> BenchResult<Window> {
    let mut w = Window::default();
    let start = Instant::now();
    let mut next_probe = start + PROBE_GAP;
    let (mut stretch_start, mut stretch_msgs) = (start, 0);
    loop {
        let chunk_start = spans.as_ref().map(|_| Instant::now());
        let mut chunk_msgs = 0;
        for _ in 0..CHUNK {
            r.engine.submit(feed.packet(r.cursor), 0);
            chunk_msgs += feed.messages(r.cursor);
            r.cursor += 1;
        }
        w.msgs += chunk_msgs;
        stretch_msgs += chunk_msgs;
        w.packets += CHUNK as u64;
        if let (Some(t), Some(s)) = (chunk_start, spans.as_deref_mut()) {
            s.add(
                "e2e engine.submit",
                CHUNK as u64,
                CHUNK as u64,
                ns(t.elapsed()),
            );
        }
        let now = Instant::now();
        if now < next_probe {
            continue;
        }
        let t = Instant::now();
        r.engine.quiesce().map_err(|e| format!("drain: {e}"))?;
        let drain = ns(t.elapsed());
        w.drain.push(drain);
        if let Some(s) = spans.as_deref_mut() {
            s.add("e2e engine.quiesce (drain)", 1, 0, drain);
        }
        for _ in 0..LONE_PER_PROBE {
            let t = Instant::now();
            r.engine.submit(feed.packet(r.cursor), 0);
            r.engine
                .quiesce()
                .map_err(|e| format!("lone packet: {e}"))?;
            let lone = ns(t.elapsed());
            w.lone.push(lone);
            if let Some(s) = spans.as_deref_mut() {
                s.add("e2e engine.submit+quiesce (lone)", 1, 1, lone);
            }
            w.msgs += feed.messages(r.cursor);
            stretch_msgs += feed.messages(r.cursor);
            w.packets += 1;
            r.cursor += 1;
        }
        let stretch_end = Instant::now();
        w.rates
            .push(stretch_msgs as f64 / (stretch_end - stretch_start).as_secs_f64());
        (stretch_start, stretch_msgs) = (stretch_end, 0);
        if now - start >= dur {
            break;
        }
        next_probe = Instant::now() + PROBE_GAP;
    }
    w.elapsed_ns = ns(start.elapsed());
    Ok(w)
}

impl Pool for Window {
    fn pool(&mut self, other: Window) {
        self.msgs += other.msgs;
        self.packets += other.packets;
        self.elapsed_ns += other.elapsed_ns;
        self.rates.extend(other.rates);
        self.drain.pool(other.drain);
        self.lone.pool(other.lone);
    }
}

/// Joins the engine and checks its ledger; returns the report's ring
/// wait counts (full, empty).
fn finish(r: Ready, what: &str) -> BenchResult<(Pipeline, u64, u64)> {
    let submitted = r.engine.submitted();
    let report = r.engine.finish();
    check_engine_ledger(what, submitted, &report)?;
    Ok((
        r.program,
        report.hotpath.ring_full_spins,
        report.hotpath.ring_empty_spins,
    ))
}

pub fn run(name: &str, args: &Args, seeds: Seeds) -> BenchResult<Outcome> {
    let w = FeedWorkload::new(name, seeds)?;
    let mut out = Outcome::default();
    let sample = sample_indices(args.seed, &w.feed, SAMPLE);
    if args.trace {
        return traced(&w, args, &sample);
    }

    let mut program = None;
    let (mut setups, mut win) = run_rounds(
        args,
        SETUPS_PER_ROUND,
        || setup(&w),
        |r| r.total_ns,
        |r, dur| window(r, &w.feed, dur, None),
        |r, last| {
            let (p, _, _) = finish(r, "engine")?;
            if last {
                program = Some(p);
            }
            Ok(())
        },
    )?;
    let program = program.ok_or("no engine was measured")?;
    check_engine_sample(
        &program,
        &engine_config(),
        &w.rules.installed,
        &w.feed,
        &sample,
    )?;

    out.attempted = win.msgs;
    let secs = win.elapsed_ns as f64 / 1e9;
    out.metric("ops_per_s", median_f64(&mut win.rates), "op/s");
    out.metric("primary_p50_ms", win.drain.percentile_ms(0.5), "ms");
    out.metric("primary_p90_ms", win.drain.percentile_ms(0.9), "ms");
    out.metric("secondary_p50_ms", win.lone.percentile_ms(0.5), "ms");
    out.metric("secondary_p90_ms", win.lone.percentile_ms(0.9), "ms");
    out.metric("setup_s", median(&mut setups) as f64 / 1e9, "s");
    out.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
    out.note(format!(
        "{name}: {} msgs in {} pkts over {secs:.2} s; {} drain / {} lone-packet probes; oracle sample {} pkts",
        win.msgs,
        win.packets,
        win.drain.len(),
        win.lone.len(),
        sample.len()
    ));
    Ok(out)
}

fn traced(w: &FeedWorkload, args: &Args, sample: &[usize]) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut r = setup(w)?;
    spans.add("e2e core.compile (set-up)", 1, 1, r.compile_ns);
    spans.add("e2e engine.start (set-up)", 1, 1, r.start_ns);
    let half = args.window() / 2;
    let plain = window(&mut r, &w.feed, half, None)?;
    let traced = window(&mut r, &w.feed, half, Some(&mut spans))?;
    let (program, full, empty) = finish(r, "traced engine")?;
    spans.waits("e2e engine ring full (submitter waits)", full);
    spans.waits("e2e engine ring empty (worker waits)", empty);
    check_engine_sample(
        &program,
        &engine_config(),
        &w.rules.installed,
        &w.feed,
        sample,
    )?;

    let probes = layers::probe_all(&w.spec, &w.rules, &w.feed, &mut spans)?;
    let wall_ns_per_pkt = plain.elapsed_ns as f64 / plain.packets as f64;
    let worker_ns_per_pkt = probes.worker_ns_per_pkt;
    let plain_per_msg = plain.elapsed_ns as f64 / plain.msgs as f64;
    let traced_per_msg = traced.elapsed_ns as f64 / traced.msgs as f64;
    out.attempted = plain.msgs + traced.msgs;
    out.metrics = probes.metrics;
    out.metric(
        "e2e.unattributed_share",
        1.0 - worker_ns_per_pkt / wall_ns_per_pkt,
        "ratio",
    );
    out.metric(
        "e2e.trace_overhead_share",
        traced_per_msg / plain_per_msg - 1.0,
        "ratio",
    );
    out.note(format!(
        "wall {wall_ns_per_pkt:.1} ns/pkt untraced = worker busy {worker_ns_per_pkt:.1} ns/pkt \
         + unattributed {:.1} ns/pkt (worker waits, ring hops, probes)",
        wall_ns_per_pkt - worker_ns_per_pkt
    ));
    out.note(format!(
        "tracing overhead: {plain_per_msg:.1} ns/msg untraced vs {traced_per_msg:.1} traced"
    ));
    spans.render(&mut out.report);
    Ok(out)
}
