//! Per-layer probes for the traced run. Each probe times public calls
//! into one layer, from this crate, on the workload's own program,
//! packets and held-out rules. Layers that run inside `camusd` are
//! measured on standalone instances replaying the same mutations.

use std::hint::black_box;
use std::time::Instant;

use camus::bus::{BusAddr, BusClient, BusReply, BusRequest};
use camus::compiler::partition::PartitionPlan;
use camus::compiler::{CompilerOptions, IncrementalCompiler};
use camus::daemon::{Daemon, DaemonConfig};
use camus::engine::{shard, Engine};
use camus::fabric::{Fabric, FabricConfig};
use camus::lang::{parse_rule, Rule, Spec};
use camus::pipeline::{DecisionBuf, PhvBuf, Pipeline, DEFAULT_CACHE_SHIFT};

use crate::common::*;
use crate::feed::engine_config;

/// Packets the engine probe warms up with; packets the fabric's
/// routing probe runs over.
const PROBE_PACKETS: usize = 1 << 15;
/// Packets the standalone engine probe submits after warm-up.
const ENGINE_PACKETS: usize = 1 << 17;
/// Timed repetitions of a standalone probe (median taken).
const REPEATS: usize = 5;
/// Held-out rules subscribed and unsubscribed by the mutation probes.
const MUTATIONS: usize = 4;
/// Leaves of the probed fabric.
pub const LEAVES: usize = 2;
/// Packets in flight when a fabric quiesce is timed.
const QUIESCE_BURST: usize = 2048;

pub struct Probes {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Worker busy time per packet (`process_batch_shared`).
    pub worker_ns_per_pkt: f64,
    /// Ping + rule parse + delta compile + engine apply: the attributed
    /// part of a subscribe round trip.
    pub subscribe_known_ms: f64,
    /// Ping + rule parse + removal compile + engine apply.
    pub unsubscribe_known_ms: f64,
    /// Report apply to the master + partition + one prepare per leaf +
    /// quiesce: the attributed part of a fabric epoch.
    pub epoch_known_ms: f64,
}

/// Runs every probe. Every workload reports the same per-layer set,
/// each measured on that workload's inputs.
pub fn probe_all(
    spec: &Spec,
    rules: &RuleSet,
    feed: &Feed,
    spans: &mut Spans,
) -> BenchResult<Probes> {
    let program = compile(spec, &rules.installed)?;
    let mut metrics = Vec::new();
    let worker_ns_per_pkt = packet_probe(&program, feed, spans, &mut metrics)?;
    engine_probe(&program, feed, spans, &mut metrics)?;
    let fab = fabric_probe(&program, feed, spans, &mut metrics)?;
    let m = mutation_probe(spec, rules, spans, &mut metrics)?;
    let ping_ms = daemon_probe(spec, rules, &m, spans, &mut metrics)?;
    Ok(Probes {
        metrics,
        worker_ns_per_pkt,
        subscribe_known_ms: ping_ms + m.parse_ms + m.add_ms + m.apply_ms,
        unsubscribe_known_ms: ping_ms + m.parse_ms + m.remove_ms + m.apply_ms,
        epoch_known_ms: fab + m.apply_report_ms,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Shard, parse, worker (`process_batch_shared` on a `ShardCtx`) and
/// the decision cache, over the whole feed. Returns the worker time
/// per packet.
fn packet_probe(
    program: &Pipeline,
    feed: &Feed,
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> BenchResult<f64> {
    let n = feed.len();
    let msgs: u64 = (0..n).map(|i| feed.messages(i)).sum();
    let mut prog = program.clone();
    prog.prepare();
    if let Some(field) = prog.layout.get(SHARD_FIELD) {
        prog.enable_decision_cache(field, DEFAULT_CACHE_SHIFT);
    }

    let shard = shard::itch_symbol_shard();
    let shard_ns = median_time(REPEATS, || {
        let mut acc = 0u64;
        for i in 0..n {
            acc ^= shard(black_box(feed.packet(i)));
        }
        Ok(acc)
    })?;

    let mut work = prog.layout.instantiate();
    let mut phvs = PhvBuf::default();
    let parse_ns = median_time(REPEATS, || {
        for i in 0..n {
            phvs.clear();
            prog.parser
                .parse_into(&prog.layout, feed.packet(i), &mut work, &mut phvs)
                .map_err(|e| format!("parse_into: {e}"))?;
        }
        Ok(phvs.len())
    })?;

    let mut ctx = prog.new_shard_ctx();
    let mut out = DecisionBuf::default();
    let mut pass = |ctx: &mut camus::pipeline::ShardCtx| -> BenchResult<usize> {
        for lo in (0..n).step_by(64) {
            out.clear();
            prog.process_batch_shared(
                ctx,
                (lo..(lo + 64).min(n)).map(|i| (feed.packet(i), 0)),
                &mut out,
            )
            .map_err(|e| format!("process_batch_shared: {e}"))?;
        }
        Ok(out.len())
    };
    pass(&mut ctx)?; // warm the cache and scratch buffers
    let worker_ns = median_time(REPEATS, || pass(&mut ctx))?;
    let cache = ctx.exec.cache_stats().unwrap_or_default();
    let lookups = cache.hits + cache.misses;

    spans.add(
        "engine.shard (itch_symbol_shard)",
        n as u64,
        n as u64,
        shard_ns,
    );
    spans.add("pipeline.parse_into", n as u64, n as u64, parse_ns);
    spans.add(
        "pipeline.process_batch_shared",
        n.div_ceil(64) as u64,
        n as u64,
        worker_ns,
    );
    spans.waits("pipeline.decision_cache misses", cache.misses);
    metrics.push(("engine.shard_ns_per_pkt", shard_ns as f64 / n as f64, "ns"));
    metrics.push((
        "pipeline.parse_ns_per_pkt",
        parse_ns as f64 / n as f64,
        "ns",
    ));
    metrics.push((
        "pipeline.worker_ns_per_msg",
        worker_ns as f64 / msgs as f64,
        "ns",
    ));
    metrics.push((
        "pipeline.chain_ns_per_msg",
        (worker_ns as f64 - parse_ns as f64) / msgs as f64,
        "ns",
    ));
    metrics.push((
        "pipeline.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
        "ratio",
    ));
    Ok(worker_ns as f64 / n as f64)
}

/// A standalone single-worker engine on the feed: start time, time
/// inside `Engine::submit` (per 1024-packet chunk) and ring waits.
fn engine_probe(
    program: &Pipeline,
    feed: &Feed,
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> BenchResult<()> {
    let t = Instant::now();
    let mut engine = Engine::start(program, &engine_config(), shard::itch_symbol_shard());
    let start_ns = ns(t.elapsed());
    for i in 0..PROBE_PACKETS {
        engine.submit(feed.packet(i), 0);
    }
    engine
        .quiesce()
        .map_err(|e| format!("engine probe warm-up: {e}"))?;
    let mut submit_ns = 0;
    for lo in (0..ENGINE_PACKETS).step_by(1024) {
        let t = Instant::now();
        for i in lo..lo + 1024 {
            engine.submit(feed.packet(i), 0);
        }
        submit_ns += ns(t.elapsed());
    }
    engine
        .quiesce()
        .map_err(|e| format!("engine probe drain: {e}"))?;
    let submitted = engine.submitted();
    let report = engine.finish();
    check_engine_ledger("engine probe", submitted, &report)?;
    let hot = &report.hotpath;
    spans.add("engine.start", 1, 1, start_ns);
    spans.add(
        "engine.submit",
        (ENGINE_PACKETS / 1024) as u64,
        ENGINE_PACKETS as u64,
        submit_ns,
    );
    spans.waits("engine ring full (submitter waits)", hot.ring_full_spins);
    spans.waits("engine ring empty (worker waits)", hot.ring_empty_spins);
    metrics.push(("engine.start_ms", ms(start_ns), "ms"));
    metrics.push((
        "engine.submit_ns_per_pkt",
        submit_ns as f64 / ENGINE_PACKETS as f64,
        "ns",
    ));
    metrics.push((
        "engine.ring_full_spins_per_pkt",
        hot.ring_full_spins as f64 / submitted as f64,
        "count",
    ));
    metrics.push((
        "engine.ring_empty_spins_per_pkt",
        hot.ring_empty_spins as f64 / submitted as f64,
        "count",
    ));
    Ok(())
}

/// A 2-leaf fabric over the program: start, partition planning, a
/// leaf's prepare, quiesce with a burst in flight, spine routing.
/// Returns the attributed part of an epoch in ms.
fn fabric_probe(
    program: &Pipeline,
    feed: &Feed,
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> BenchResult<f64> {
    let cfg = FabricConfig::uniform(
        LEAVES,
        SHARD_FIELD,
        shard::itch_symbol_shard(),
        engine_config(),
    );
    let t = Instant::now();
    let mut fabric = Fabric::start(program, &cfg).map_err(|e| format!("fabric start: {e}"))?;
    let start_ns = ns(t.elapsed());

    let partition_ns = median_time(REPEATS, || {
        let plan = PartitionPlan::compute(program, SHARD_FIELD, LEAVES)
            .map_err(|e| format!("partition: {e}"))?;
        Ok(plan.slices(program))
    })?;
    let slices = PartitionPlan::compute(program, SHARD_FIELD, LEAVES)
        .map_err(|e| format!("partition: {e}"))?
        .slices(program);
    let mut leaf = Engine::start(&slices[0], &engine_config(), shard::itch_symbol_shard());
    let prepare_ns = median_time(REPEATS, || {
        leaf.prepare_pipeline(&slices[0])
            .map_err(|e| format!("prepare_pipeline: {e}"))?;
        Ok(leaf.abort_staged())
    })?;
    check_engine_ledger("prepare probe leaf", 0, &leaf.finish())?;

    let mut quiesce = Vec::new();
    let mut cursor = 0;
    for _ in 0..2 * REPEATS {
        for _ in 0..QUIESCE_BURST {
            fabric.submit(feed.packet(cursor), 0);
            cursor += 1;
        }
        let t = Instant::now();
        fabric
            .quiesce()
            .map_err(|e| format!("fabric quiesce: {e}"))?;
        quiesce.push(ns(t.elapsed()));
    }
    let quiesce_ns = median(&mut quiesce);

    let n = PROBE_PACKETS.min(feed.len());
    let route_ns = median_time(REPEATS, || {
        let mut acc = 0usize;
        for i in 0..n {
            acc ^= fabric.route(black_box(feed.packet(i)));
        }
        Ok(acc)
    })?;
    let report = fabric.finish();
    if !report.reconciles() || report.total_quarantined() != 0 {
        return Err("fabric probe: ledger does not reconcile".into());
    }

    spans.add("fabric.start", 1, 1, start_ns);
    spans.add("core.partition (compute+slices)", 1, 1, partition_ns);
    spans.add("engine.prepare_pipeline (leaf 0)", 1, 1, prepare_ns);
    spans.add(
        "fabric.quiesce (burst in flight)",
        1,
        QUIESCE_BURST as u64,
        quiesce_ns,
    );
    spans.add("fabric.route", n as u64, n as u64, route_ns);
    metrics.push(("fabric.start_ms", ms(start_ns), "ms"));
    metrics.push(("core.partition_ms", ms(partition_ns), "ms"));
    metrics.push(("engine.prepare_pipeline_ms", ms(prepare_ns), "ms"));
    metrics.push(("fabric.quiesce_ms", ms(quiesce_ns), "ms"));
    metrics.push(("fabric.route_ns_per_pkt", route_ns as f64 / n as f64, "ns"));
    Ok(ms(partition_ns) + LEAVES as f64 * ms(prepare_ns) + ms(quiesce_ns))
}

/// Medians of the mutation replay, in ms.
struct MutationCosts {
    parse_ms: f64,
    add_ms: f64,
    remove_ms: f64,
    apply_ms: f64,
    apply_report_ms: f64,
}

/// Replays subscribe/unsubscribe of held-out rules against a
/// standalone `IncrementalCompiler` session and an idle engine at the
/// workload's program size.
fn mutation_probe(
    spec: &Spec,
    rules: &RuleSet,
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> BenchResult<MutationCosts> {
    let t = Instant::now();
    let mut session =
        IncrementalCompiler::new(spec.clone(), &CompilerOptions::default(), &rules.pool())
            .map_err(|e| format!("session: {e}"))?;
    let install = session
        .install(&rules.installed)
        .map_err(|e| format!("install: {e}"))?;
    let install_ns = ns(t.elapsed());
    let mut engine = Engine::start(
        &install.pipeline,
        &engine_config(),
        shard::itch_symbol_shard(),
    );
    let mut master = install.pipeline;

    let (mut parse, mut add, mut remove) = (vec![], vec![], vec![]);
    let (mut apply, mut apply_report) = (vec![], vec![]);
    let mut reports = 0u64;
    let (mut rebuilds, mut touched, mut total, mut memo_hits, mut memo_all) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for rule in rules.extra.iter().take(MUTATIONS) {
        let text = rule.to_string();
        let t = Instant::now();
        let parsed: Rule = parse_rule(&text).map_err(|e| format!("parse_rule {text}: {e}"))?;
        parse.push(ns(t.elapsed()));
        if parsed != *rule {
            return Err(format!(
                "rule {text} does not round-trip through parse_rule"
            ));
        }
        let one = std::slice::from_ref(&parsed);
        for (adds, removes, times) in [(one, &[][..], &mut add), (&[][..], one, &mut remove)] {
            let t = Instant::now();
            let r = session
                .update(adds, removes)
                .map_err(|e| format!("update: {e}"))?;
            times.push(ns(t.elapsed()));
            reports += 1;
            rebuilds += u64::from(r.full_rebuild);
            touched += (r.entries_added + r.entries_removed) as u64;
            total += r.total_entries as u64;
            memo_hits += r.memo.0;
            memo_all += r.memo.0 + r.memo.1;
            let t = Instant::now();
            engine
                .apply_update(&r)
                .map_err(|e| format!("apply_update: {e}"))?;
            apply.push(ns(t.elapsed()));
            // What `Fabric::apply_update` does to its master before
            // re-slicing it.
            let t = Instant::now();
            let mut next = master.clone();
            r.apply_to(&mut next)
                .map_err(|e| format!("apply_to: {e}"))?;
            apply_report.push(ns(t.elapsed()));
            master = next;
        }
    }
    check_engine_ledger("mutation probe engine", 0, &engine.finish())?;

    let sum = |v: &[u64]| v.iter().sum::<u64>();
    spans.add(
        "core.install (set-up)",
        1,
        rules.installed.len() as u64,
        install_ns,
    );
    spans.add(
        "lang.parse_rule",
        parse.len() as u64,
        parse.len() as u64,
        sum(&parse),
    );
    spans.add(
        "core.update (add)",
        add.len() as u64,
        add.len() as u64,
        sum(&add),
    );
    spans.add(
        "core.update (remove)",
        remove.len() as u64,
        remove.len() as u64,
        sum(&remove),
    );
    spans.add(
        "engine.apply_update",
        apply.len() as u64,
        apply.len() as u64,
        sum(&apply),
    );
    spans.add(
        "core.apply_report (master clone + apply_to)",
        apply_report.len() as u64,
        apply_report.len() as u64,
        sum(&apply_report),
    );
    let costs = MutationCosts {
        parse_ms: ms(median(&mut parse)),
        add_ms: ms(median(&mut add)),
        remove_ms: ms(median(&mut remove)),
        apply_ms: ms(median(&mut apply)),
        apply_report_ms: ms(median(&mut apply_report)),
    };
    let reports = reports.max(1) as f64;
    metrics.push(("core.install_s", install_ns as f64 / 1e9, "s"));
    metrics.push(("lang.parse_rule_us", costs.parse_ms * 1e3, "us"));
    metrics.push(("core.update_add_ms", costs.add_ms, "ms"));
    metrics.push(("core.update_remove_ms", costs.remove_ms, "ms"));
    metrics.push((
        "core.full_rebuild_share",
        rebuilds as f64 / reports,
        "ratio",
    ));
    metrics.push((
        "core.entries_touched_per_update",
        touched as f64 / reports,
        "count",
    ));
    metrics.push((
        "core.entries_touched_share",
        touched as f64 / (total.max(1)) as f64,
        "ratio",
    ));
    metrics.push((
        "bdd.memo_hit_ratio",
        if memo_all == 0 {
            0.0
        } else {
            memo_hits as f64 / memo_all as f64
        },
        "ratio",
    ));
    metrics.push(("engine.apply_update_ms", costs.apply_ms, "ms"));
    metrics.push(("core.apply_report_ms", costs.apply_report_ms, "ms"));
    Ok(costs)
}

/// A `camusd` over TCP holding the workload's program: start, ping,
/// the daemon's own apply accounting, and the unattributed rest of a
/// subscribe round trip. Returns the ping time in ms.
fn daemon_probe(
    spec: &Spec,
    rules: &RuleSet,
    m: &MutationCosts,
    spans: &mut Spans,
    metrics: &mut Metrics,
) -> BenchResult<f64> {
    let t = Instant::now();
    let daemon =
        Daemon::start(daemon_config(spec, rules)).map_err(|e| format!("daemon start: {e}"))?;
    let mut client =
        BusClient::connect(&daemon.bus_addrs()[0]).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let start_ns = ns(t.elapsed());

    let mut pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(ns(t.elapsed()));
    }
    let before = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut subs = Vec::new();
    for rule in rules.extra.iter().take(MUTATIONS) {
        let text = rule.to_string();
        let t = Instant::now();
        expect_ack(client.request(&BusRequest::Subscribe {
            rules: vec![text.clone()],
        }))?;
        subs.push(ns(t.elapsed()));
        expect_ack(client.request(&BusRequest::Unsubscribe { rules: vec![text] }))?;
    }
    let after = client.stats().map_err(|e| format!("stats: {e}"))?;
    check_snapshot(&mut client, &rules.installed)?;
    drop(client);
    let report = daemon.join();
    if !report.zero_loss() || report.bus.mutations_rejected != 0 {
        return Err("daemon probe: ledger not zero-loss or mutations rejected".into());
    }

    let ping_ms = ms(median(&mut pings));
    let applies = after.apply_count.saturating_sub(before.apply_count).max(1);
    let apply_ms = ms(after.apply_ns_total.saturating_sub(before.apply_ns_total) / applies);
    let sub_ms = ms(median(&mut subs));
    spans.add("camusd.start", 1, 1, start_ns);
    spans.add(
        "bus.ping",
        pings.len() as u64,
        pings.len() as u64,
        pings.iter().sum(),
    );
    spans.add(
        "bus.subscribe round trip",
        subs.len() as u64,
        subs.len() as u64,
        subs.iter().sum(),
    );
    metrics.push(("camusd.start_ms", ms(start_ns), "ms"));
    metrics.push(("bus.ping_us", ping_ms * 1e3, "us"));
    metrics.push(("camusd.apply_ms", apply_ms, "ms"));
    metrics.push((
        "camusd.unattributed_ms",
        sub_ms - ping_ms - m.parse_ms - m.add_ms - m.apply_ms,
        "ms",
    ));
    Ok(ping_ms)
}

/// The daemon every mutation-path measurement uses: the workload's
/// pool as the session alphabet, its program installed, one engine
/// worker, one TCP bus listener, no internal feed.
pub fn daemon_config(spec: &Spec, rules: &RuleSet) -> DaemonConfig {
    DaemonConfig {
        spec: spec.clone(),
        options: CompilerOptions::default(),
        pool: rules.pool(),
        initial: rules.installed.len(),
        engine: engine_config(),
        bus: vec![BusAddr::Tcp("127.0.0.1:0".into())],
        metrics: None,
        coalesce_max: 32,
        feed_packets: 0,
        feed_loop: false,
    }
}

/// A mutation reply must be a solo `Ack` (one connection, so nothing
/// coalesces).
pub fn expect_ack(reply: Result<BusReply, camus::bus::WireError>) -> BenchResult<()> {
    match reply {
        Ok(BusReply::Ack {
            coalesced_with: 1, ..
        }) => Ok(()),
        Ok(other) => Err(format!("mutation not acked alone: {other:?}")),
        Err(e) => Err(format!("bus: {e}")),
    }
}

/// The daemon's committed set must equal `installed`.
pub fn check_snapshot(client: &mut BusClient, installed: &[Rule]) -> BenchResult<()> {
    let (_, got) = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let mut want: Vec<String> = installed.iter().map(|r| r.to_string()).collect();
    want.sort();
    if got != want {
        return Err(format!(
            "snapshot has {} rules, expected the initial {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}
