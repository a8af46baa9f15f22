//! `fabric`: a 2-leaf `Fabric` holding the Fig. 5c program. The
//! generator alternates a fixed burst of Nasdaq-like packets with one
//! `Fabric::apply_update` from a subscribe/unsubscribe cycle of
//! `UpdateReport`s compiled during set-up.

use std::time::{Duration, Instant};

use camus::compiler::{CompilerOptions, IncrementalCompiler, UpdateReport};
use camus::engine::{shard, EngineConfig};
use camus::fabric::{tables_identical, Fabric, FabricConfig};
use camus::lang::{Rule, Spec};
use camus::pipeline::{Pipeline, Table};

use crate::common::*;
use crate::feed::engine_config;
use crate::layers::{self, LEAVES};

/// Packets generated per run (replayed cyclically).
const FEED_PACKETS: usize = 1 << 16;
/// ITCH messages per packet. The spine routes a packet by its first
/// add-order's symbol, so a packet is decided correctly only when all
/// its add-orders' symbols live on one leaf; see README.
const MSGS_PER_PACKET: usize = 1;
/// Packets submitted between two epochs.
const BURST: usize = 2048;
/// Subscribe/unsubscribe pairs in the replayed report cycle.
const CYCLE_PAIRS: usize = 8;
/// Packets submitted (and drained) before the system counts as warm.
const WARM_PACKETS: usize = 1 << 14;
/// Set-ups per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 1;
/// Packets checked against the oracle before each epoch of the
/// verification replay.
const SAMPLE_PER_EPOCH: usize = 256;

fn fabric_config(record: bool) -> FabricConfig {
    FabricConfig::uniform(
        LEAVES,
        SHARD_FIELD,
        shard::itch_symbol_shard(),
        EngineConfig {
            record_decisions: record,
            ..engine_config()
        },
    )
}

struct Ready {
    master: Pipeline,
    fabric: Fabric,
    /// `[subscribe r0, unsubscribe r0, subscribe r1, ...]`.
    cycle: Vec<UpdateReport>,
    /// Every leaf's tables at the start of a cycle.
    start_tables: Vec<Vec<Table>>,
    cursor: usize,
    total_ns: u64,
}

/// From nothing to ready: compile the master, start the fabric,
/// compile the report cycle, warm up.
fn setup(spec: &Spec, rules: &RuleSet, feed: &Feed) -> BenchResult<Ready> {
    let t = Instant::now();
    let mut session =
        IncrementalCompiler::new(spec.clone(), &CompilerOptions::default(), &rules.pool())
            .map_err(|e| format!("session: {e}"))?;
    let master = session
        .install(&rules.installed)
        .map_err(|e| format!("install: {e}"))?
        .pipeline;
    let mut fabric =
        Fabric::start(&master, &fabric_config(false)).map_err(|e| format!("fabric: {e}"))?;
    let mut cycle = Vec::with_capacity(2 * CYCLE_PAIRS);
    for rule in rules.extra.iter().take(CYCLE_PAIRS) {
        let one = std::slice::from_ref(rule);
        cycle.push(session.update(one, &[]).map_err(|e| format!("add: {e}"))?);
        cycle.push(
            session
                .update(&[], one)
                .map_err(|e| format!("remove: {e}"))?,
        );
    }
    for i in 0..WARM_PACKETS {
        fabric.submit(feed.packet(i), 0);
    }
    fabric
        .quiesce()
        .map_err(|e| format!("warm-up quiesce: {e}"))?;
    let start_tables = (0..LEAVES)
        .map(|l| fabric.leaf_tables(l).to_vec())
        .collect();
    Ok(Ready {
        master,
        fabric,
        cycle,
        start_tables,
        cursor: WARM_PACKETS,
        total_ns: ns(t.elapsed()),
    })
}

/// The fabric's ledger reconciles with zero loss and no epoch was
/// rejected or retried.
fn check_fabric_report(report: camus::fabric::FabricReport) -> BenchResult<()> {
    if !report.reconciles() || report.total_quarantined() != 0 || report.orphaned() != 0 {
        return Err("fabric ledger does not reconcile with zero loss".into());
    }
    if report.epochs_rejected != 0 || report.robustness.epoch_retries != 0 {
        return Err(format!(
            "{} epochs rejected, {} retried",
            report.epochs_rejected, report.robustness.epoch_retries
        ));
    }
    Ok(())
}

#[derive(Default)]
struct Window {
    msgs: u64,
    /// Burst submission plus epochs; the per-cycle table checks are
    /// excluded.
    active_ns: u64,
    /// Messages per second of each burst and the epoch after it. A
    /// step is short (~6 ms), so a host stall spoils only the steps it
    /// hits and the median over steps stays put.
    rates: Vec<f64>,
    subscribe: Samples,
    unsubscribe: Samples,
}

impl Pool for Window {
    fn pool(&mut self, other: Window) {
        self.msgs += other.msgs;
        self.active_ns += other.active_ns;
        self.rates.extend(other.rates);
        self.subscribe.pool(other.subscribe);
        self.unsubscribe.pool(other.unsubscribe);
    }
}

/// Bursts and epochs for at least `dur`, in whole report cycles. After
/// every cycle each leaf's tables must equal those at the start of the
/// cycle, or the replayed reports would not be valid.
fn window(
    r: &mut Ready,
    feed: &Feed,
    dur: Duration,
    mut spans: Option<&mut Spans>,
) -> BenchResult<Window> {
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        for (k, report) in r.cycle.iter().enumerate() {
            let t = Instant::now();
            let mut msgs = 0;
            for _ in 0..BURST {
                r.fabric.submit(feed.packet(r.cursor), 0);
                msgs += feed.messages(r.cursor);
                r.cursor += 1;
            }
            let burst = ns(t.elapsed());
            let t = Instant::now();
            r.fabric
                .apply_update(report)
                .map_err(|e| format!("epoch: {e}"))?;
            let epoch = ns(t.elapsed());
            w.msgs += msgs;
            w.active_ns += burst + epoch;
            w.rates.push(msgs as f64 * 1e9 / (burst + epoch) as f64);
            if k % 2 == 0 {
                w.subscribe.push(epoch);
            } else {
                w.unsubscribe.push(epoch);
            }
            if let Some(s) = spans.as_deref_mut() {
                s.add(
                    "e2e fabric.submit (burst)",
                    BURST as u64,
                    BURST as u64,
                    burst,
                );
                s.add("e2e fabric.apply_update (epoch)", 1, 1, epoch);
            }
        }
        for (leaf, tables) in r.start_tables.iter().enumerate() {
            if !tables_identical(r.fabric.leaf_tables(leaf), tables) {
                return Err(format!("leaf {leaf} tables drifted over a report cycle"));
            }
        }
        if start.elapsed() >= dur {
            break;
        }
    }
    Ok(w)
}

/// Replays one report cycle on a fresh, recording fabric with a sample
/// burst before every epoch (and after the last), and checks every
/// decision against the oracle at the rule set of its epoch.
fn check_oracle(r: &Ready, rules: &RuleSet, feed: &Feed, seed: u64) -> BenchResult<()> {
    let mut fabric =
        Fabric::start(&r.master, &fabric_config(true)).map_err(|e| format!("fabric: {e}"))?;
    let sample = sample_indices(seed, feed, SAMPLE_PER_EPOCH * (r.cycle.len() + 1));
    let mut active: Vec<Rule> = rules.installed.clone();
    let mut expected = Vec::with_capacity(sample.len());
    for (k, chunk) in sample.chunks(SAMPLE_PER_EPOCH).enumerate() {
        for &i in chunk {
            fabric.submit(feed.packet(i), 0);
            expected.push(oracle_ports(&active, feed.packet(i))?);
        }
        let Some(report) = r.cycle.get(k) else {
            break;
        };
        fabric
            .apply_update(report)
            .map_err(|e| format!("oracle epoch: {e}"))?;
        let rule = &rules.extra[k / 2];
        if k % 2 == 0 {
            active.push(rule.clone());
        } else {
            active.retain(|x| x != rule);
        }
    }
    let report = fabric.finish();
    for (j, (got, want)) in report
        .decisions_in_submit_order()
        .into_iter()
        .zip(&expected)
        .enumerate()
    {
        match got {
            Some(d) if d.ports == *want => {}
            other => {
                return Err(format!(
                    "fabric decision {j} is {:?}, oracle says {want:?}",
                    other.map(|d| &d.ports)
                ))
            }
        }
    }
    check_fabric_report(report)
}

pub fn run(args: &Args, seeds: Seeds) -> BenchResult<Outcome> {
    let spec = itch_spec()?;
    let rules = price_rules(seeds);
    let feed = Feed::nasdaq_like(seeds, FEED_PACKETS, MSGS_PER_PACKET)?;
    if args.trace {
        return traced(args, &spec, &rules, &feed);
    }
    let mut out = Outcome::default();
    let (mut setups, mut w) = run_rounds(
        args,
        SETUPS_PER_ROUND,
        || setup(&spec, &rules, &feed),
        |r| r.total_ns,
        |r, dur| window(r, &feed, dur, None),
        |r, last| {
            if last {
                check_oracle(&r, &rules, &feed, args.seed)?;
            }
            check_fabric_report(r.fabric.finish())
        },
    )?;

    let epochs = (w.subscribe.len() + w.unsubscribe.len()) as u64;
    out.attempted = w.msgs + epochs;
    out.metric("ops_per_s", median_f64(&mut w.rates), "op/s");
    out.metric("primary_p50_ms", w.subscribe.percentile_ms(0.5), "ms");
    out.metric("primary_p90_ms", w.subscribe.percentile_ms(0.9), "ms");
    out.metric("secondary_p50_ms", w.unsubscribe.percentile_ms(0.5), "ms");
    out.metric("secondary_p90_ms", w.unsubscribe.percentile_ms(0.9), "ms");
    out.metric("setup_s", median(&mut setups) as f64 / 1e9, "s");
    out.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
    out.note(format!(
        "fabric: {} msgs and {epochs} epochs over {:.2} s active",
        w.msgs,
        w.active_ns as f64 / 1e9
    ));
    Ok(out)
}

fn traced(args: &Args, spec: &Spec, rules: &RuleSet, feed: &Feed) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut r = setup(spec, rules, feed)?;
    spans.add("e2e set-up (install+start+cycle+warm)", 1, 1, r.total_ns);
    let half = args.window() / 2;
    let plain = window(&mut r, feed, half, None)?;
    let traced = window(&mut r, feed, half, Some(&mut spans))?;
    check_fabric_report(r.fabric.finish())?;

    let probes = layers::probe_all(spec, rules, feed, &mut spans)?;
    let mut epochs: Vec<u64> = plain
        .subscribe
        .iter()
        .chain(plain.unsubscribe.iter())
        .copied()
        .collect();
    let epoch_ms = ms(median(&mut epochs));
    let per_msg = |w: &Window| w.active_ns as f64 / w.msgs as f64;
    out.attempted = plain.msgs + traced.msgs;
    out.metrics = probes.metrics;
    out.metric(
        "e2e.unattributed_share",
        1.0 - probes.epoch_known_ms / epoch_ms,
        "ratio",
    );
    out.metric(
        "e2e.trace_overhead_share",
        per_msg(&traced) / per_msg(&plain) - 1.0,
        "ratio",
    );
    out.note(format!(
        "epoch p50 {epoch_ms:.3} ms = report apply + partition + {LEAVES} x prepare + quiesce \
         {:.3} ms + unattributed (commit, slice copies) {:.3} ms",
        probes.epoch_known_ms,
        epoch_ms - probes.epoch_known_ms
    ));
    spans.render(&mut out.report);
    Ok(out)
}
