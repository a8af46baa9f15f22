//! `churn`: an in-process `camusd` holding the Fig. 5c program, driven
//! over real TCP by one connection in a closed loop that alternates
//! `Subscribe` and `Unsubscribe` of single held-out rules. No packets.

use std::time::{Duration, Instant};

use camus::bus::{BusClient, BusRequest};
use camus::daemon::Daemon;

use crate::common::*;
use crate::layers::{self, check_snapshot, daemon_config, expect_ack};

/// Set-ups per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 2;
/// Packets in the feed the traced run's packet-path probes use.
const PROBE_FEED_PACKETS: usize = 1 << 15;

struct Ready {
    daemon: Daemon,
    client: BusClient,
    total_ns: u64,
}

/// From nothing to ready: compile and install the program, start the
/// daemon, connect and ping.
fn setup(spec: &camus::lang::Spec, rules: &RuleSet) -> BenchResult<Ready> {
    let t = Instant::now();
    let daemon = Daemon::start(daemon_config(spec, rules)).map_err(|e| format!("daemon: {e}"))?;
    let mut client =
        BusClient::connect(&daemon.bus_addrs()[0]).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(Ready {
        daemon,
        client,
        total_ns: ns(t.elapsed()),
    })
}

/// Checks the committed set is back to the initial one, shuts the
/// daemon down and checks its ledger.
fn finish(mut r: Ready, rules: &RuleSet) -> BenchResult<()> {
    check_snapshot(&mut r.client, &rules.installed)?;
    drop(r.client);
    let report = r.daemon.join();
    if !report.zero_loss() {
        return Err("daemon ledger is not zero-loss".into());
    }
    if report.bus.mutations_rejected != 0 {
        return Err(format!(
            "{} mutations rejected",
            report.bus.mutations_rejected
        ));
    }
    Ok(())
}

#[derive(Default)]
struct Window {
    subscribe: Samples,
    unsubscribe: Samples,
    elapsed_ns: u64,
}

impl Pool for Window {
    fn pool(&mut self, other: Window) {
        self.subscribe.pool(other.subscribe);
        self.unsubscribe.pool(other.unsubscribe);
        self.elapsed_ns += other.elapsed_ns;
    }
}

/// Closed loop for at least `dur`, ending on an unsubscribe so the
/// program is back to its initial rules. Traced, each mutation is
/// preceded by a timed `Ping`.
fn window(
    r: &mut Ready,
    rules: &RuleSet,
    dur: Duration,
    mut spans: Option<&mut Spans>,
) -> BenchResult<Window> {
    let mut w = Window::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < dur || w.subscribe.len() > w.unsubscribe.len() {
        if let Some(s) = spans.as_deref_mut() {
            let t = Instant::now();
            r.client.ping().map_err(|e| format!("ping: {e}"))?;
            s.add("e2e bus.ping", 1, 1, ns(t.elapsed()));
        }
        let text = rules.extra[(i / 2) % rules.extra.len()].to_string();
        let subscribe = i % 2 == 0;
        let req = if subscribe {
            BusRequest::Subscribe { rules: vec![text] }
        } else {
            BusRequest::Unsubscribe { rules: vec![text] }
        };
        let t = Instant::now();
        expect_ack(r.client.request(&req))?;
        let took = ns(t.elapsed());
        if subscribe {
            w.subscribe.push(took);
        } else {
            w.unsubscribe.push(took);
        }
        if let Some(s) = spans.as_deref_mut() {
            let layer = if subscribe {
                "e2e bus.subscribe round trip"
            } else {
                "e2e bus.unsubscribe round trip"
            };
            s.add(layer, 1, 1, took);
        }
        i += 1;
    }
    w.elapsed_ns = ns(start.elapsed());
    Ok(w)
}

pub fn run(args: &Args, seeds: Seeds) -> BenchResult<Outcome> {
    let spec = itch_spec()?;
    let rules = price_rules(seeds);
    if args.trace {
        return traced(args, seeds, &spec, &rules);
    }
    let mut out = Outcome::default();
    let (mut setups, mut w) = run_rounds(
        args,
        SETUPS_PER_ROUND,
        || setup(&spec, &rules),
        |r| r.total_ns,
        |r, dur| window(r, &rules, dur, None),
        |r, _| finish(r, &rules),
    )?;

    let ops = (w.subscribe.len() + w.unsubscribe.len()) as u64;
    // Closed loop: the rate of each subscribe/unsubscribe pair.
    let mut rates: Vec<f64> = w
        .subscribe
        .iter()
        .zip(w.unsubscribe.iter())
        .map(|(s, u)| 2e9 / (s + u) as f64)
        .collect();
    out.attempted = ops;
    out.metric("ops_per_s", median_f64(&mut rates), "op/s");
    out.metric("primary_p50_ms", w.subscribe.percentile_ms(0.5), "ms");
    out.metric("primary_p90_ms", w.subscribe.percentile_ms(0.9), "ms");
    out.metric("secondary_p50_ms", w.unsubscribe.percentile_ms(0.5), "ms");
    out.metric("secondary_p90_ms", w.unsubscribe.percentile_ms(0.9), "ms");
    out.metric("setup_s", median(&mut setups) as f64 / 1e9, "s");
    out.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
    for (kind, samples) in [("subscribe", &w.subscribe), ("unsubscribe", &w.unsubscribe)] {
        let mut all: Vec<u64> = samples.iter().copied().collect();
        let q: Vec<String> = [0.1, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&p| format!("p{}={:.2}", (p * 100.0) as u32, ms(percentile(&mut all, p))))
            .collect();
        out.note(format!(
            "churn {kind} ms, all rounds pooled: {}",
            q.join(" ")
        ));
    }
    out.note(format!(
        "churn: {} subscribes + {} unsubscribes acked over {:.2} s on one connection",
        w.subscribe.len(),
        w.unsubscribe.len(),
        w.elapsed_ns as f64 / 1e9
    ));
    Ok(out)
}

fn traced(
    args: &Args,
    seeds: Seeds,
    spec: &camus::lang::Spec,
    rules: &RuleSet,
) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut r = setup(spec, rules)?;
    spans.add("e2e camusd set-up (start+connect+ping)", 1, 1, r.total_ns);
    let half = args.window() / 2;
    let mut plain = window(&mut r, rules, half, None)?;
    let traced = window(&mut r, rules, half, Some(&mut spans))?;
    finish(r, rules)?;

    let feed = Feed::nasdaq_like(seeds, PROBE_FEED_PACKETS, 4)?;
    let probes = layers::probe_all(spec, rules, &feed, &mut spans)?;
    let per_op =
        |w: &Window| w.elapsed_ns as f64 / (w.subscribe.len() + w.unsubscribe.len()) as f64;
    let sub_ms = plain.subscribe.percentile_ms(0.5);
    let unsub_ms = plain.unsubscribe.percentile_ms(0.5);
    out.attempted = (plain.subscribe.len()
        + plain.unsubscribe.len()
        + traced.subscribe.len()
        + traced.unsubscribe.len()) as u64;
    out.metrics = probes.metrics;
    out.metric(
        "e2e.unattributed_share",
        1.0 - probes.subscribe_known_ms / sub_ms,
        "ratio",
    );
    out.metric(
        "e2e.trace_overhead_share",
        per_op(&traced) / per_op(&plain) - 1.0,
        "ratio",
    );
    out.note(format!(
        "subscribe p50 {sub_ms:.3} ms = ping + parse_rule + update(add) + apply_update {:.3} ms \
         + unattributed {:.3} ms",
        probes.subscribe_known_ms,
        sub_ms - probes.subscribe_known_ms
    ));
    out.note(format!(
        "unsubscribe p50 {unsub_ms:.3} ms = ping + parse_rule + update(remove) + apply_update {:.3} ms \
         + unattributed {:.3} ms",
        probes.unsubscribe_known_ms,
        unsub_ms - probes.unsubscribe_known_ms
    ));
    spans.render(&mut out.report);
    Ok(out)
}
