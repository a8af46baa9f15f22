//! Shared plumbing: arguments, seeded inputs, the naive oracle, span
//! accounting, percentiles and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use camus::compiler::{Compiler, CompilerOptions};
use camus::engine::{Engine, EngineConfig, EngineReport};
use camus::itch::{parse_feed_packet, ItchMessage};
use camus::lang::ast::{Action, Atom, Cond, FieldRef, Operand, RelOp, Value};
use camus::lang::{parse_spec, Rule, Spec};
use camus::pipeline::{Pipeline, PortId};
use camus::workload::itch_subs::stock_symbol;
use camus::workload::{
    generate_itch_subscriptions, naive_ports, synthesize_feed, ItchSubsConfig, TraceConfig,
};

/// The PHV field every workload shards, caches and partitions on.
pub const SHARD_FIELD: &str = "add_order.stock";

/// Size of the Fig. 5c program (`generate_itch_subscriptions` default).
pub const PRICE_RULES: usize = 1000;

/// Rules generated beyond the installed program: the churn pool and
/// the held-out rules the mutation probes subscribe and unsubscribe.
pub const EXTRA_RULES: usize = 64;

pub type BenchResult<T> = Result<T, String>;

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> BenchResult<Args> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !(args.seconds > 0.0 && args.seconds <= 120.0) {
            return Err(format!("--seconds {} out of (0, 120]", args.seconds));
        }
        Ok(args)
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Generator seeds derived from the workload seed. Seed 0 gives the
/// generators' own defaults (`ItchSubsConfig::default().seed`,
/// `TraceConfig::nasdaq_like(..).seed`), so `--seed 0` reproduces the
/// repository's Fig. 5c rule set and Nasdaq-like trace.
#[derive(Clone, Copy)]
pub struct Seeds {
    pub subs: u64,
    pub trace: u64,
}

impl Seeds {
    pub fn from_workload_seed(seed: u64) -> Seeds {
        Seeds {
            subs: ItchSubsConfig::default().seed.wrapping_add(seed),
            trace: TraceConfig::nasdaq_like(0).seed.wrapping_add(seed),
        }
    }
}

/// SplitMix64: the benchmark's own small seeded generator (rule ports,
/// oracle samples).
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A workload's rule set: `installed` is the program, `extra` rules
/// are subscribable later (they are part of every compiler session's
/// alphabet, so subscribing one takes the delta path).
pub struct RuleSet {
    pub installed: Vec<Rule>,
    pub extra: Vec<Rule>,
}

impl RuleSet {
    /// The alphabet a compiler session is opened over.
    pub fn pool(&self) -> Vec<Rule> {
        self.installed.iter().chain(&self.extra).cloned().collect()
    }
}

fn fwd_rule(cond: Cond, port: u16) -> Rule {
    Rule::new(cond, vec![Action::Fwd(vec![port])])
}

fn stock_eq(symbol: String) -> Cond {
    Cond::Atom(Atom {
        operand: Operand::Field(FieldRef::short("stock")),
        op: RelOp::Eq,
        value: Value::Symbol(symbol),
    })
}

/// `stock == STKnnn : fwd(p)` over the 200-symbol trace universe, one
/// rule per symbol, seeded ports; the extras re-target existing
/// symbols at other ports.
pub fn symbol_rules(seeds: Seeds) -> RuleSet {
    let mut mix = Mix::new(seeds.subs);
    let mut port = || 1 + (mix.next() % 200) as u16;
    let installed = (0..200)
        .map(|i| fwd_rule(stock_eq(stock_symbol(i)), port()))
        .collect::<Vec<_>>();
    let extra = (0..EXTRA_RULES)
        .map(|i| fwd_rule(stock_eq(stock_symbol(i)), 200 + i as u16))
        .collect();
    RuleSet { installed, extra }
}

/// The paper's Fig. 5c set: `PRICE_RULES` `stock == S ∧ price > P :
/// fwd(H)` rules, plus extras drawn from the same generator stream
/// (duplicates of installed rules dropped).
pub fn price_rules(seeds: Seeds) -> RuleSet {
    let all = generate_itch_subscriptions(&ItchSubsConfig {
        subscriptions: PRICE_RULES + EXTRA_RULES,
        seed: seeds.subs,
        ..Default::default()
    });
    let (installed, rest) = all.split_at(PRICE_RULES);
    let extra = rest
        .iter()
        .filter(|r| !installed.contains(r))
        .cloned()
        .collect();
    RuleSet {
        installed: installed.to_vec(),
        extra,
    }
}

pub fn itch_spec() -> BenchResult<Spec> {
    parse_spec(camus::lang::spec::ITCH_SPEC).map_err(|e| format!("ITCH spec: {e}"))
}

/// Compiles a rule set with the default (Ethernet/IPv4/UDP/MoldUDP64,
/// add-order) encapsulation.
pub fn compile(spec: &Spec, rules: &[Rule]) -> BenchResult<Pipeline> {
    let compiler = Compiler::new(spec.clone(), CompilerOptions::default())
        .map_err(|e| format!("compiler: {e}"))?;
    Ok(compiler
        .compile(rules)
        .map_err(|e| format!("compile: {e}"))?
        .pipeline)
}

/// A replayable packet feed, stored flat.
pub struct Feed {
    data: Vec<u8>,
    spans: Vec<(usize, usize)>,
    /// ITCH messages carried by each packet.
    msgs: Vec<u64>,
}

impl Feed {
    /// Zipf(1.1) add-orders only, one message per (minimum-size) frame.
    pub fn add_orders(seeds: Seeds, packets: usize) -> BenchResult<Feed> {
        Self::synthesize(&TraceConfig {
            messages: packets,
            messages_per_packet: 1,
            add_order_fraction: 1.0,
            target_fraction: 0.0,
            seed: seeds.trace,
            ..TraceConfig::nasdaq_like(0)
        })
    }

    /// The Nasdaq-like trace (Zipf 1.1, 40 % add-orders, bursts) at
    /// `per_packet` messages per frame.
    pub fn nasdaq_like(seeds: Seeds, packets: usize, per_packet: usize) -> BenchResult<Feed> {
        Self::synthesize(&TraceConfig {
            messages_per_packet: per_packet,
            seed: seeds.trace,
            ..TraceConfig::nasdaq_like(packets * per_packet)
        })
    }

    fn synthesize(cfg: &TraceConfig) -> BenchResult<Feed> {
        let packets = synthesize_feed(cfg);
        let mut feed = Feed {
            data: Vec::with_capacity(packets.iter().map(|p| p.bytes.len()).sum()),
            spans: Vec::with_capacity(packets.len()),
            msgs: Vec::with_capacity(packets.len()),
        };
        for p in &packets {
            let (_, msgs) = parse_feed_packet(&p.bytes).map_err(|e| format!("feed: {e:?}"))?;
            feed.spans.push((feed.data.len(), p.bytes.len()));
            feed.data.extend_from_slice(&p.bytes);
            feed.msgs.push(msgs.len() as u64);
        }
        Ok(feed)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Packet `i`, wrapping around the feed.
    #[inline]
    pub fn packet(&self, i: usize) -> &[u8] {
        let (start, len) = self.spans[i % self.spans.len()];
        &self.data[start..start + len]
    }

    #[inline]
    pub fn messages(&self, i: usize) -> u64 {
        self.msgs[i % self.msgs.len()]
    }
}

/// The ground-truth decision for a feed packet: every add-order
/// message is decoded by the ITCH codec and evaluated against the rule
/// ASTs by the naive interpreter; the ports are the union over the
/// packet's messages.
pub fn oracle_ports(rules: &[Rule], packet: &[u8]) -> BenchResult<Vec<PortId>> {
    let (_, msgs) = parse_feed_packet(packet).map_err(|e| format!("oracle decode: {e:?}"))?;
    let mut ports = Vec::new();
    for m in msgs {
        let ItchMessage::AddOrder(a) = m else {
            continue;
        };
        let field = |name: &str| -> u64 {
            match name {
                "stock" => u64::from_be_bytes(a.stock),
                "price" => u64::from(a.price),
                "shares" => u64::from(a.shares),
                "buy_sell" => u64::from(a.side.to_byte()),
                "order_ref" => a.order_ref,
                other => panic!("oracle: rule uses unexpected field {other}"),
            }
        };
        let bits = |name: &str| -> u32 {
            match name {
                "stock" | "order_ref" => 64,
                "buy_sell" => 8,
                _ => 32,
            }
        };
        ports.extend(naive_ports(rules, &field, &bits).into_iter().map(PortId));
    }
    ports.sort_unstable();
    ports.dedup();
    Ok(ports)
}

/// The engine ledger: every submitted packet decided, nothing
/// quarantined, no worker error.
pub fn check_engine_ledger(what: &str, submitted: u64, report: &EngineReport) -> BenchResult<()> {
    if let Some(e) = &report.error {
        return Err(format!("{what}: engine error {e}"));
    }
    if !report.quarantined.is_empty() || report.stats.packets != submitted {
        return Err(format!(
            "{what}: ledger broken: submitted {submitted}, decided {}, quarantined {}",
            report.stats.packets,
            report.quarantined.len()
        ));
    }
    Ok(())
}

/// Replays `sample` packets through a fresh engine built like the
/// measured one (but recording decisions) and compares every decision
/// with the oracle over `rules`.
pub fn check_engine_sample(
    program: &Pipeline,
    cfg: &EngineConfig,
    rules: &[Rule],
    feed: &Feed,
    sample: &[usize],
) -> BenchResult<()> {
    let mut engine = Engine::start(
        program,
        &EngineConfig {
            record_decisions: true,
            ..cfg.clone()
        },
        camus::engine::shard::itch_symbol_shard(),
    );
    for &i in sample {
        engine.submit(feed.packet(i), 0);
    }
    let report = engine.finish();
    check_engine_ledger("oracle sample", sample.len() as u64, &report)?;
    for (d, &i) in report.decisions.iter().zip(sample) {
        let want = oracle_ports(rules, feed.packet(i))?;
        if d.ports != want {
            return Err(format!(
                "decision for packet {i} is {:?}, oracle says {want:?}",
                d.ports
            ));
        }
    }
    Ok(())
}

/// Seeded sample of feed indices (with repeats, so cached decisions are
/// exercised as well as fresh ones).
pub fn sample_indices(seed: u64, feed: &Feed, n: usize) -> Vec<usize> {
    let mut mix = Mix::new(seed ^ 0x005A_3B1E);
    (0..n).map(|_| mix.below(feed.len())).collect()
}

/// Latency samples of one kind, kept per round of the run.
#[derive(Default)]
pub struct Samples(Vec<Vec<u64>>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        match self.0.last_mut() {
            Some(round) => round.push(ns),
            None => self.0.push(vec![ns]),
        }
    }

    /// Appends another window's samples as rounds of their own.
    pub fn pool(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.0.iter().flatten()
    }

    /// The `p`-th percentile of each round, median over the rounds, in
    /// ms: a burst of host noise that hits one or two rounds of a run
    /// does not move it.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        let mut per_round: Vec<f64> = self
            .0
            .iter_mut()
            .filter(|r| !r.is_empty())
            .map(|r| ms(percentile(r, p)))
            .collect();
        median_f64(&mut per_round)
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of unsorted samples (sorted in place).
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [u64]) -> u64 {
    percentile(samples, 0.5)
}

/// Median of rates (upper median for even counts).
pub fn median_f64(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs `f` `n` times and returns the median wall time of one call.
pub fn median_time<T>(n: usize, mut f: impl FnMut() -> BenchResult<T>) -> BenchResult<u64> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(ns(t.elapsed()));
    }
    Ok(median(&mut times))
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...),
/// without its unit.
fn proc_status(field: &str) -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> BenchResult<f64> {
    Ok(proc_status("VmHWM")? / 1024.0)
}

/// After a teardown: waits (up to 2 s) until the threads the torn-down
/// system started have exited, then hands the memory the allocator
/// kept back to the kernel. Every round's system then starts from the
/// same resident baseline, so `VmHWM` is the peak of one system plus
/// that baseline. Without this, glibc keeps freed arena memory
/// resident and the peak depends on which arenas the next system's
/// threads happen to be given.
pub fn settle_memory(threads: f64) -> BenchResult<()> {
    let deadline = Instant::now() + Duration::from_secs(2);
    while proc_status("Threads")? > threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    trim_heap();
    Ok(())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointer and only releases free
    // memory of the allocator's own arenas.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Per-layer span accounting of a traced run: for each layer, how many
/// calls, how long they were busy, and how many waits were counted.
#[derive(Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, Layer>,
}

#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub units: u64,
    pub busy_ns: u64,
    pub waits: u64,
}

impl Spans {
    /// Records `calls` calls covering `units` units of work (packets,
    /// messages, requests) that took `busy_ns` in total.
    pub fn add(&mut self, layer: &'static str, calls: u64, units: u64, busy_ns: u64) {
        let l = self.layers.entry(layer).or_default();
        l.calls += calls;
        l.units += units;
        l.busy_ns += busy_ns;
    }

    pub fn waits(&mut self, layer: &'static str, waits: u64) {
        self.layers.entry(layer).or_default().waits += waits;
    }

    pub fn render(&self, out: &mut Vec<String>) {
        out.push(format!(
            "  {:<44} {:>10} {:>12} {:>12} {:>14}",
            "layer", "calls", "units", "busy_ms", "waits"
        ));
        for (name, l) in &self.layers {
            out.push(format!(
                "  {:<44} {:>10} {:>12} {:>12.3} {:>14}",
                name,
                l.calls,
                l.units,
                ms(l.busy_ns),
                l.waits
            ));
        }
    }
}

/// Rounds a run is split into. Each round sets the system up from
/// nothing a few times (tearing down all but the last), measures the
/// last one for `seconds / ROUNDS` and tears it down, so the set-ups
/// sample the same host conditions as the measurement.
pub const ROUNDS: u32 = 5;

/// A measurement window whose samples pool across rounds.
pub trait Pool: Default {
    fn pool(&mut self, other: Self);
}

/// Runs the rounds: `setup` returns a ready system, `setup_ns` reads
/// how long its set-up took, `measure` measures it, `finish` tears it
/// down and checks it (told whether it is the run's last measured
/// system). Memory is settled after every teardown. Returns every
/// set-up time and the pooled window.
pub fn run_rounds<R, W: Pool>(
    args: &Args,
    setups_per_round: usize,
    mut setup: impl FnMut() -> BenchResult<R>,
    setup_ns: impl Fn(&R) -> u64,
    mut measure: impl FnMut(&mut R, Duration) -> BenchResult<W>,
    mut finish: impl FnMut(R, bool) -> BenchResult<()>,
) -> BenchResult<(Vec<u64>, W)> {
    let mut setups = Vec::new();
    let mut pooled = W::default();
    let threads = proc_status("Threads")?;
    for round in 0..ROUNDS {
        let mut ready = None;
        for _ in 0..setups_per_round.max(1) {
            if let Some(spare) = ready.take() {
                finish(spare, false)?;
                settle_memory(threads)?;
            }
            let r = setup()?;
            setups.push(setup_ns(&r));
            ready = Some(r);
        }
        let mut r = ready.ok_or("no set-up ran")?;
        pooled.pool(measure(&mut r, args.window() / ROUNDS)?);
        finish(r, round + 1 == ROUNDS)?;
        settle_memory(threads)?;
    }
    Ok((setups, pooled))
}

/// What one run produced: how many operations it attempted (a failed
/// operation fails the run's checks, so a result always has zero
/// failures), the metrics of the requested kind (end-to-end or
/// per-layer) and a human-readable report.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub report: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{body}}}}}"
    )
}
