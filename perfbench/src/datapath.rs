//! The pair-bridge datapath runner: an unpaced capacity pass, a paced
//! open-loop pass at a fixed offered rate, and a one-segment-per-batch
//! reference pass that proves the batched output byte-exact.
//!
//! Only `PrimaryBridge::process_batch` and `on_tick` sit inside the
//! timed windows. Segment synthesis (`FlowScript::step_at`) happens
//! before each timed call, timed on its own as harness cost, or, for
//! the paced pass, before the pass starts.

use std::time::Instant;

use tcpfo_apps::manyflow::{FlowScript, ManyFlowConfig, ManyFlowNet, Step, SERVER_PORT};
use tcpfo_bench::loadgen::{build_schedule, ArrivalProcess, OpenLoopConfig, SplitMix64, Token};
use tcpfo_core::flow::{FlowTableConfig, ShardStats};
use tcpfo_core::{FailoverConfig, PrimaryBridge, PrimaryStats};
use tcpfo_net::ShardExecutor;
use tcpfo_tcp::filter::{FilterOutput, SegmentFilter};
use tcpfo_telemetry::span::{SpanTrack, Tracer};
use tcpfo_telemetry::{LatencyObservatory, Stage};

use crate::alloc;
use crate::stats::{ns_since, Digest};

/// Simulated nanoseconds per offered nanosecond. The churn schedule
/// offers a few seconds of traffic; stretching its clock 30× makes
/// early mice outlive the 60 s TimeWait TTL, so TTL reaps happen
/// inside the run instead of after it.
pub const SIM_SCALE: u64 = 30;

/// The GC tick (`on_tick`) fires each time the offered clock crosses
/// a multiple of this.
pub const TICK_OFFERED_NS: u64 = 1_000_000;

/// Share of `--seconds` the paced pass lasts; it replays that long a
/// prefix of the schedule.
pub const PACED_SHARE: f64 = 0.3;

/// Share of `--seconds` of host time inside the timed calls that the
/// unpaced passes accumulate, at the least, in an end-to-end run.
pub const CAPACITY_SHARE: f64 = 0.3;

/// Unpaced `process_batch` calls per timing window. Capacity sums,
/// window by window, the fastest of the passes over that window, so a
/// host stall in one pass does not count (see [`best_of_windows_ns`]).
pub const WINDOW_CALLS: usize = 64;

/// Segments handed to one `process_batch` call in the unpaced pass,
/// and the most a paced call may carry.
pub const BATCH: usize = 64;

/// One datapath workload: the traffic shape, the table geometry and
/// the paced pass's offered rate.
#[derive(Debug, Clone)]
pub struct DatapathSpec {
    /// Flows held open for the whole run.
    pub residents: usize,
    /// Data rounds per resident.
    pub resident_rounds: usize,
    /// Full-lifecycle (SYN … FIN) flows; 0 for none.
    pub mice: usize,
    /// Mice arriving at one instant.
    pub mice_burst: usize,
    /// Payload bytes per data segment.
    pub payload: usize,
    /// Spacing of one flow's steps before rate scaling.
    pub intra_flow_gap_ns: u64,
    /// Flow-table shards.
    pub shards: usize,
    /// Flow-table capacity.
    pub capacity: usize,
    /// Offered rate of the paced pass, segments per second.
    pub paced_rate: f64,
}

impl DatapathSpec {
    /// 2¹⁸ resident flows plus 2¹⁶ churning mice, 64 B payloads.
    pub fn churn_small() -> Self {
        DatapathSpec {
            residents: 1 << 18,
            resident_rounds: 1,
            mice: 1 << 16,
            mice_burst: 64,
            payload: 64,
            intra_flow_gap_ns: 20_000,
            shards: 64,
            capacity: 1 << 20,
            paced_rate: 100_000.0,
        }
    }

    /// 256 long-lived flows streaming MSS-sized payloads.
    pub fn bulk_large() -> Self {
        let (residents, paced_rate) = (256, 20_000.0);
        DatapathSpec {
            residents,
            resident_rounds: 500,
            mice: 0,
            mice_burst: 1,
            payload: 1_460,
            // All flows share the paced rate for their whole life.
            intra_flow_gap_ns: (residents as f64 / paced_rate * 1e9) as u64,
            shards: 64,
            capacity: 1 << 20,
            paced_rate,
        }
    }

    /// Data segments the bridge must release for the whole schedule.
    pub fn expected_merged(&self) -> u64 {
        (self.residents * self.resident_rounds + self.mice) as u64
    }

    fn open_loop(&self, seed: u64) -> OpenLoopConfig {
        let mut cfg = OpenLoopConfig::quick();
        cfg.resident_flows = self.residents;
        cfg.resident_rounds = self.resident_rounds;
        cfg.mice_flows = self.mice;
        cfg.mice_rounds = 1;
        cfg.payload = self.payload;
        cfg.intra_flow_gap_ns = self.intra_flow_gap_ns;
        cfg.seed = seed;
        // Arrival rates only shape the schedule; `Schedule::build`
        // rescales it to the paced rate afterwards. Residents arrive
        // over the span minus their own lifetime, so long-lived flows
        // all start at once and the offered rate stays flat.
        let steps = 3 + 3 * self.resident_rounds;
        let span_s = (self.residents * steps + self.mice * 10) as f64 / self.paced_rate;
        let lifetime_s = (steps - 1) as f64 * self.intra_flow_gap_ns as f64 / 1e9;
        let window_s = (span_s - lifetime_s).max(self.intra_flow_gap_ns as f64 / 1e9);
        cfg.resident_arrival = ArrivalProcess::Poisson {
            rate_per_sec: (self.residents as f64 / window_s).max(1.0),
        };
        cfg.mice_arrival = ArrivalProcess::Bursty {
            rate_per_sec: (self.mice as f64 / span_s).max(1.0),
            burst: self.mice_burst,
        };
        cfg
    }

    /// A fresh, detached pair bridge with this spec's flow table.
    pub fn new_bridge(&self) -> PrimaryBridge {
        let net = ManyFlowNet::default();
        let mut bridge =
            PrimaryBridge::new(net.a_p, net.a_s, FailoverConfig::from_ports([SERVER_PORT]));
        bridge.set_flow_config(FlowTableConfig::new(self.shards, self.capacity));
        bridge
    }
}

/// A seeded, time-sorted schedule whose offered rate is exactly the
/// spec's paced rate.
pub struct Schedule {
    /// `(due offered ns, (flow, step))`, ascending by due time.
    pub tokens: Vec<(u64, Token)>,
    residents: ManyFlowConfig,
    mice: ManyFlowConfig,
    resident_count: u32,
}

impl Schedule {
    /// Builds the schedule for `seed`.
    pub fn build(spec: &DatapathSpec, seed: u64) -> Self {
        let cfg = spec.open_loop(seed);
        let mut tokens = build_schedule(&cfg);
        // Each step is delayed by up to one intra-flow gap. Without it
        // every flow repeats its arrival phase for its whole life, so
        // long-lived flows that happen to share a phase collide every
        // round and the seed alone decides the queueing. The delay is
        // below one gap, so a flow's steps keep their order.
        let gap = spec.intra_flow_gap_ns.max(1);
        let mut rng = SplitMix64::new(seed ^ 0x717E_5EED);
        for (t, _) in tokens.iter_mut() {
            *t += rng.next_u64() % gap;
        }
        tokens.sort_by_key(|&(t, _)| t);
        let span = tokens.last().map_or(1, |&(t, _)| t.max(1)) as f64;
        let want = tokens.len() as f64 / spec.paced_rate * 1e9;
        for (t, _) in tokens.iter_mut() {
            *t = (*t as f64 * want / span) as u64;
        }
        let (residents, mice) = cfg.flow_configs();
        Schedule {
            tokens,
            residents,
            mice,
            resident_count: spec.residents as u32,
        }
    }

    /// Materialises the segment a token stands for.
    pub fn step(&self, (flow, k): Token) -> Step {
        let net = ManyFlowNet::default();
        let script = if flow < self.resident_count {
            FlowScript::new(&self.residents, net, flow as usize)
        } else {
            FlowScript::new(&self.mice, net, (flow - self.resident_count) as usize)
        };
        script.step_at(k as usize)
    }
}

/// Folds every emitted segment (lane, addresses, bytes) into `digest`
/// in order; returns the segment count.
pub fn fold_outputs(digest: &mut Digest, outs: &[FilterOutput]) -> u64 {
    let mut n = 0;
    for o in outs {
        for (lane, segs) in [(0u8, &o.to_wire), (1u8, &o.to_tcp)] {
            for s in segs {
                digest.update(&[lane]);
                digest.update(&s.src.octets());
                digest.update(&s.dst.octets());
                digest.update(&s.bytes);
                n += 1;
            }
        }
    }
    n
}

/// Spans the benchmark records around its own calls in a traced run.
pub struct BenchSpans<'a> {
    tracer: &'a Tracer,
    /// Host-clock origin shared by every span of the run.
    origin: Instant,
}

impl<'a> BenchSpans<'a> {
    /// Spans into `tracer`, timestamped from `origin`.
    pub fn new(tracer: &'a Tracer, origin: Instant) -> Self {
        BenchSpans { tracer, origin }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span `[start, end]` under the innermost open
    /// span, with one numeric argument.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        arg: (&'static str, u64),
    ) {
        if let Some(s) = self
            .tracer
            .begin(SpanTrack::Hotpath, "bench", name, self.ns(start))
        {
            self.tracer.end_args(&s, self.ns(end), [Some(arg), None]);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn around<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self
            .tracer
            .begin(SpanTrack::Hotpath, "bench", name, self.ns(Instant::now()));
        let r = f();
        if let Some(s) = span {
            self.tracer.end(&s, self.ns(Instant::now()));
        }
        r
    }
}

/// What one unpaced or reference pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Segments fed.
    pub segments: u64,
    /// Host ns inside `process_batch`.
    pub batch_ns: u64,
    /// Host ns inside `on_tick`, one entry per tick.
    pub tick_ns: Vec<u64>,
    /// Host ns inside `process_batch` and `on_tick` per window of
    /// [`WINDOW_CALLS`] calls.
    pub window_ns: Vec<u64>,
    /// Host ns spent synthesising segments.
    pub synth_ns: u64,
    /// Host ns constructing the bridge.
    pub build_ns: u64,
    /// Segments the bridge emitted (wire + TCP lanes).
    pub outputs: u64,
    /// Digest of every emitted segment in order.
    pub digest: Digest,
    /// Bridge counters at the end of the pass.
    pub stats: PrimaryStats,
    /// Flow-table counters at the end of the pass.
    pub flow: ShardStats,
    /// Highest flow-table occupancy sampled at the GC ticks.
    pub occupancy_peak: u64,
    /// Σ stage ns per stage, when the latency observatory rode along.
    pub stage_ns: Option<[u64; Stage::COUNT]>,
    /// Allocations inside `process_batch`, when counting.
    pub allocs: u64,
}

impl PassResult {
    /// Host ns the capacity figure divides by.
    pub fn timed_ns(&self) -> u64 {
        self.batch_ns + self.tick_ns.iter().sum::<u64>()
    }

    /// The pass's datapath failures: dropped segments, RST-evicted
    /// flows, and mismatched payload counted in segments.
    pub fn failed(&self, payload: usize) -> u64 {
        self.stats.drops
            + self.stats.evicted_rsts
            + self.stats.mismatched_bytes.div_ceil(payload.max(1) as u64)
    }
}

/// How a pass observes the bridge.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Nothing attached: the end-to-end configuration.
    Detached,
    /// Latency observatory attached, allocations counted, benchmark
    /// spans recorded.
    Traced(&'a BenchSpans<'a>),
    /// One segment per `process_batch` call, untimed: the reference
    /// the batched digest must equal.
    Reference,
}

/// Feeds the whole schedule through a fresh bridge in fixed batches of
/// [`BATCH`], never waiting.
pub fn unpaced_pass(spec: &DatapathSpec, sched: &Schedule, mode: Mode<'_>) -> PassResult {
    let exec = ShardExecutor::new(1);
    let mut r = PassResult::default();
    let t_build = Instant::now();
    let mut bridge = spec.new_bridge();
    r.build_ns = ns_since(t_build);
    let spans = match mode {
        Mode::Traced(spans) => {
            bridge.set_latency(Some(Box::new(LatencyObservatory::new())));
            alloc::set_counting(true);
            Some(spans)
        }
        _ => None,
    };
    let mut next_tick = TICK_OFFERED_NS;
    r.window_ns = vec![0; sched.tokens.len().div_ceil(BATCH * WINDOW_CALLS)];
    for (call, chunk) in sched.tokens.chunks(BATCH).enumerate() {
        let window = &mut r.window_ns[call / WINDOW_CALLS];
        let due = chunk.last().map_or(0, |&(t, _)| t);
        let sim_now = due * SIM_SCALE;
        let t_synth = Instant::now();
        let steps: Vec<Step> = chunk.iter().map(|&(_, tok)| sched.step(tok)).collect();
        r.synth_ns += ns_since(t_synth);
        let outs = if let Mode::Reference = mode {
            let mut outs = Vec::with_capacity(steps.len());
            for step in steps {
                outs.extend(bridge.process_batch(vec![step], sim_now, &exec));
            }
            outs
        } else {
            let allocs = alloc::allocations();
            let t0 = Instant::now();
            let outs = bridge.process_batch(steps, sim_now, &exec);
            let t1 = Instant::now();
            r.allocs += alloc::allocations() - allocs;
            let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
            r.batch_ns += ns;
            *window += ns;
            if let Some(s) = spans {
                s.record("process_batch", t0, t1, ("segments", chunk.len() as u64));
            }
            outs
        };
        r.segments += chunk.len() as u64;
        r.outputs += fold_outputs(&mut r.digest, &outs);
        drop(outs);
        if due >= next_tick {
            next_tick = (due / TICK_OFFERED_NS + 1) * TICK_OFFERED_NS;
            r.occupancy_peak = r.occupancy_peak.max(bridge.flow_stats().occupancy);
            let t0 = Instant::now();
            bridge.on_tick(sim_now);
            let t1 = Instant::now();
            let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
            r.tick_ns.push(ns);
            r.window_ns[call / WINDOW_CALLS] += ns;
            if let Some(s) = spans {
                s.record("on_tick", t0, t1, ("sim_ms", sim_now / 1_000_000));
            }
        }
    }
    alloc::set_counting(false);
    r.stats = bridge.stats.clone();
    r.flow = bridge.flow_stats();
    r.occupancy_peak = r.occupancy_peak.max(r.flow.occupancy);
    r.stage_ns = bridge
        .latency()
        .map(|l| Stage::ALL.map(|s| l.stages().stage(s).sum()));
    r
}

/// Σ over windows of the fastest pass's time for that window. Every
/// pass feeds the same schedule into a fresh bridge, so window `w` is
/// the same work in each; taking its minimum drops host preemption
/// (steal) that hit one pass and not the others.
pub fn best_of_windows_ns(passes: &[PassResult]) -> u64 {
    let windows = passes.iter().map(|p| p.window_ns.len()).min().unwrap_or(0);
    (0..windows)
        .map(|w| passes.iter().map(|p| p.window_ns[w]).min().unwrap_or(0))
        .sum()
}

/// What the paced pass measured.
#[derive(Debug, Clone, Default)]
pub struct PacedResult {
    /// Segments offered.
    pub segments: u64,
    /// Per-segment latency: due instant → return of the call that
    /// carried it, ascending.
    pub latency_ns: Vec<u64>,
    /// Per-segment lateness: due instant → the call that carried it
    /// was issued, ascending.
    pub late_ns: Vec<u64>,
    /// Bridge counters at the end of the pass.
    pub stats: PrimaryStats,
}

/// Replays the first `seconds × PACED_SHARE` of the schedule at its
/// due instants (the spec's paced rate) through a fresh, detached
/// bridge. Every segment is materialised before the pass; the loop
/// spins, never sleeps, between due instants.
pub fn paced_pass(spec: &DatapathSpec, sched: &Schedule, seconds: f64) -> PacedResult {
    let exec = ShardExecutor::new(1);
    let horizon = (seconds * PACED_SHARE * 1e9) as u64;
    let n = sched.tokens.partition_point(|&(t, _)| t < horizon).max(1);
    let tokens = &sched.tokens[..n.min(sched.tokens.len())];
    let mut r = PacedResult {
        segments: tokens.len() as u64,
        ..PacedResult::default()
    };
    let mut store = tokens
        .iter()
        .map(|&(_, tok)| sched.step(tok))
        .collect::<Vec<_>>()
        .into_iter();
    let mut bridge = spec.new_bridge();
    r.latency_ns.reserve(tokens.len());
    r.late_ns.reserve(tokens.len());
    let mut next_tick = TICK_OFFERED_NS;
    let mut i = 0;
    let origin = Instant::now();
    while i < tokens.len() {
        let now = ns_since(origin);
        if tokens[i].0 > now {
            std::hint::spin_loop();
            continue;
        }
        let mut j = i + 1;
        while j < tokens.len() && j - i < BATCH && tokens[j].0 <= now {
            j += 1;
        }
        let due = tokens[j - 1].0;
        let sim_now = due * SIM_SCALE;
        let steps: Vec<Step> = store.by_ref().take(j - i).collect();
        let outs = bridge.process_batch(steps, sim_now, &exec);
        if due >= next_tick {
            next_tick = (due / TICK_OFFERED_NS + 1) * TICK_OFFERED_NS;
            bridge.on_tick(sim_now);
        }
        let done = ns_since(origin);
        for &(t, _) in &tokens[i..j] {
            r.late_ns.push(now - t);
            r.latency_ns.push(done - t);
        }
        drop(outs);
        i = j;
    }
    r.latency_ns.sort_unstable();
    r.late_ns.sort_unstable();
    r.stats = bridge.stats.clone();
    r
}

/// Seed for the schedule of workload seed `seed` (kept apart from the
/// failover trial seeds drawn from the same root).
pub fn schedule_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0xDA7A_9A7E).next_u64()
}
