//! Open-loop load generator for the million-flow observatory (PR 6).
//!
//! Closed-loop benchmarks wait for the system under test before
//! sending the next request, so a slow datapath quietly thins its own
//! offered load and the recorded tail shrinks exactly when the system
//! is struggling — *coordinated omission*. This module keeps the load
//! open-loop: a deterministic, seeded schedule fixes every segment's
//! **intended** injection time up front; the injector's only freedom
//! is to fall behind, and falling behind is *measured* (lag, backlog)
//! rather than silently absorbed into the latency distribution.
//!
//! The flow population is the classic mice/elephants mix:
//!
//! * **residents** (elephants) — flows opened and left established,
//!   pinning the PR 4 sharded flow table at a target concurrency
//!   (≥ 1 M in the [`full`](OpenLoopConfig::full) profile);
//! * **mice** — short full-lifecycle flows (SYN … FIN) churning on
//!   top, exercising insert/expire while the table is loaded.
//!
//! Arrivals come from [`ArrivalProcess`] — Poisson (exponential
//! inter-arrival) or bursty (whole bursts at a shared instant) — and
//! all randomness derives from a [`SplitMix64`] stream, so one seed
//! reproduces the exact schedule. Segments themselves are materialised
//! lazily from [`FlowScript`] (O(1) per step), which is what makes a
//! million-flow schedule fit in memory: the schedule holds 16-byte
//! `(intended_ns, (flow, step))` tokens, never pre-built frames.

use tcpfo_apps::manyflow::{FlowScript, ManyFlowConfig, ManyFlowNet, Step};
use tcpfo_core::chain::ChainBridge;
use tcpfo_core::flow::{FlowTableConfig, ShardStats};
use tcpfo_core::{FailoverConfig, PrimaryBridge};
use tcpfo_net::{OpenLoopInjector, ShardExecutor};
use tcpfo_tcp::filter::{FilterOutput, SegmentFilter};
use tcpfo_telemetry::span::DEFAULT_SPAN_CAPACITY;
use tcpfo_telemetry::{
    HealthObservatory, HostClock, ObserverFlags, Observers, ShardSample, SpanSampler, Telemetry,
    UnderLoadRecorder,
};
use tcpfo_wire::ipv4::Ipv4Addr;

/// Server port every scripted flow targets (mirrors `manyflow`).
const SERVER_PORT: u16 = 80;

/// Simulated nanoseconds credited per processed batch. Keeps the
/// bridge's GC clock moving (TimeWait reaping) without coupling it to
/// the host clock.
const SIM_NS_PER_BATCH: u64 = 1_000_000;

/// Seed perturbation separating the mice arrival stream from the
/// resident stream (both start from [`OpenLoopConfig::seed`]).
const MICE_SEED_MIX: u64 = 0x6D69_6365_6D69_6365;

/// Sebastiano Vigna's SplitMix64 — the schedule's only entropy source.
/// Tiny, seedable, and statistically fine for inter-arrival sampling.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `(0, 1]` — never zero, so `ln()` stays finite.
    pub fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) / (1u64 << 53) as f64
    }
}

/// How flow arrivals are spread over time. Rates are *flow* arrivals
/// per second; the segment rate is `rate × steps_per_flow` once flows
/// overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1/rate_per_sec`. The paper-standard "smooth" open-loop load.
    Poisson {
        /// Mean flow arrivals per second.
        rate_per_sec: f64,
    },
    /// Bursts of `burst` flows arriving at the *same instant*, with
    /// exponential gaps between bursts sized so the long-run rate is
    /// still `rate_per_sec`. Stresses batch admission and the lag
    /// tracker in a way Poisson never does.
    Bursty {
        /// Long-run mean flow arrivals per second.
        rate_per_sec: f64,
        /// Flows per burst (clamped to ≥ 1).
        burst: usize,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate, flows per second.
    pub fn rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Bursty { rate_per_sec, .. } => rate_per_sec,
        }
    }

    /// Short process name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// `n` arrival instants in nanoseconds from time zero,
    /// nondecreasing, fully determined by `seed`.
    pub fn arrivals(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                let mean_ns = 1e9 / rate_per_sec.max(f64::MIN_POSITIVE);
                for _ in 0..n {
                    t += -rng.next_unit().ln() * mean_ns;
                    out.push(t as u64);
                }
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                burst,
            } => {
                let burst = burst.max(1);
                let mean_gap_ns = burst as f64 * 1e9 / rate_per_sec.max(f64::MIN_POSITIVE);
                while out.len() < n {
                    t += -rng.next_unit().ln() * mean_gap_ns;
                    for _ in 0..burst.min(n - out.len()) {
                        out.push(t as u64);
                    }
                }
            }
        }
        out
    }
}

/// A schedule token: `(global flow index, step within the flow)`.
/// Global indices `< resident_flows` are residents; the rest are mice.
pub type Token = (u32, u32);

/// Everything that shapes one open-loop run. All fields are plain data
/// so profiles ([`full`](Self::full), [`quick`](Self::quick)) are just
/// constructors and tests can shrink freely.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Elephants: flows opened and left established for the whole run.
    pub resident_flows: usize,
    /// Data rounds per resident flow.
    pub resident_rounds: usize,
    /// Arrival process for residents.
    pub resident_arrival: ArrivalProcess,
    /// Mice: full-lifecycle (SYN…FIN) flows churning on top.
    pub mice_flows: usize,
    /// Data rounds per mouse.
    pub mice_rounds: usize,
    /// Arrival process for mice.
    pub mice_arrival: ArrivalProcess,
    /// Payload bytes per data segment.
    pub payload: usize,
    /// Intended spacing between consecutive steps of one flow.
    pub intra_flow_gap_ns: u64,
    /// Master seed: schedule, arrival draws and payload bytes.
    pub seed: u64,
    /// Flow-table shards.
    pub shards: usize,
    /// Flow-table capacity — the occupancy gate's ceiling.
    pub capacity: usize,
    /// Max segments handed to `process_batch` per injector pull.
    pub batch: usize,
    /// Executor threads (1 = sequential datapath).
    pub threads: usize,
    /// Sliding-window width for windowed quantiles.
    pub window_ns: u64,
    /// Ring depth of the sliding window.
    pub windows: usize,
    /// Sample shard occupancy every this many batches.
    pub sample_every: usize,
    /// Drive the bridge GC tick every this many batches.
    pub gc_every: usize,
    /// Attach the replica health observatory (PR 8): the exact
    /// replication-lag ledger rides the datapath and the report gains
    /// a [`LagExactness`] cross-check against the queue-derived
    /// oracle. Costs one branch per queue mutation when false.
    pub attach_health: bool,
    /// Attach the failover span tracer (PR 10): an armed ring plus the
    /// 1-in-64 hot-path batch sampler ride the datapath, and every
    /// injected segment's corrected-e2e recording carries the sampled
    /// batch's span context so tail-bucket samples capture exemplars.
    /// Costs one relaxed load per batch when false.
    pub attach_trace: bool,
}

impl OpenLoopConfig {
    /// The headline profile: 2²⁰ resident flows plus 128 k mice,
    /// ~200 k offered segments/s. Takes tens of seconds of wall clock.
    pub fn full() -> Self {
        OpenLoopConfig {
            resident_flows: 1 << 20,
            resident_rounds: 1,
            resident_arrival: ArrivalProcess::Poisson {
                rate_per_sec: 30_000.0,
            },
            mice_flows: 1 << 17,
            mice_rounds: 1,
            mice_arrival: ArrivalProcess::Bursty {
                rate_per_sec: 3_500.0,
                burst: 64,
            },
            payload: 64,
            intra_flow_gap_ns: 20_000,
            seed: 0xF6,
            shards: 64,
            capacity: 1 << 21,
            batch: 64,
            threads: 1,
            window_ns: 1_000_000_000,
            windows: 8,
            sample_every: 128,
            gc_every: 1_024,
            attach_health: false,
            attach_trace: false,
        }
    }

    /// CI profile: 100 k residents plus 20 k mice at a rate a shared
    /// runner sustains; finishes in single-digit seconds.
    pub fn quick() -> Self {
        OpenLoopConfig {
            resident_flows: 100_000,
            resident_rounds: 1,
            resident_arrival: ArrivalProcess::Poisson {
                rate_per_sec: 20_000.0,
            },
            mice_flows: 20_000,
            mice_rounds: 1,
            mice_arrival: ArrivalProcess::Bursty {
                rate_per_sec: 4_000.0,
                burst: 32,
            },
            payload: 64,
            intra_flow_gap_ns: 20_000,
            seed: 0xF6,
            shards: 16,
            capacity: 1 << 18,
            batch: 64,
            threads: 1,
            window_ns: 500_000_000,
            windows: 8,
            sample_every: 64,
            gc_every: 512,
            attach_health: false,
            attach_trace: false,
        }
    }

    /// The two `manyflow` configs backing the token space: residents
    /// at offset 0 (held open), mice stacked after them (full
    /// lifecycle). Disjoint offsets keep the 4-tuples disjoint.
    pub fn flow_configs(&self) -> (ManyFlowConfig, ManyFlowConfig) {
        let residents = ManyFlowConfig {
            flows: self.resident_flows,
            offset: 0,
            rounds: self.resident_rounds,
            payload: self.payload,
            close: false,
            seed: self.seed,
        };
        let mice = ManyFlowConfig {
            flows: self.mice_flows,
            offset: self.resident_flows,
            rounds: self.mice_rounds,
            payload: self.payload,
            close: true,
            seed: self.seed,
        };
        (residents, mice)
    }
}

/// Builds the full token schedule: one `(intended_ns, token)` entry
/// per segment, flow arrivals from the configured processes, steps of
/// one flow spaced `intra_flow_gap_ns` apart. The injector sorts, so
/// interleaving order here is irrelevant; per-flow step order is
/// preserved by the strictly increasing intended times.
pub fn build_schedule(cfg: &OpenLoopConfig) -> Vec<(u64, Token)> {
    let net = ManyFlowNet::default();
    let (ecfg, mcfg) = cfg.flow_configs();
    let elen = if cfg.resident_flows > 0 {
        FlowScript::new(&ecfg, net, 0).len()
    } else {
        0
    };
    let mlen = if cfg.mice_flows > 0 {
        FlowScript::new(&mcfg, net, 0).len()
    } else {
        0
    };
    let mut schedule = Vec::with_capacity(cfg.resident_flows * elen + cfg.mice_flows * mlen);
    let residents = cfg.resident_arrival.arrivals(cfg.resident_flows, cfg.seed);
    for (f, t0) in residents.into_iter().enumerate() {
        for k in 0..elen {
            schedule.push((t0 + k as u64 * cfg.intra_flow_gap_ns, (f as u32, k as u32)));
        }
    }
    let mice = cfg
        .mice_arrival
        .arrivals(cfg.mice_flows, cfg.seed ^ MICE_SEED_MIX);
    for (f, t0) in mice.into_iter().enumerate() {
        let flow = (cfg.resident_flows + f) as u32;
        for k in 0..mlen {
            schedule.push((t0 + k as u64 * cfg.intra_flow_gap_ns, (flow, k as u32)));
        }
    }
    schedule
}

/// What one open-loop run produced: the under-load recorder (all
/// histograms, lag, occupancy) plus the run-level scalars the gate bin
/// reports.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Coordinated-omission-corrected recordings for the whole run.
    pub recorder: UnderLoadRecorder,
    /// Segments actually injected (== schedule length on completion).
    pub injected: u64,
    /// Schedule length.
    pub scheduled: usize,
    /// Wall-clock nanoseconds from first poll to last batch.
    pub elapsed_ns: u64,
    /// Injected segments per wall-clock second.
    pub seg_per_sec: f64,
    /// Segments the bridge emitted (wire + TCP lanes).
    pub output_segments: u64,
    /// Live (non-tombstone) connections at end of run — the sustained
    /// concurrency floor, since residents never close.
    pub live_flows: usize,
    /// Aggregated flow-table counters at end of run.
    pub table: ShardStats,
    /// Recorder-clock timestamp of the end of the run (pass to
    /// `recorder.to_json` / windowed quantile queries).
    pub end_ns: u64,
    /// Lag-ledger exactness cross-check, present when
    /// [`OpenLoopConfig::attach_health`] was set.
    pub lag: Option<LagExactness>,
    /// Span-sampler accounting, present when
    /// [`OpenLoopConfig::attach_trace`] was set.
    pub trace: Option<TraceStats>,
}

/// End-of-run accounting of the attached span layer: how often the
/// 1-in-N batch sampler fired and what the ring retained/evicted.
#[derive(Debug, Clone, Copy)]
pub struct TraceStats {
    /// Batches the sampler actually laid spans for.
    pub sampled_batches: u64,
    /// Batches the sampler saw (sampled or not).
    pub total_batches: u64,
    /// Span records retained in the ring at end of run.
    pub spans_retained: usize,
    /// Records evicted by the ring's drop-oldest policy.
    pub spans_dropped: u64,
}

/// End-of-run comparison between the incrementally maintained
/// replication-lag ledger and an oracle that re-derives the Δseq
/// backlog by walking every resident connection's primary output
/// queue. The ledger is exact, so the pairs must be equal.
#[derive(Debug, Clone, Copy)]
pub struct LagExactness {
    /// Ledger's unmatched bytes at end of run.
    pub ledger_bytes: u64,
    /// Ledger's unmatched segments at end of run.
    pub ledger_segments: u64,
    /// Oracle: Σ `pq_bytes` over all live connections.
    pub oracle_bytes: u64,
    /// Oracle: Σ `ceil(pq_bytes / mss)` over all live connections.
    pub oracle_segments: u64,
    /// Matched-release events the ledger sampled into its histograms.
    pub releases: u64,
    /// High-water mark of unmatched bytes over the run.
    pub peak_bytes: u64,
}

impl LagExactness {
    /// Whether ledger and oracle agree exactly on both axes.
    pub fn exact(&self) -> bool {
        self.ledger_bytes == self.oracle_bytes && self.ledger_segments == self.oracle_segments
    }
}

/// Re-derives the Δseq backlog from the bridge's live connection rows
/// and pairs it with the ledger's incrementally maintained totals.
pub fn lag_exactness(bridge: &PrimaryBridge, obs: &HealthObservatory) -> LagExactness {
    let mut oracle_bytes = 0u64;
    let mut oracle_segments = 0u64;
    for row in bridge.connection_rows() {
        let bytes = row.pq_bytes as u64;
        oracle_bytes += bytes;
        oracle_segments += bytes.div_ceil(u64::from(row.mss.max(1)));
    }
    LagExactness {
        ledger_bytes: obs.lag.unmatched_bytes(),
        ledger_segments: obs.lag.unmatched_segments(),
        oracle_bytes,
        oracle_segments,
        releases: obs.lag.releases(),
        peak_bytes: obs.lag.peak_bytes(),
    }
}

/// The bridge surface the open-loop injector drives. Implemented for
/// the pair bridge (PR 6) and the chain middle link (PR 9) so one
/// injection loop measures both shapes under identical schedules.
pub trait OpenLoopBridge {
    /// Processes one injected batch (sharded fan-out inside).
    fn drive_batch(
        &mut self,
        batch: Vec<Step>,
        now_nanos: u64,
        exec: &ShardExecutor,
    ) -> Vec<FilterOutput>;
    /// The GC / housekeeping tick.
    fn tick(&mut self, now_nanos: u64);
    /// The §3 merge machinery — observatories, flow table, connection
    /// rows all live here regardless of the outer shape.
    fn merge(&self) -> &PrimaryBridge;
}

impl OpenLoopBridge for PrimaryBridge {
    fn drive_batch(
        &mut self,
        batch: Vec<Step>,
        now_nanos: u64,
        exec: &ShardExecutor,
    ) -> Vec<FilterOutput> {
        self.process_batch(batch, now_nanos, exec)
    }

    fn tick(&mut self, now_nanos: u64) {
        self.on_tick(now_nanos);
    }

    fn merge(&self) -> &PrimaryBridge {
        self
    }
}

impl OpenLoopBridge for ChainBridge {
    fn drive_batch(
        &mut self,
        batch: Vec<Step>,
        now_nanos: u64,
        exec: &ShardExecutor,
    ) -> Vec<FilterOutput> {
        self.process_batch(batch, now_nanos, exec)
    }

    fn tick(&mut self, now_nanos: u64) {
        SegmentFilter::on_tick(self, now_nanos);
    }

    fn merge(&self) -> &PrimaryBridge {
        self.inner()
    }
}

/// Samples per-shard occupancy/evictions into the recorder.
fn sample_occupancy(bridge: &PrimaryBridge, rec: &mut UnderLoadRecorder) {
    let shards: Vec<ShardSample> = bridge
        .flow_shard_stats()
        .iter()
        .map(|s| ShardSample {
            occupancy: s.occupancy,
            evicted: s.evicted,
        })
        .collect();
    rec.sample_shards(&shards);
}

/// Runs one open-loop injection to schedule exhaustion and returns the
/// report. The loop never waits on the bridge: due segments are pulled
/// in `cfg.batch`-sized bites, and when the datapath is slower than
/// the schedule the surplus shows up as backlog and lag — which is the
/// entire point.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopReport {
    let net = ManyFlowNet::default();
    let mut bridge =
        PrimaryBridge::new(net.a_p, net.a_s, FailoverConfig::from_ports([SERVER_PORT]));
    bridge.set_flow_config(FlowTableConfig::new(cfg.shards, cfg.capacity));
    bridge.set_observers(open_loop_observers(cfg));
    run_open_loop_with(cfg, &mut bridge)
}

/// The observers an open-loop run attaches: the latency observatory
/// always (the stage windows read it), health and the span sampler on
/// request. Audit and journal telemetry stay off so the measurement
/// does not serialise the datapath it is measuring.
fn open_loop_observers(cfg: &OpenLoopConfig) -> Observers {
    let hub = Telemetry::new();
    if cfg.attach_trace {
        hub.trace.attach(DEFAULT_SPAN_CAPACITY);
    }
    let flags = ObserverFlags {
        audit: false,
        latency: true,
        health: cfg.attach_health,
        trace: cfg.attach_trace,
    };
    Observers::new(flags, "loadgen", &hub)
}

/// The upstream neighbour a scripted chain middle diverts toward. Any
/// address distinct from the testbed's own works: the injector never
/// routes the diverted output, it only pays for producing it.
const CHAIN_UPSTREAM: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

/// Runs the same open-loop injection against a **chain middle link**
/// (PR 9): the merge machinery is identical to the pair bridge, but
/// every client-facing release additionally pays the divert-upstream
/// rewrite (ORIG_DEST option splice + incremental checksum) on its way
/// up the chain. The attached-vs-detached ratio of two of these runs
/// is the chain-link observatory overhead gate.
pub fn run_open_loop_chain(cfg: &OpenLoopConfig) -> OpenLoopReport {
    let net = ManyFlowNet::default();
    // own == vip: the scripted segments address the VIP directly, and
    // the middle's position in the chain is what `upstream` encodes.
    let mut bridge = ChainBridge::new(
        net.a_p,
        net.a_p,
        Some(CHAIN_UPSTREAM),
        net.a_s,
        FailoverConfig::from_ports([SERVER_PORT]),
    );
    bridge.set_flow_config(FlowTableConfig::new(cfg.shards, cfg.capacity));
    bridge.set_observers(open_loop_observers(cfg));
    run_open_loop_with(cfg, &mut bridge)
}

/// The injection loop proper, generic over the bridge shape.
pub fn run_open_loop_with<B: OpenLoopBridge>(
    cfg: &OpenLoopConfig,
    bridge: &mut B,
) -> OpenLoopReport {
    let net = ManyFlowNet::default();
    let (ecfg, mcfg) = cfg.flow_configs();
    let schedule = build_schedule(cfg);
    let scheduled = schedule.len();
    let mut inj = OpenLoopInjector::new(schedule, cfg.batch);
    let exec = ShardExecutor::new(cfg.threads);
    let mut rec = UnderLoadRecorder::new(cfg.window_ns, cfg.windows, cfg.capacity as u64);

    let mut stages_before = *bridge
        .merge()
        .observers()
        .latency()
        .expect("observatory attached")
        .stages();
    let mut sim_now = 0u64;
    let mut injected = 0u64;
    let mut output_segments = 0u64;
    let mut batches = 0usize;
    let mut due: Vec<(u64, Token)> = Vec::with_capacity(cfg.batch.max(1));
    let t0 = HostClock::now_ns();
    while inj.remaining() > 0 {
        let now = HostClock::now_ns().saturating_sub(t0);
        due.clear();
        due.extend_from_slice(inj.take_due(now));
        if due.is_empty() {
            // Ahead of schedule: doze until the next intended instant
            // (capped so backlog reporting stays fresh), never longer.
            if let Some(next) = inj.next_intended() {
                let wait = next.saturating_sub(now);
                if wait > 1_000 {
                    std::thread::sleep(std::time::Duration::from_nanos(wait.min(100_000)));
                }
            }
            continue;
        }
        let mut batch: Vec<Step> = Vec::with_capacity(due.len());
        let mut batch_lag = 0u64;
        for &(intended, (flow, k)) in due.iter() {
            batch_lag = batch_lag.max(now.saturating_sub(intended));
            let flow = flow as usize;
            let script = if flow < cfg.resident_flows {
                FlowScript::new(&ecfg, net, flow)
            } else {
                FlowScript::new(&mcfg, net, flow - cfg.resident_flows)
            };
            batch.push(script.step_at(k as usize));
        }
        let outs = bridge.drive_batch(batch, sim_now, &exec);
        sim_now += SIM_NS_PER_BATCH;
        for o in &outs {
            output_segments += (o.to_wire.len() + o.to_tcp.len()) as u64;
        }
        let done = HostClock::now_ns().saturating_sub(t0);
        // The sampled batch's span is the exemplar link: a tail-bucket
        // corrected sample recorded here points straight at the hot
        // path trace that was live when the segment went through.
        let ctx = bridge
            .merge()
            .observers()
            .trace()
            .and_then(SpanSampler::last_ctx);
        for &(intended, _) in due.iter() {
            rec.record_segment_ctx(intended, now, done, ctx);
        }
        injected += due.len() as u64;
        let stages_after = *bridge
            .merge()
            .observers()
            .latency()
            .expect("observatory attached")
            .stages();
        rec.absorb_stage_window(&stages_before, &stages_after, batch_lag);
        stages_before = stages_after;
        rec.set_backlog(inj.backlog(done));
        batches += 1;
        if batches.is_multiple_of(cfg.sample_every.max(1)) {
            sample_occupancy(bridge.merge(), &mut rec);
        }
        if batches.is_multiple_of(cfg.gc_every.max(1)) {
            // The GC tick runs inline on the injection thread, so its
            // entire duration is injection stall: time it on the host
            // clock and gate it (the PR 6 stall was exactly here —
            // an O(capacity) slab sweep at 2²⁰ residents).
            let g0 = HostClock::now_ns();
            bridge.tick(sim_now);
            rec.record_gc_pause(HostClock::now_ns().saturating_sub(g0));
        }
    }
    let end_ns = HostClock::now_ns().saturating_sub(t0);
    sample_occupancy(bridge.merge(), &mut rec);
    rec.set_backlog(0);
    let live_flows = bridge.merge().conn_count();
    let table = bridge.merge().flow_stats();
    let lag = bridge
        .merge()
        .observers()
        .health()
        .map(|obs| lag_exactness(bridge.merge(), obs));
    let trace = bridge.merge().observers().trace().map(|s| TraceStats {
        sampled_batches: s.sampled(),
        total_batches: s.batches(),
        spans_retained: s.tracer().len(),
        spans_dropped: s.tracer().dropped(),
    });
    let elapsed_s = (end_ns.max(1)) as f64 / 1e9;
    OpenLoopReport {
        recorder: rec,
        injected,
        scheduled,
        elapsed_ns: end_ns,
        seg_per_sec: injected as f64 / elapsed_s,
        output_segments,
        live_flows,
        table,
        end_ns,
        lag,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpfo_telemetry::Stage;

    #[test]
    fn poisson_mean_tracks_rate_and_is_deterministic() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 1_000_000.0,
        };
        let a = p.arrivals(10_000, 42);
        let b = p.arrivals(10_000, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        // Mean inter-arrival should be within 10% of 1000 ns at n=10k.
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((mean - 1_000.0).abs() < 100.0, "mean {mean} ns");
        assert_ne!(p.arrivals(100, 1), p.arrivals(100, 2), "seed matters");
    }

    #[test]
    fn bursty_arrivals_come_in_shared_instants() {
        let p = ArrivalProcess::Bursty {
            rate_per_sec: 100_000.0,
            burst: 8,
        };
        let a = p.arrivals(64, 7);
        for chunk in a.chunks(8) {
            assert!(
                chunk.iter().all(|&t| t == chunk[0]),
                "whole burst at one instant"
            );
        }
        assert!(a[0] < a[8], "gaps between bursts");
        // Long-run rate within a loose factor of nominal at small n.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        let rate = a.len() as f64 / span_s.max(1e-9);
        assert!(rate > 20_000.0 && rate < 500_000.0, "rate {rate}");
    }

    fn tiny() -> OpenLoopConfig {
        OpenLoopConfig {
            resident_flows: 192,
            resident_rounds: 1,
            resident_arrival: ArrivalProcess::Poisson {
                rate_per_sec: 2_000_000.0,
            },
            mice_flows: 32,
            mice_rounds: 1,
            mice_arrival: ArrivalProcess::Bursty {
                rate_per_sec: 500_000.0,
                burst: 8,
            },
            payload: 32,
            intra_flow_gap_ns: 200,
            seed: 7,
            shards: 4,
            capacity: 1_024,
            batch: 32,
            threads: 1,
            window_ns: 1_000_000,
            windows: 4,
            sample_every: 8,
            gc_every: 16,
            attach_health: false,
            attach_trace: false,
        }
    }

    #[test]
    fn schedule_covers_every_step_in_per_flow_order() {
        let cfg = tiny();
        let sched = build_schedule(&cfg);
        // 6 steps per open flow (3 handshake + 3 per round), 10 per
        // closing mouse (plus 4 teardown).
        assert_eq!(sched.len(), 192 * 6 + 32 * 10);
        let mut last_step = vec![None::<(u64, u32)>; 192 + 32];
        let mut sorted = sched.clone();
        sorted.sort_by_key(|&(t, _)| t);
        for (t, (flow, k)) in sorted {
            if let Some((pt, pk)) = last_step[flow as usize] {
                assert!(k == pk + 1 && t >= pt, "flow {flow} steps in order");
            } else {
                assert_eq!(k, 0, "flow {flow} starts at its SYN");
            }
            last_step[flow as usize] = Some((t, k));
        }
        for (flow, s) in last_step.iter().enumerate() {
            let want = if flow < 192 { 5 } else { 9 };
            assert_eq!(s.unwrap().1, want, "flow {flow} completed");
        }
    }

    #[test]
    fn tiny_open_loop_run_reports_everything() {
        let cfg = tiny();
        let r = run_open_loop(&cfg);
        assert_eq!(r.injected as usize, r.scheduled);
        assert_eq!(r.recorder.injected(), r.injected);
        assert_eq!(r.recorder.corrected().count(), r.injected);
        assert_eq!(r.recorder.naive().count(), r.injected);
        // Residents stay open: the live count is the concurrency floor.
        assert!(r.live_flows >= 192, "live {}", r.live_flows);
        assert!(r.recorder.occupancy_peak() >= 192);
        assert_eq!(r.recorder.over_capacity_samples(), 0);
        assert!(r.output_segments > 0);
        // The hot path ran, so stage-corrected histograms are fed.
        assert!(r.recorder.stage_corrected(Stage::FlowLookup).count() > 0);
        assert!(r.recorder.stage_corrected(Stage::IngressParse).count() > 0);
        // Corrected can never sit below naive at equal counts: it adds
        // lag on the same samples.
        assert!(r.recorder.corrected().max() >= r.recorder.naive().max());
        // GC ticks fired and each one's pause was recorded.
        assert!(r.recorder.gc_pause().count() > 0, "gc ticks recorded");
    }

    #[test]
    fn open_loop_run_with_trace_samples_batches_and_captures_exemplars() {
        let mut cfg = tiny();
        // Enough segments that the 1-in-64 batch sampler must fire.
        cfg.resident_flows = 2_048;
        cfg.capacity = 8_192;
        cfg.attach_trace = true;
        let r = run_open_loop(&cfg);
        let t = r.trace.expect("trace stats present when attached");
        assert!(t.total_batches >= 64, "batches {}", t.total_batches);
        assert!(t.sampled_batches > 0, "sampler fired");
        assert!(t.spans_retained > 0, "ring retained hot-path spans");
        // Tail-bucket corrected samples captured exemplars, and every
        // captured exemplar links a real span.
        let ex = r.recorder.corrected_exemplars();
        assert!(ex.captured() > 0, "tail samples captured exemplars");
        for e in ex.iter() {
            assert!(!e.ctx.span.is_none(), "exemplar carries a span id");
        }
        // Detached control: no stats, no exemplars.
        let mut off = tiny();
        off.attach_trace = false;
        let r = run_open_loop(&off);
        assert!(r.trace.is_none());
        assert_eq!(r.recorder.corrected_exemplars().captured(), 0);
    }
}
