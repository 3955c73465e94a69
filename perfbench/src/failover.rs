//! The chain-failover runner: K head kills on a depth-2 chain during a
//! live download, one testbed per trial, with the kill instants spread
//! evenly over a window longer than one heartbeat interval plus one
//! RTO. Every figure here is simulated time read from the testbed.

use std::time::Instant;

use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::loadgen::SplitMix64;
use tcpfo_core::testbed::addrs;
use tcpfo_core::{ChainConfig, ChainController, ChainTestbed};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::MttrBreakdown;

use crate::datapath::BenchSpans;
use crate::stats::ns_since;

/// Sim time after the kill a trial may take to finish the download.
const TRIAL_LIMIT: SimDuration = SimDuration::from_secs(30);

/// Sim-time step between completion checks after the kill.
const POLL: SimDuration = SimDuration::from_millis(20);

/// Gap in sorted MTTRs that separates two modes.
const MODE_GAP_NS: u64 = 15_000_000;

/// One failover experiment.
#[derive(Debug, Clone)]
pub struct FailoverSpec {
    /// Chain depth (the paper's P/S pair is 2).
    pub replicas: usize,
    /// Bytes the client downloads.
    pub download: u64,
    /// Head kills, one testbed each.
    pub kills: usize,
    /// Sim time of the first possible kill, once the stream runs.
    pub window_start: SimDuration,
}

impl FailoverSpec {
    /// Depth-2 chain, 4 MB download, 100 kills (p90 keeps 10 beyond).
    pub fn depth2() -> Self {
        FailoverSpec {
            replicas: 2,
            download: 4 << 20,
            kills: 100,
            window_start: SimDuration::from_millis(150),
        }
    }

    /// Width of the kill window: one heartbeat interval plus one
    /// minimum RTO, so every phase of both timers is sampled.
    pub fn window(&self) -> SimDuration {
        let base = ChainConfig::default();
        SimDuration::from_nanos(base.detector.interval.as_nanos() + base.tcp.rto_min.as_nanos())
    }

    /// Kill instants and sim seeds for workload seed `seed`: evenly
    /// spaced over [`FailoverSpec::window`] with a seeded offset.
    pub fn plan(&self, seed: u64) -> Vec<(SimDuration, u64)> {
        let mut rng = SplitMix64::new(seed ^ 0xFA11_0FE5);
        let offset = rng.next_unit();
        let step = self.window().as_nanos() as f64 / self.kills as f64;
        (0..self.kills)
            .map(|i| {
                let at = self.window_start.as_nanos() + ((i as f64 + offset) * step) as u64;
                (SimDuration::from_nanos(at), rng.next_u64())
            })
            .collect()
    }
}

/// What one kill produced.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Kill instant, sim ns.
    pub kill_ns: u64,
    /// §5 decomposition from the promoted replica's timeline.
    pub mttr: Option<MttrBreakdown>,
    /// Kill → `ChainController::promoted_at`.
    pub promotion_ns: Option<u64>,
    /// Request sent → last byte received, sim ns.
    pub transfer_ns: Option<u64>,
    /// Whole download arrived with no pattern mismatch.
    pub byte_exact: bool,
    /// Client retransmission-timer expiries.
    pub client_rto_expiries: u64,
    /// Segments the surviving replica retransmitted.
    pub server_retransmits: u64,
    /// Promotions vetoed on self-health.
    pub vetoes: u64,
    /// Health alerts journaled before the kill.
    pub alerts_before_kill: u64,
    /// Invariant-auditor violations (traced trials only).
    pub audit_violations: u64,
    /// Host ns building the testbed.
    pub build_ns: u64,
}

impl Trial {
    /// Promoted and delivered the stream byte-exact.
    pub fn ok(&self) -> bool {
        self.byte_exact && self.promotion_ns.is_some() && self.mttr.is_some()
    }
}

/// Runs one kill at `kill_at` on a fresh testbed seeded `sim_seed`.
/// `traced` attaches the auditor, the health observatory and the span
/// tracer through `ChainConfig`.
pub fn run_trial(
    spec: &FailoverSpec,
    kill_at: SimDuration,
    sim_seed: u64,
    spans: Option<&BenchSpans<'_>>,
) -> Trial {
    let traced = spans.is_some();
    let around = |name, f: &mut dyn FnMut()| match spans {
        Some(s) => s.around(name, f),
        None => f(),
    };
    let t_build = Instant::now();
    let mut tb = ChainTestbed::new(ChainConfig {
        replicas: spec.replicas,
        seed: sim_seed,
        audit: Some(traced),
        latency: Some(false),
        health: Some(traced),
        span_trace: Some(traced),
        ..ChainConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    let total = spec.download;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    let build_ns = ns_since(t_build);

    around("run_to_kill", &mut || tb.run_for(kill_at));
    let kill_ns = tb.sim.now().as_nanos();
    around("kill_replica", &mut || tb.kill_replica(0));
    let client = tb.client;
    let done = |tb: &mut ChainTestbed| {
        tb.sim
            .with::<Host, _>(client, |h, _| h.app_mut::<RequestReplyClient>(0).is_done())
    };
    around("run_to_done", &mut || {
        let deadline = kill_ns + TRIAL_LIMIT.as_nanos();
        while !done(&mut tb) && tb.sim.now().as_nanos() < deadline {
            tb.run_for(POLL);
        }
    });

    let survivor = tb.replicas[1];
    let (promoted_at, vetoes) = tb.sim.with::<Host, _>(survivor, |h, _| {
        let c = h.controller_mut::<ChainController>();
        (c.promoted_at, c.promotions_vetoed)
    });
    let server_retransmits = tb
        .sim
        .with::<Host, _>(survivor, |h, _| h.stack().total_retransmits());
    let (transfer_ns, byte_exact, client_rto_expiries) = tb.sim.with::<Host, _>(client, |h, _| {
        let rto = h.stack().total_rto_expiries();
        let c = h.app_mut::<RequestReplyClient>(0);
        let transfer = match (c.t_request, c.t_done) {
            (Some(a), Some(b)) => Some(b.as_nanos() - a.as_nanos()),
            _ => None,
        };
        (transfer, c.is_done() && c.mismatches == 0, rto)
    });
    let alerts_before_kill = tb
        .hubs
        .iter()
        .flat_map(|hub| hub.journal.events())
        .filter(|e| e.kind == "chain.health_alert" && e.at_ns < kill_ns)
        .count() as u64;
    Trial {
        kill_ns,
        mttr: tb.hubs[1].timeline.mttr(),
        promotion_ns: promoted_at.map(|t| t.as_nanos().saturating_sub(kill_ns)),
        transfer_ns,
        byte_exact,
        client_rto_expiries,
        server_retransmits,
        vetoes,
        alerts_before_kill,
        audit_violations: if traced { tb.audit_violations() } else { 0 },
        build_ns,
    }
}

/// Runs every kill of `spec`'s plan for `seed`.
pub fn run(spec: &FailoverSpec, seed: u64, spans: Option<&BenchSpans<'_>>) -> Vec<Trial> {
    spec.plan(seed)
        .into_iter()
        .map(|(at, sim_seed)| run_trial(spec, at, sim_seed, spans))
        .collect()
}

/// Groups ascending MTTRs into modes split at gaps wider than 15 ms:
/// `(mode mean ms, kills)` per mode.
pub fn modes(sorted_ns: &[u64]) -> Vec<(f64, usize)> {
    let mut out: Vec<(f64, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=sorted_ns.len() {
        if i == sorted_ns.len() || sorted_ns[i] - sorted_ns[i - 1] > MODE_GAP_NS {
            let group = &sorted_ns[start..i];
            if !group.is_empty() {
                let mean = group.iter().sum::<u64>() as f64 / group.len() as f64 / 1e6;
                out.push((mean, group.len()));
            }
            start = i;
        }
    }
    out
}
