//! The paper's testbed (Figure 1) as a ready-made simulation, with the
//! §1 extension's daisy-chained backups:
//!
//! ```text
//!   client C ──(link)── router ──┐
//!                                hub (shared 100 Mb/s segment)
//!               replica 0 = P    ┤
//!               replica 1 = S    ┤   (promiscuous)
//!               replica 2 … tail ┤   (promiscuous, `replicas ≥ 3`)
//!               back-end T (opt) ┘
//! ```
//!
//! One builder produces every configuration: the **standard TCP**
//! baseline (`replicas: 1`, no bridges) used by every comparison in
//! §9, the paper's **failover** pair (`replicas: 2`, the default), a
//! daisy chain (`replicas ≥ 3`), the switched-segment ablation, and the
//! WAN variant for the FTP experiment (Fig. 6).
//!
//! The replicated pair is a depth-2 chain. Every replica is built by
//! one [`ReplicaBuilder`]: the head runs a [`ChainBridge`] (its own
//! address is the service address, so the chain adaptation is a
//! transparent wrapper around the §3 merge), middle links run a
//! [`ChainBridge`] too, the tail runs a [`SecondaryBridge`], and all run
//! a [`ChainController`] over the whole chain. Each replica reports to
//! its own telemetry hub (`hubs[i]`), so its §5 timeline and journal
//! stay separate; the simulator, the client and the back-end report to
//! `hubs[0]`.
//!
//! The reprovisioning primitives ([`Testbed::spawn_standby`],
//! [`Testbed::snapshot_handoffs`], [`Testbed::adopt_on_standby`],
//! [`Testbed::convert_tail_to_middle`], [`Testbed::run_until_restored`])
//! implement the [`crate::reprovision`] protocol; the application-level
//! half (resuming the deterministic stream) lives with the apps
//! (`tcpfo_apps::chain_ops`), which composes these primitives.

use crate::chain::{ChainBridge, ChainController};
use crate::detector::DetectorConfig;
use crate::flow::FlowTableConfig;
use crate::primary::PrimaryBridge;
use crate::replica::ReplicaBuilder;
use crate::reprovision::{FlowHandoff, ReprovisionPhase, ReprovisionTracker};
use crate::secondary::SecondaryBridge;
use tcpfo_net::hub::Hub;
use tcpfo_net::link::LinkParams;
use tcpfo_net::router::{Interface, Router};
use tcpfo_net::sim::DEFAULT_TRACE_CAPACITY;
use tcpfo_net::sim::{NodeId, Simulator};
use tcpfo_net::switch::Switch;
use tcpfo_net::time::{SimDuration, SimTime};
use tcpfo_net::trace::{to_pcapng, TraceKind};
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::host::{spawn_host, CpuModel, Host, HostConfig, TOKEN_TICK};
use tcpfo_tcp::types::{SocketAddr, SocketId};
use tcpfo_telemetry::audit::env_capacity;
use tcpfo_telemetry::span::env_trace_capacity;
use tcpfo_telemetry::{
    FailoverPhase, HealthMonitor, MetricsSnapshot, ObserverFlags, Observers, Telemetry,
};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::mac::MacAddr;

/// Well-known testbed addresses.
pub mod addrs {
    use tcpfo_wire::ipv4::Ipv4Addr;

    /// The unreplicated client C.
    pub const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);
    /// The primary server P.
    pub const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The secondary server S.
    pub const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    /// The unreplicated back-end T (§7.2), on the server segment.
    pub const A_T: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
    /// Router interface on the client network.
    pub const GW_CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    /// Router interface on the server segment.
    pub const GW_SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
}

/// MAC addresses, fixed so ARP caches can be primed. Server-segment
/// host `10.0.0.x` has MAC index `x`.
pub mod macs {
    use tcpfo_wire::mac::MacAddr;

    /// Client NIC.
    pub const CLIENT: MacAddr = MacAddr::from_index(1);
    /// Primary NIC.
    pub const PRIMARY: MacAddr = MacAddr::from_index(2);
    /// Secondary NIC.
    pub const SECONDARY: MacAddr = MacAddr::from_index(3);
    /// Back-end NIC.
    pub const BACKEND: MacAddr = MacAddr::from_index(4);
    /// Router, client side.
    pub const ROUTER_CLIENT: MacAddr = MacAddr::from_index(100);
    /// Router, server side.
    pub const ROUTER_SERVER: MacAddr = MacAddr::from_index(101);
}

/// Address of server-segment host `i`: P (and the chain head) is 0, S
/// is 1, and further chain members follow; the back-end T shares
/// index 2.
pub(crate) fn server_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 2 + i as u8)
}

/// MAC of the server-segment host at `addr`.
pub(crate) fn server_mac(addr: Ipv4Addr) -> MacAddr {
    MacAddr::from_index(u32::from(addr.octets()[3]))
}

/// Why the back-end T cannot join a chain deeper than the pair.
const BACKEND_COLLISION: &str =
    "with_backend puts T at 10.0.0.4, the address of replica 2: it needs replicas <= 2 and no standby";

/// Host and auditor label of replica `i`: the paper's names for the
/// pair, `replica<i>` beyond it.
fn replica_label(i: usize) -> String {
    match i {
        0 => "primary".to_string(),
        1 => "secondary".to_string(),
        _ => format!("replica{i}"),
    }
}

/// What kind of server segment to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Shared hub — the paper's configuration; promiscuous snooping
    /// works.
    Hub,
    /// Learning switch — the ablation (E8): unicast client traffic is
    /// invisible to the secondary.
    Switch,
}

/// Testbed parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation seed (determinism).
    pub seed: u64,
    /// Number of replicas, head first: 1 is the standard-TCP baseline
    /// (one server, no bridges), 2 the paper's primary/secondary pair,
    /// more a daisy chain (§1). At most 200 (address space).
    pub replicas: usize,
    /// Also attach the unreplicated back-end T to the server segment.
    /// T takes replica 2's address, so it needs `replicas ≤ 2`.
    pub with_backend: bool,
    /// Failover port set (§7 method 2), configured identically on
    /// every replica.
    pub failover_ports: Vec<u16>,
    /// Fault-detector parameters.
    pub detector: DetectorConfig,
    /// Client↔router link ([`LinkParams::fast_ethernet`] for the LAN
    /// experiments, [`LinkParams::wan`] for Fig. 6).
    pub client_link: LinkParams,
    /// Server-segment kind (hub in the paper; switch for the ablation).
    pub segment: SegmentKind,
    /// Server-host CPU cost model (calibrates §9 latencies/rates).
    pub cpu: CpuModel,
    /// Client-host CPU model (the paper's client was a faster 1 GHz
    /// machine).
    pub client_cpu: CpuModel,
    /// Host stack tick.
    pub tick: SimDuration,
    /// Router store-and-forward delay.
    pub router_delay: SimDuration,
    /// Base TCP configuration applied to every host (per-host ISN
    /// seeds are derived from `seed`).
    pub tcp: TcpConfig,
    /// Random loss on the server-segment attachments (for §4 tests).
    pub attachment_loss: f64,
    /// Extra loss on frames *towards the primary* (covers §4's "the
    /// primary server does not receive a client segment" and "the
    /// secondary server's segment is dropped by the primary").
    pub loss_to_primary: f64,
    /// Extra loss towards the secondary (§4: "the secondary server
    /// drops the client segment although the primary receives it").
    pub loss_to_secondary: f64,
    /// Extra loss on frames from the segment towards the router (§4:
    /// "the primary server's segment is lost on its way to the
    /// client").
    pub loss_to_router: f64,
    /// Attach the online invariant auditor to every bridge. `None`
    /// follows the `TCPFO_AUDIT` environment knob; `Some(_)` overrides
    /// it.
    pub audit: Option<bool>,
    /// Attach the per-stage latency observatory to every bridge.
    /// `None` follows the `TCPFO_LATENCY` environment knob; `Some(_)`
    /// overrides it.
    pub latency: Option<bool>,
    /// Attach the replica health observatory (replication-lag ledger)
    /// to every bridge. `None` follows the `TCPFO_HEALTH` environment
    /// knob; `Some(_)` overrides it.
    pub health: Option<bool>,
    /// Arm the failover span tracer (PR10): attach every hub's span
    /// ring and a hot-path batch sampler on every non-tail bridge.
    /// `None` follows the `TCPFO_TRACE` environment knob; `Some(_)`
    /// overrides it. (Distinct from [`TestbedConfig::trace_capacity`],
    /// which sizes the *packet* trace ring.)
    pub span_trace: Option<bool>,
    /// Event-journal ring capacity of every hub. `None` follows
    /// `TCPFO_JOURNAL_CAP` (default
    /// [`tcpfo_telemetry::journal::DEFAULT_CAPACITY`]).
    pub journal_capacity: Option<usize>,
    /// Packet-trace ring capacity. `None` follows `TCPFO_TRACE_CAP`
    /// (default [`DEFAULT_TRACE_CAPACITY`]).
    pub trace_capacity: Option<usize>,
    /// Flow-table shard count for every bridge. `None` follows the
    /// `TCPFO_FLOW_SHARDS` environment knob (default 1).
    pub flow_shards: Option<usize>,
    /// Total flow-table capacity for every bridge. `None` follows the
    /// `TCPFO_FLOW_CAP` environment knob (default 65 536).
    pub flow_cap: Option<usize>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            replicas: 2,
            with_backend: false,
            failover_ports: vec![80],
            detector: DetectorConfig::default(),
            client_link: LinkParams::fast_ethernet(),
            segment: SegmentKind::Hub,
            cpu: CpuModel::server_2003(),
            client_cpu: CpuModel::server_2003().scaled(0.6),
            tick: SimDuration::from_millis(1),
            router_delay: SimDuration::from_micros(15),
            tcp: TcpConfig::default(),
            attachment_loss: 0.0,
            loss_to_primary: 0.0,
            loss_to_secondary: 0.0,
            loss_to_router: 0.0,
            audit: None,
            latency: None,
            health: None,
            span_trace: None,
            journal_capacity: None,
            trace_capacity: None,
            flow_shards: None,
            flow_cap: None,
        }
    }
}

impl TestbedConfig {
    /// The standard-TCP baseline used throughout §9: one server, no
    /// bridges.
    pub fn standard_tcp() -> Self {
        TestbedConfig {
            replicas: 1,
            failover_ports: Vec::new(),
            ..TestbedConfig::default()
        }
    }
}

/// The daisy-chain testbed's earlier name: a [`Testbed`] with
/// `replicas ≥ 3` (or any depth; the pair is depth 2).
pub type ChainTestbed = Testbed;

/// The daisy-chain testbed configuration's earlier name:
/// [`TestbedConfig`], whose `replicas` sets the chain depth.
pub type ChainConfig = TestbedConfig;

/// The flow-table config the testbed's bridges should use, when either
/// knob overrides the environment defaults.
fn flow_config_override(config: &TestbedConfig) -> Option<FlowTableConfig> {
    if config.flow_shards.is_none() && config.flow_cap.is_none() {
        return None;
    }
    let base = FlowTableConfig::from_env();
    Some(FlowTableConfig::new(
        config.flow_shards.unwrap_or(base.shards),
        config.flow_cap.unwrap_or(base.capacity),
    ))
}

/// A fresh telemetry hub for one replica, its span ring armed when the
/// testbed traces, registered with the reprovisioning tracker.
fn new_hub(
    journal_capacity: Option<usize>,
    trace: bool,
    tracker: &mut ReprovisionTracker,
) -> Telemetry {
    let hub = match journal_capacity {
        Some(cap) => Telemetry::with_journal_capacity(cap),
        None => Telemetry::from_env(),
    };
    if trace {
        hub.trace.attach(env_trace_capacity());
    }
    tracker.attach_timeline(hub.redundancy.clone());
    tracker.attach_tracer(hub.trace.clone());
    hub
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator; drive it with `run_for` / `run_until`.
    pub sim: Simulator,
    /// Client host node.
    pub client: NodeId,
    /// Replica hosts, head first: `replicas[0]` is the primary P and
    /// owns the service address at start, `replicas[1]` the secondary
    /// S. Grows when a standby is reprovisioned.
    pub replicas: Vec<NodeId>,
    /// Replica addresses, parallel to `replicas`.
    pub replica_addrs: Vec<Ipv4Addr>,
    /// Per-replica telemetry hubs, parallel to `replicas`. The
    /// simulator, the client and the back-end report to `hubs[0]`.
    pub hubs: Vec<Telemetry>,
    /// Which replicas are down (killed and not revived).
    pub dead: Vec<bool>,
    /// Back-end host node (when configured).
    pub backend: Option<NodeId>,
    /// Router node.
    pub router: NodeId,
    /// Hub or switch node.
    pub segment: NodeId,
    /// The configuration it was built from.
    pub config: TestbedConfig,
    /// Reprovisioning bookkeeping (stamps every hub's redundancy
    /// timeline).
    pub tracker: ReprovisionTracker,
    /// The replica index whose lag ledger proves catch-up (the old
    /// tail converted to a middle link), once a round started.
    catchup_link: Option<usize>,
    /// Builds every replica, standby and revived replica, and T.
    builder: ReplicaBuilder,
}

impl Testbed {
    /// Builds the testbed.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is 0 or above 200 (address space),
    /// or if `config.with_backend` is set with `replicas ≥ 3` (T and
    /// replica 2 would share 10.0.0.4).
    pub fn new(config: TestbedConfig) -> Self {
        let n = config.replicas;
        assert!((1..=200).contains(&n), "replicas must be in 1..=200");
        assert!(!(config.with_backend && n >= 3), "{BACKEND_COLLISION}");
        let builder = ReplicaBuilder {
            seed: config.seed,
            tcp: config.tcp.clone(),
            cpu: config.cpu,
            tick: config.tick,
            failover_ports: config.failover_ports.clone(),
            detector: config.detector,
            observers: ObserverFlags::resolve(
                config.audit,
                config.latency,
                config.health,
                config.span_trace,
            ),
            flow: flow_config_override(&config),
        };
        let mut tracker = ReprovisionTracker::new();
        let hubs: Vec<Telemetry> = (0..n)
            .map(|_| {
                new_hub(
                    config.journal_capacity,
                    builder.observers.trace,
                    &mut tracker,
                )
            })
            .collect();
        let mut sim = Simulator::new(config.seed);
        sim.set_telemetry(hubs[0].clone());
        sim.set_trace_capacity(
            config
                .trace_capacity
                .unwrap_or_else(|| env_capacity("TCPFO_TRACE_CAP", DEFAULT_TRACE_CAPACITY)),
        );
        // The segment grows one port per attachment (router first).
        let segment: NodeId = match config.segment {
            SegmentKind::Hub => sim.add_device(Box::new(Hub::new("segment", 0, 100_000_000))),
            SegmentKind::Switch => sim.add_device(Box::new(Switch::new("segment", 0))),
        };
        let iface = |mac, ip| Interface {
            mac,
            ip,
            prefix_len: 24,
        };
        let router = sim.add_device(Box::new(Router::new(
            "router",
            vec![
                iface(macs::ROUTER_CLIENT, addrs::GW_CLIENT),
                iface(macs::ROUTER_SERVER, addrs::GW_SERVER),
            ],
            config.router_delay,
        )));

        let mut client_cfg = HostConfig::new("client", macs::CLIENT, addrs::A_C)
            .with_gateway(addrs::GW_CLIENT)
            .with_tcp(config.tcp.clone().with_isn_seed(config.seed ^ (1 << 32)));
        client_cfg.cpu = config.client_cpu;
        client_cfg.tick = config.tick;
        let mut client_host = Host::new(client_cfg);
        client_host.set_telemetry(&hubs[0]);
        let client = spawn_host(&mut sim, client_host);
        sim.connect((router, 0), (client, 0), config.client_link);

        let mut tb = Testbed {
            sim,
            client,
            replicas: Vec::with_capacity(n),
            replica_addrs: (0..n).map(server_addr).collect(),
            hubs,
            dead: vec![false; n],
            backend: None,
            router,
            segment,
            config,
            tracker,
            catchup_link: None,
            builder,
        };
        tb.attach(router, 1, tb.config.loss_to_router);
        for i in 0..n {
            tb.spawn_replica(i);
        }
        if tb.config.with_backend {
            let host = tb
                .builder
                .server_host(2, "backend", &tb.replica_addrs, &tb.hubs[0]);
            let node = spawn_host(&mut tb.sim, host);
            tb.attach(node, 0, 0.0);
            tb.backend = Some(node);
        }

        // Prime the edge ARP caches ("we made sure that the MAC
        // addresses of all nodes were present in the ARP caches", §9):
        // the client knows the router, the router knows the client and
        // every server-segment host. Server hosts prime their own
        // caches when built (`ReplicaBuilder::server_host`).
        let servers: Vec<Ipv4Addr> = tb
            .replica_addrs
            .iter()
            .copied()
            .chain(tb.backend.map(|_| addrs::A_T))
            .collect();
        tb.sim.with::<Host, _>(client, |h, _| {
            h.net_mut().prime_arp(addrs::GW_CLIENT, macs::ROUTER_CLIENT);
        });
        tb.sim.with::<Router, _>(router, |r, _| {
            r.prime_arp(addrs::A_C, 0, macs::CLIENT);
            for &a in &servers {
                r.prime_arp(a, 1, server_mac(a));
            }
        });
        tb
    }

    /// Wires `node`'s `port` to a new segment port. The first link
    /// parameters govern frames the segment transmits, so
    /// `extra_loss` models the §4 per-direction loss cases.
    fn attach(&mut self, node: NodeId, port: usize, extra_loss: f64) {
        let seg = self.segment;
        let (seg_port, base) = match self.config.segment {
            SegmentKind::Hub => (
                self.sim.with::<Hub, _>(seg, |h, _| h.add_port()),
                LinkParams::attachment(),
            ),
            SegmentKind::Switch => (
                self.sim.with::<Switch, _>(seg, |s, _| s.add_port()),
                LinkParams::fast_ethernet(),
            ),
        };
        let base = base.with_loss(self.config.attachment_loss);
        let towards = base.with_loss((base.loss + extra_loss).min(1.0));
        self.sim
            .connect_asym((seg, seg_port), (node, port), towards, base);
    }

    /// Spawns replica `i` (its address and hub already in place) and
    /// wires it to a new segment port.
    fn spawn_replica(&mut self, i: usize) {
        let host = self.build_replica(i);
        let node = spawn_host(&mut self.sim, host);
        let extra = [self.config.loss_to_primary, self.config.loss_to_secondary];
        self.attach(node, 0, extra.get(i).copied().unwrap_or(0.0));
        self.replicas.push(node);
    }

    /// Replica `i`'s host, built from the current chain: a bare server
    /// for the standard-TCP baseline, otherwise the bridge for its
    /// position between its nearest living neighbours.
    fn build_replica(&self, i: usize) -> Host {
        let label = replica_label(i);
        let (chain, hub) = (&self.replica_addrs, &self.hubs[i]);
        if self.config.replicas == 1 {
            self.builder.server_host(i, &label, chain, hub)
        } else {
            self.builder
                .replica(chain, &self.dead, i, &label, &label, hub)
        }
    }

    /// Kills replica `i` (0 = head) fail-stop, stamping the §5 failure
    /// reference point on every hub's timeline. Killing the primary
    /// lets the secondary's fault detector take over after its
    /// timeout.
    pub fn kill_replica(&mut self, i: usize) {
        let now = self.sim.now().as_nanos();
        for hub in &self.hubs {
            hub.timeline.mark(FailoverPhase::Failure, now);
            hub.journal
                .record(now, "testbed", "kill", &[("replica", i.to_string())]);
        }
        self.dead[i] = true;
        self.sim.kill(self.replicas[i]);
    }

    /// Boots a fresh replica `i` in place of a killed one (empty
    /// state, same address, hub, wiring and primed ARP cache). Its
    /// neighbours reintegrate it on the first heartbeat (§8); apps must
    /// be reinstalled by the caller.
    pub fn revive_replica(&mut self, i: usize) {
        self.dead[i] = false;
        let node = self.replicas[i];
        let host = self.build_replica(i);
        self.sim.replace_device(node, Box::new(host));
        self.sim.schedule_timer(node, SimDuration::ZERO, TOKEN_TICK);
    }

    /// Runs the simulation for `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Installs `mk()` on every replica (active replication).
    pub fn install_servers<A: tcpfo_tcp::SocketApp>(&mut self, mk: impl Fn() -> A) {
        for &node in &self.replicas {
            self.sim.with::<Host, _>(node, |h, _| {
                h.add_app(Box::new(mk()));
            });
        }
    }

    /// Runs `f` against `node`'s bridge, if it runs a `B`.
    fn with_bridge<B: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut B) -> R,
    ) -> Option<R> {
        self.sim.with::<Host, _>(node, move |h, _| {
            h.filter_mut().as_any_mut().downcast_mut::<B>().map(f)
        })
    }

    /// Snapshot of replica `i`'s merge statistics (the head or a
    /// middle link).
    pub fn primary_stats(&mut self, i: usize) -> crate::primary::PrimaryStats {
        self.with_bridge(self.replicas[i], |b: &mut ChainBridge| {
            b.inner().stats.clone()
        })
        .expect("replica runs a merge bridge")
    }

    /// Snapshot of replica `i`'s secondary-bridge statistics (the
    /// tail).
    pub fn secondary_stats(&mut self, i: usize) -> crate::secondary::SecondaryStats {
        self.with_bridge(self.replicas[i], |b: &mut SecondaryBridge| b.stats.clone())
            .expect("replica runs a secondary bridge")
    }

    /// When replica `i`'s controller declared a peer dead, if it has.
    pub fn failover_detected_at(&mut self, i: usize) -> Option<SimTime> {
        self.sim.with::<Host, _>(self.replicas[i], |h, _| {
            h.controller_mut::<ChainController>().peer_dead_at
        })
    }

    /// Pushes each bridge's latest stats into its hub's registry so a
    /// snapshot taken now reflects segments filtered since the last
    /// one (bridges otherwise publish lazily, on their next segment).
    pub fn sync_telemetry(&mut self) {
        let now = self.sim.now().as_nanos();
        for &node in &self.replicas {
            self.sim.with::<Host, _>(node, |h, _| {
                let bridge = h.filter_mut().as_any_mut();
                if let Some(b) = bridge.downcast_mut::<ChainBridge>() {
                    b.sync_telemetry(now);
                } else if let Some(b) = bridge.downcast_mut::<SecondaryBridge>() {
                    b.sync_telemetry(now);
                }
            });
        }
    }

    /// A fresh snapshot of every registered metric, from all layers and
    /// every hub ([`MetricsSnapshot::merge`]).
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.sync_telemetry();
        let now = self.sim.now().as_nanos();
        let mut snap = self.hubs[0].registry.snapshot(now);
        for hub in &self.hubs[1..] {
            snap.merge(hub.registry.snapshot(now));
        }
        snap
    }

    /// The full telemetry export as a JSON array with one document
    /// (metrics + failover timeline + event journal) per hub, head
    /// first.
    pub fn export_telemetry_json(&mut self) -> String {
        self.sync_telemetry();
        let now = self.sim.now().as_nanos();
        let docs: Vec<String> = self
            .hubs
            .iter()
            .map(|hub| hub.export_json(now).trim_end().to_string())
            .collect();
        format!("[\n{}\n]\n", docs.join(",\n"))
    }

    /// A pcapng capture of every traced frame the client host received,
    /// openable in Wireshark/tshark. Requires tracing
    /// (`tb.sim.set_trace_enabled(true)`) during the run.
    pub fn client_capture_pcapng(&mut self) -> Vec<u8> {
        let client = self.client;
        let entries = self.sim.trace_tail(usize::MAX);
        to_pcapng(&entries, |e| {
            e.node == client && matches!(e.kind, TraceKind::Rx { .. })
        })
    }

    /// A pcapng capture of every transmitted frame anywhere in the
    /// simulation — including the diverted S→P leg, whose packets carry
    /// an `orig-dest` annotation in their comment block. Requires
    /// tracing (`tb.sim.set_trace_enabled(true)`) during the run.
    pub fn full_capture_pcapng(&mut self) -> Vec<u8> {
        let entries = self.sim.trace_tail(usize::MAX);
        to_pcapng(&entries, |e| matches!(e.kind, TraceKind::Tx { .. }))
    }

    /// Runs `f` against the observers of `node`'s bridge. `None` when
    /// the node runs no bridge or `f` returns `None`.
    pub fn with_observers<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&Observers) -> Option<R>,
    ) -> Option<R> {
        self.sim
            .with::<Host, _>(node, |h, _| h.filter_mut().observers().and_then(f))
    }

    /// Runs `f` against the primary's merge bridge itself — for checks
    /// that need more than one attached observatory at once (e.g.
    /// pairing the replication-lag ledger with an oracle walk over
    /// [`PrimaryBridge::connection_rows`]).
    pub fn with_primary_bridge<R>(&mut self, f: impl FnOnce(&PrimaryBridge) -> R) -> Option<R> {
        self.with_bridge(self.replicas[0], |b: &mut ChainBridge| f(b.inner()))
    }

    /// Runs `f` against the health monitor with which replica `i`'s
    /// controller scores its nearest neighbour: its upstream one, or
    /// for the head its first backup (S's view of P, or P's view of S,
    /// in the pair).
    pub fn with_health_monitor<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&HealthMonitor) -> R,
    ) -> Option<R> {
        let peer = if i == 0 { 1 } else { i - 1 };
        self.sim.with::<Host, _>(self.replicas[i], move |h, _| {
            h.controller_mut::<ChainController>()
                .peer_monitor(peer)
                .map(f)
        })
    }

    /// Applies `f` to the link parameters of every wire touching
    /// `node`, both directions — staged in-run degradation (rising
    /// loss, latency, jitter before a crash) for health-observatory
    /// experiments.
    pub fn reshape_links(&mut self, node: NodeId, f: impl Fn(LinkParams) -> LinkParams) {
        self.sim.reshape_links(node, f);
    }

    /// Sum of invariant-auditor rule firings across every replica's
    /// bridge, dead or alive — a killed node's state stays readable,
    /// and its evidence counts (0 when the auditor is detached).
    pub fn audit_violations(&mut self) -> u64 {
        let mut total = 0;
        for &node in &self.replicas {
            total += self.sim.with::<Host, _>(node, |h, _| {
                h.filter_mut()
                    .observers()
                    .and_then(Observers::audit)
                    .map_or(0, |a| a.ledger().total_violations())
            });
        }
        total
    }

    /// Everything needed to diagnose a failed run from the log alone:
    /// the tail of the packet trace, every hub's failover timeline and
    /// journal tail, a metrics snapshot, and the auditors' reports.
    pub fn dump_diagnostics(&mut self, trace_tail: usize) -> String {
        let snap = self.metrics_snapshot();
        let mut out = String::new();
        out.push_str("--- trace tail ---\n");
        let entries = self.sim.trace_tail(trace_tail);
        if entries.is_empty() {
            out.push_str("(no trace; enable with sim.set_trace_enabled(true))\n");
        }
        for e in &entries {
            out.push_str(&e.summary());
            out.push('\n');
        }
        for (i, hub) in self.hubs.iter().enumerate() {
            let label = replica_label(i);
            out.push_str(&format!("--- {label} failover timeline ---\n"));
            out.push_str(&hub.timeline.breakdown());
            out.push_str(&format!("--- {label} journal tail ---\n"));
            for e in hub.journal.tail(20) {
                out.push_str(&e.summary());
                out.push('\n');
            }
        }
        out.push_str("--- metrics ---\n");
        out.push_str(&snap.to_table());
        for (i, node) in self.replicas.clone().into_iter().enumerate() {
            if let Some(report) = self.with_observers(node, |o| o.audit().map(|a| a.report())) {
                out.push_str(&format!("--- {} auditor ---\n", replica_label(i)));
                out.push_str(&report);
            }
        }
        out
    }

    /// Asserts `cond`, panicking with `msg` *plus* the full
    /// diagnostics dump — so a CI failure log carries the trace tail,
    /// timeline and metrics without re-running anything.
    #[track_caller]
    pub fn expect(&mut self, cond: bool, msg: &str) {
        if !cond {
            panic!("{msg}\n{}", self.dump_diagnostics(40));
        }
    }

    // -----------------------------------------------------------------
    // Reprovisioning primitives (PR9) — composed by
    // `tcpfo_apps::chain_ops::reprovision_tail`, which adds the
    // application half (resuming the deterministic stream).
    // -----------------------------------------------------------------

    /// Index of the current tail: the last living replica.
    ///
    /// # Panics
    ///
    /// Panics if every replica is dead.
    pub fn tail_index(&self) -> usize {
        (0..self.replicas.len())
            .rev()
            .find(|&i| !self.dead[i])
            .expect("at least one living replica")
    }

    /// Snapshots per-flow TCB handoffs from replica `from`'s TCP stack
    /// (the tail being replaced — pass its index from *before*
    /// [`Testbed::spawn_standby`] appended the standby).
    /// `progress` carries the application half — `(socket, offset,
    /// remaining)` per live connection (e.g.
    /// `SourceServer::conn_progress`). The cursor is the tail's
    /// `snd_nxt`, i.e. the client-facing sequence space; `delta` is 0
    /// under the adopt-in-tail-space scheme.
    pub fn snapshot_handoffs(
        &mut self,
        from: usize,
        progress: &[(SocketId, u64, u64)],
    ) -> Vec<FlowHandoff> {
        let tail = self.replicas[from];
        let progress = progress.to_vec();
        self.sim.with::<Host, _>(tail, move |h, _| {
            let mut handoffs = Vec::new();
            for &(sid, offset, remaining) in &progress {
                let Some(sock) = h.stack().socket(sid) else {
                    continue;
                };
                if !sock.is_established() {
                    continue;
                }
                let t = sock.four_tuple();
                // The application's progress counter runs ahead of
                // SND.NXT by whatever sits unsent in the socket's send
                // buffer; the adopting stack starts exactly at the
                // cursor, so the resume point rewinds by that depth —
                // otherwise the standby's stream is shifted and the
                // merge releases diverging bytes.
                let unsent = u64::from(sock.unsent_bytes());
                handoffs.push(FlowHandoff {
                    client: t.remote,
                    server_port: t.local.port,
                    cursor: sock.snd_nxt(),
                    delta: 0,
                    rcv_nxt: sock.rcv_nxt(),
                    mss: sock.effective_mss(),
                    win: sock.snd_wnd().min(u32::from(u16::MAX)) as u16,
                    offset: offset.saturating_sub(unsent),
                    remaining: remaining + unsent,
                });
            }
            handoffs
        })
    }

    /// Spawns a fresh standby replica at the end of the chain
    /// (phase 1): a [`SecondaryBridge`] diverting to the current tail,
    /// its own telemetry hub and observatories, a controller that
    /// already knows which founders are dead, ARP pre-primed both
    /// ways, wired to a new segment port. Starts the tracker's
    /// reprovision clock. Returns the new replica's index.
    ///
    /// # Panics
    ///
    /// Panics on the standard-TCP baseline (no chain) and when the
    /// back-end T is attached (the standby would take its address).
    pub fn spawn_standby(&mut self) -> usize {
        assert!(self.config.replicas >= 2, "standard TCP has no chain");
        assert!(!self.config.with_backend, "{BACKEND_COLLISION}");
        let k = self.replica_addrs.len();
        let addr = server_addr(k);
        let now = self.sim.now().as_nanos();
        self.tracker.begin(addr, now);
        self.replica_addrs.push(addr);
        self.dead.push(false);

        // The standby mirrors a founding tail: its secondary bridge
        // diverts to the current tail (which will convert to a middle as
        // part of the handoff).
        let hub = new_hub(
            self.config.journal_capacity,
            self.builder.observers.trace,
            &mut self.tracker,
        );
        self.hubs.push(hub);
        self.spawn_replica(k);

        // The survivors and the router learn about the new chain member.
        let mac = server_mac(addr);
        for i in 0..k {
            if self.dead[i] {
                continue;
            }
            self.sim.with::<Host, _>(self.replicas[i], |h, _| {
                h.net_mut().prime_arp(addr, mac);
                h.controller_mut::<ChainController>().append_replica(addr);
            });
        }
        self.sim.with::<Router, _>(self.router, |r, _| {
            r.prime_arp(addr, 1, mac);
        });
        k
    }

    /// Rebuilds the handed-off TCBs on the standby (phase 2, stack
    /// half): [`tcpfo_tcp::TcpStack::adopt`] synthesises each
    /// socket `Established` at the snapshot positions, and the witness
    /// gate is seeded so the bridge translates the client's datagrams.
    /// Returns the new socket IDs, parallel to `handoffs`, for the
    /// application half.
    pub fn adopt_on_standby(&mut self, standby: usize, handoffs: &[FlowHandoff]) -> Vec<SocketId> {
        let node = self.replicas[standby];
        let addr = self.replica_addrs[standby];
        let handoffs = handoffs.to_vec();
        let now = self.sim.now().as_nanos();
        self.sim.with::<Host, _>(node, move |h, _| {
            let mut ids = Vec::with_capacity(handoffs.len());
            for ho in &handoffs {
                if let Some(b) = h
                    .filter_mut()
                    .as_any_mut()
                    .downcast_mut::<SecondaryBridge>()
                {
                    b.witness_flow(ho.server_port, ho.client, now);
                }
                let local = SocketAddr::new(addr, ho.server_port);
                let id = h
                    .stack_mut()
                    .adopt(local, ho.client, ho.cursor, ho.rcv_nxt, ho.mss, ho.win)
                    .expect("adopted tuple unique on a fresh standby");
                ids.push(id);
            }
            ids
        })
    }

    /// Converts the old tail into a middle link adopting the same
    /// flows at `Δseq = 0` (phase 2, bridge half): its merge now
    /// buffers its own stream until the standby's diverted stream
    /// matches it. Ends the handoff phase on the tracker.
    pub fn convert_tail_to_middle(&mut self, standby: usize, handoffs: &[FlowHandoff]) {
        let tail = self.tail_index0_before(standby);
        let node = self.replicas[tail];
        let now = self.sim.now().as_nanos();
        let upstream = self.sim.with::<Host, _>(node, |h, _| {
            h.filter_mut()
                .as_any_mut()
                .downcast_mut::<SecondaryBridge>()
                .expect("converting tail runs a SecondaryBridge")
                .upstream()
        });
        let mut bridge = self.builder.bridge(
            self.replica_addrs[tail],
            Some(upstream),
            Some(self.replica_addrs[standby]),
            &replica_label(tail),
            &self.hubs[tail],
        );
        let link = bridge
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .expect("a bridge with a downstream is a chain link");
        for ho in handoffs {
            link.adopt_flow(ho, now);
        }
        self.sim
            .with::<Host, _>(node, move |h, _| h.set_filter(bridge));
        self.catchup_link = Some(tail);
        let backlog = self.catchup_lag();
        self.tracker.handoff_done(handoffs.len(), backlog, now);
    }

    /// The tail index *excluding* the standby already appended by
    /// [`Testbed::spawn_standby`].
    fn tail_index0_before(&self, standby: usize) -> usize {
        (0..standby)
            .rev()
            .find(|&i| !self.dead[i])
            .expect("a living replica above the standby")
    }

    /// Unmatched replication backlog on the converted link: the lag
    /// ledger when the health observatory is attached, otherwise the
    /// sum of primary-queue bytes across its connections. Zero means
    /// the standby's stream has caught up with the converted link's.
    pub fn catchup_lag(&mut self) -> u64 {
        let Some(link) = self.catchup_link else {
            return 0;
        };
        let node = self.replicas[link];
        self.sim.with::<Host, _>(node, |h, _| {
            let Some(b) = h.filter_mut().as_any_mut().downcast_mut::<ChainBridge>() else {
                return 0;
            };
            match b.observers().health() {
                Some(obs) => obs.lag.unmatched_bytes(),
                None => b.connection_rows().iter().map(|r| r.pq_bytes as u64).sum(),
            }
        })
    }

    /// Checks the catch-up condition and, when the backlog has drained
    /// to zero, stamps restoration on the tracker (and so on every
    /// hub's redundancy timeline).
    pub fn poll_reprovision(&mut self) {
        if self.tracker.phase() == ReprovisionPhase::CatchUp && self.catchup_lag() == 0 {
            let now = self.sim.now().as_nanos();
            self.tracker.restored(now);
        }
    }

    /// Runs the simulation in `step` increments until the
    /// reprovisioning round reports restored redundancy, or `max` sim
    /// time elapses. Returns whether redundancy was restored.
    ///
    /// Steps *before* the first poll: at the conversion instant the
    /// backlog is trivially zero (the standby has not produced a byte
    /// yet), so catch-up is only proven once the chain has run and the
    /// lag observed after that still drains to nothing.
    pub fn run_until_restored(&mut self, step: SimDuration, max: SimDuration) -> bool {
        let deadline = self.sim.now() + max;
        loop {
            self.run_for(step);
            self.poll_reprovision();
            if self.tracker.phase() == ReprovisionPhase::Restored {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
        }
    }
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("replicas", &self.replica_addrs)
            .field("dead", &self.dead)
            .field("segment", &self.config.segment)
            .finish()
    }
}
