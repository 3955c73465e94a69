//! The secondary server bridge (§3.1, §5).
//!
//! The secondary's NIC runs in promiscuous mode on the shared segment,
//! so every client datagram addressed to the primary passes this
//! bridge. For failover connections it:
//!
//! * **ingress**: rewrites the destination `a_p → a_s` (with an
//!   RFC 1624 incremental checksum fixup) so the secondary's unmodified
//!   TCP layer processes the client stream as if addressed directly;
//! * **egress**: rewrites the destination `a_c → a_p`, diverting all
//!   output to the primary, and appends the *original destination* TCP
//!   option so the primary bridge can recover the client endpoint.
//!
//! Witnessed connections are tracked in a sharded [`FlowTable`] with
//! the same lifecycle the primary uses: SYN opens an `Establishing`
//! entry, data moves it to `Replicated`, FINs in both directions walk
//! it through `Closing` into `TimeWait`, and the timer-driven GC reaps
//! it — the witness set is bounded, where the old `HashSet` grew
//! forever under connection churn.
//!
//! On primary failure (§5) the controller calls
//! [`SecondaryBridge::prepare_takeover`] (steps 1–4: stop egress,
//! disable promiscuous mode and both translations); the host controller
//! then performs IP takeover (gratuitous ARP, re-keying the TCBs), and
//! the bridge stays disabled — the secondary "behaves like any standard
//! TCP server".

use crate::designation::{ConnKey, FailoverConfig};
use crate::flow::{
    FlowState, FlowTable, FlowTableConfig, ShardGauges, ShardStats, GC_INTERVAL_NANOS,
};
use tcpfo_tcp::filter::{AddressedSegment, FailoverRule, FilterOutput, SegmentFilter};
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::audit::{SecondaryPhase, TakeoverStep};
use tcpfo_telemetry::{
    Counter, FailoverPhase, Gauge, HostClock, InvariantAuditor, Observers, Stage, Telemetry,
};
use tcpfo_wire::ipv4::Ipv4Addr;
use tcpfo_wire::tcp::{SegmentPatcher, TcpFlags, TcpView};

/// Per-connection witness state: which directions have closed, so the
/// lifecycle can walk the entry into `TimeWait` and the GC can reap it.
#[derive(Debug, Default, Clone, Copy)]
struct SeenFlow {
    /// Client FIN witnessed on ingress.
    client_fin: bool,
    /// Our own server FIN witnessed on (diverted) egress.
    server_fin: bool,
}

/// Counters exposed for tests and the evaluation harness.
#[derive(Debug, Default, Clone)]
pub struct SecondaryStats {
    /// Ingress datagrams rewritten `a_p → a_s`.
    pub ingress_translated: u64,
    /// Egress segments diverted `a_c → a_p` (with orig-dest option).
    pub egress_diverted: u64,
    /// Segments dropped while egress was held during takeover.
    pub held_dropped: u64,
    /// Witness entries pushed out by LRU under capacity pressure.
    pub evicted_flows: u64,
    /// Witness entries reaped by the timer-driven GC (TTL expiry).
    pub flows_reaped: u64,
    /// Designated non-SYN ingress dropped because this replica never
    /// witnessed the connection's establishment (§8 reintegration
    /// gate). Handing these to the stack would make it answer
    /// mid-stream segments of a connection it cannot replicate with a
    /// RST — in the *live* sequence space, since the RST echoes the
    /// client's ACK.
    pub unwitnessed_dropped: u64,
}

/// Registry handles mirroring [`SecondaryStats`] under the
/// `core.secondary` scope, plus the shared hub for timeline marks.
struct SecondaryInstruments {
    hub: Telemetry,
    ingress_translated: Counter,
    egress_diverted: Counter,
    held_dropped: Counter,
    evicted_flows: Counter,
    flows_reaped: Counter,
    flow_occupancy: Gauge,
    /// Per-shard witness-table gauges under `core.secondary.flow`.
    shard_gauges: ShardGauges,
}

/// Operating state of the secondary bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryMode {
    /// Normal snoop-and-divert operation.
    Active,
    /// §5 step 1: takeover in progress; hold client-bound egress.
    Holding,
    /// §5 steps 3–4 complete: translations disabled; the bridge is
    /// transparent.
    Disabled,
}

/// The secondary server bridge; install as the secondary host's
/// [`SegmentFilter`].
///
/// # Example
///
/// ```
/// use tcpfo_core::{FailoverConfig, SecondaryBridge, SecondaryMode};
/// use tcpfo_wire::ipv4::Ipv4Addr;
///
/// let a_p = Ipv4Addr::new(10, 0, 0, 2);
/// let a_s = Ipv4Addr::new(10, 0, 0, 3);
/// let mut bridge = SecondaryBridge::new(a_p, a_s, FailoverConfig::from_ports([80]));
/// assert_eq!(bridge.mode(), SecondaryMode::Active);
/// // §5 takeover sequence driven by the fault detector:
/// bridge.prepare_takeover();   // step 1: hold client-bound egress
/// bridge.complete_takeover();  // steps 3-4: translations off
/// assert_eq!(bridge.mode(), SecondaryMode::Disabled);
/// ```
pub struct SecondaryBridge {
    a_p: Ipv4Addr,
    a_s: Ipv4Addr,
    /// Where diverted egress is sent: the primary (`a_p`) in the
    /// two-node configuration, the next replica toward the head on a
    /// daisy chain.
    upstream: Ipv4Addr,
    config: FailoverConfig,
    mode: SecondaryMode,
    /// Connections whose SYN this bridge has witnessed. Non-SYN ingress
    /// is only claimed for these: a freshly (re)started secondary must
    /// not feed a connection it never saw established into its stack —
    /// the stack would answer with a RST (reintegration support).
    flows: FlowTable<SeenFlow>,
    /// Statistics.
    pub stats: SecondaryStats,
    telemetry: Option<SecondaryInstruments>,
    /// Auditor, latency and health observers (DESIGN §11). The
    /// secondary holds no output queues, so its health observatory
    /// only publishes; replication lag is accounted upstream.
    obs: Observers,
    /// Sim time of the most recent filtered segment or tick, so the
    /// clock-less takeover calls can stamp auditor events.
    last_now: u64,
    /// Last time the flow-table GC swept.
    last_gc: u64,
}

impl SecondaryBridge {
    /// Creates a bridge for secondary `a_s` shadowing primary `a_p`.
    /// The witness flow table is sized from the environment
    /// (`TCPFO_FLOW_SHARDS`, `TCPFO_FLOW_CAP`); override with
    /// [`SecondaryBridge::set_flow_config`].
    pub fn new(a_p: Ipv4Addr, a_s: Ipv4Addr, config: FailoverConfig) -> Self {
        SecondaryBridge {
            a_p,
            a_s,
            upstream: a_p,
            config,
            mode: SecondaryMode::Active,
            flows: FlowTable::new(FlowTableConfig::from_env()),
            stats: SecondaryStats::default(),
            telemetry: None,
            obs: Observers::default(),
            last_now: 0,
            last_gc: 0,
        }
    }

    /// Rebuilds the witness flow table with a new shard count /
    /// capacity, migrating every resident entry. Entries that no longer
    /// fit are dropped and counted as evictions.
    pub fn set_flow_config(&mut self, config: FlowTableConfig) {
        let evicted = &mut self.stats.evicted_flows;
        self.flows.reconfigure(config, &mut |_| *evicted += 1);
    }

    /// Number of tracked witness entries.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Aggregated flow-table statistics across all shards.
    pub fn flow_stats(&self) -> ShardStats {
        self.flows.stats_total()
    }

    /// Number of flow-table shards (a power of two).
    pub fn flow_shard_count(&self) -> usize {
        self.flows.shard_count()
    }

    /// The attached observers.
    pub fn observers(&self) -> &Observers {
        &self.obs
    }

    /// Mutable access to the attached observers.
    pub fn observers_mut(&mut self) -> &mut Observers {
        &mut self.obs
    }

    /// Replaces the attached observers.
    pub fn set_observers(&mut self, obs: Observers) {
        self.obs = obs;
    }

    /// Host-time stamp opening a stage measurement; 0 (and no clock
    /// read) when the observatory is detached.
    #[inline]
    fn lat_start(&self) -> u64 {
        if self.obs.latency.is_some() {
            HostClock::now_ns()
        } else {
            0
        }
    }

    /// Closes a stage measurement opened by
    /// [`SecondaryBridge::lat_start`].
    #[inline]
    fn lat_end(&mut self, stage: Stage, t0: u64) {
        if let Some(l) = self.obs.latency.as_deref_mut() {
            l.record(stage, HostClock::now_ns().saturating_sub(t0));
        }
    }

    /// Connects the bridge to a telemetry hub: mirrors
    /// [`SecondaryStats`] onto registry counters under `core.secondary`
    /// and stamps the [`FailoverPhase::FirstClientByte`] timeline mark
    /// when the first post-takeover data segment leaves for the client.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let scope = telemetry.registry.scope("core.secondary");
        self.telemetry = Some(SecondaryInstruments {
            hub: telemetry.clone(),
            ingress_translated: scope.counter("ingress_translated"),
            egress_diverted: scope.counter("egress_diverted"),
            held_dropped: scope.counter("held_dropped"),
            evicted_flows: scope.counter("evicted_flows"),
            flows_reaped: scope.counter("flows_reaped"),
            flow_occupancy: scope.gauge("flow_occupancy"),
            shard_gauges: ShardGauges::new(&telemetry.registry, "core.secondary.flow"),
        });
    }

    /// Publishes [`SecondaryStats`], the witness-table occupancy, the
    /// per-shard witness gauges, and the stage-latency quantiles (when
    /// an observatory is attached) to the registry.
    pub fn sync_telemetry(&mut self, now_nanos: u64) {
        let SecondaryBridge {
            flows,
            stats,
            telemetry,
            obs,
            ..
        } = self;
        let Some(t) = telemetry else {
            return;
        };
        t.ingress_translated.set_at_least(stats.ingress_translated);
        t.egress_diverted.set_at_least(stats.egress_diverted);
        t.held_dropped.set_at_least(stats.held_dropped);
        t.evicted_flows.set_at_least(stats.evicted_flows);
        t.flows_reaped.set_at_least(stats.flows_reaped);
        t.flow_occupancy.set_at(flows.len() as u64, now_nanos);
        t.shard_gauges.publish(flows, now_nanos);
        obs.publish(&t.hub.registry, "core.secondary", now_nanos);
    }

    /// Current mode.
    pub fn mode(&self) -> SecondaryMode {
        self.mode
    }

    /// Re-targets the diversion (daisy-chain healing: when the direct
    /// upstream dies, divert to the next living replica toward the
    /// head).
    pub fn set_upstream(&mut self, upstream: Ipv4Addr) {
        self.upstream = upstream;
    }

    /// The current diversion target.
    pub fn upstream(&self) -> Ipv4Addr {
        self.upstream
    }

    /// Seeds the witness gate for an adopted flow (PR9 reprovisioning):
    /// a freshly provisioned tail never saw the connection's SYN, so
    /// the handoff vouches for its establishment — without this entry
    /// the bridge would refuse to translate the client's datagrams.
    pub fn witness_flow(&mut self, server_port: u16, client: SocketAddr, now_nanos: u64) {
        let key = ConnKey::new(server_port, client);
        if self
            .flows
            .insert(key, FlowState::Replicated, SeenFlow::default(), now_nanos)
            .is_some()
        {
            self.stats.evicted_flows += 1;
        }
    }

    /// §5 step 1: stop sending client-addressed segments. Outbound
    /// failover segments are dropped while holding, exactly as the paper
    /// observes for the window `T`; the controller's takeover kick
    /// (`TcpStack::kick_failover_sockets`) re-produces them at the VIP
    /// commit, and after it only the ordinary retransmission timers do.
    pub fn prepare_takeover(&mut self) {
        self.mode = SecondaryMode::Holding;
        let now = self.last_now;
        if let Some(a) = &mut self.obs.audit {
            a.note_takeover_step(TakeoverStep::EgressHold, now);
        }
    }

    /// §5 steps 3–4: disable both address translations. Called once the
    /// IP takeover (gratuitous ARP + TCB re-keying) is done; from here
    /// on the bridge is a no-op.
    pub fn complete_takeover(&mut self) {
        self.mode = SecondaryMode::Disabled;
        let now = self.last_now;
        if let Some(a) = &mut self.obs.audit {
            a.note_takeover_step(TakeoverStep::TranslationOff, now);
        }
    }

    /// Timer-driven witness GC: reaps TimeWait entries after their TTL
    /// and long-idle entries (the leak backstop — connections whose
    /// teardown this bridge never witnessed, e.g. across a takeover).
    /// Runs at most once per [`GC_INTERVAL_NANOS`] of sim time, and
    /// reaps at most `GcPolicy::max_reaps_per_tick` entries per tick —
    /// the pause bound; backlog carries over via the table's shard
    /// cursor.
    fn gc_flows(&mut self, now_nanos: u64) {
        if now_nanos.saturating_sub(self.last_gc) < GC_INTERVAL_NANOS {
            return;
        }
        self.last_gc = now_nanos;
        let budget = self.flows.config().gc.max_reaps_per_tick;
        self.flows.gc_budgeted(now_nanos, budget, &mut |_ev| {});
        self.stats.flows_reaped = self.flows.stats_total().reaped;
    }

    /// Whether a segment belongs to a designated failover connection.
    /// On ingress the server port is the destination port; on egress it
    /// is the source port.
    fn designated(&self, server_port: u16, peer: SocketAddr) -> bool {
        self.config.matches(server_port, peer.ip, peer.port)
    }

    /// The egress datapath. The [`SegmentFilter::on_outbound_into`]
    /// implementation wraps this with the (optional) audit observation.
    fn outbound_inner(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        if self.mode == SecondaryMode::Disabled {
            // §5 complete: the first data byte the promoted secondary
            // sends toward the client closes the failover timeline.
            if let Some(t) = &self.telemetry {
                if t.hub.timeline.at(FailoverPhase::FirstClientByte).is_none()
                    && seg.dst != self.a_p
                    && seg.dst != self.a_s
                {
                    if let Ok(view) = TcpView::new(&seg.bytes) {
                        if !view.payload().is_empty() {
                            t.hub.timeline.mark(FailoverPhase::FirstClientByte, now);
                            t.hub.journal.record(
                                now,
                                "core.secondary",
                                "first_client_byte",
                                &[
                                    ("seq", view.seq().to_string()),
                                    ("len", view.payload().len().to_string()),
                                ],
                            );
                            t.hub.trace.instant_args(
                                tcpfo_telemetry::SpanTrack::Control,
                                "core.secondary",
                                "first_client_byte",
                                now,
                                [Some(("len", view.payload().len() as u64)), None],
                            );
                        }
                    }
                }
            }
            out.to_wire.push(seg);
            return;
        }
        let ip0 = self.lat_start();
        let view = TcpView::new(&seg.bytes);
        self.lat_end(Stage::IngressParse, ip0);
        let Ok(view) = view else {
            out.to_wire.push(seg);
            return;
        };
        // Failover segments: produced by our TCP layer (src == a_s),
        // addressed to the unreplicated peer (not the primary).
        let peer = SocketAddr::new(seg.dst, view.dst_port());
        if seg.src != self.a_s || seg.dst == self.a_p || !self.designated(view.src_port(), peer) {
            out.to_wire.push(seg);
            return;
        }
        if self.mode == SecondaryMode::Holding {
            self.stats.held_dropped += 1;
            return;
        }
        // Walk the witness lifecycle on our own FIN: both directions
        // closed moves the entry into TimeWait for the GC to reap.
        if view.flags().contains(TcpFlags::FIN) {
            let key = ConnKey::new(view.src_port(), peer);
            let fl0 = self.lat_start();
            let st = self.flows.get_mut(&key, now).map(|flow| {
                flow.server_fin = true;
                if flow.client_fin {
                    FlowState::TimeWait
                } else {
                    FlowState::Closing
                }
            });
            if let Some(st) = st {
                self.flows.set_state(&key, st, now);
            }
            self.lat_end(Stage::FlowLookup, fl0);
        }
        // Divert to the primary, recording the original destination.
        let orig = seg.dst;
        let orig_port = view.dst_port();
        let trace = seg.trace;
        let cf0 = self.lat_start();
        let mut patcher = SegmentPatcher::new(seg.bytes, seg.src, seg.dst);
        patcher.push_orig_dest_option(orig, orig_port);
        patcher.set_pseudo_dst(self.upstream);
        let (bytes, src, dst) = patcher.finish();
        self.lat_end(Stage::ChecksumFixup, cf0);
        self.stats.egress_diverted += 1;
        out.to_wire
            .push(AddressedSegment::new(src, dst, bytes).traced(trace));
    }

    /// The ingress datapath. The [`SegmentFilter::on_inbound_into`]
    /// implementation wraps this with the (optional) audit observation.
    fn inbound_inner(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        // While holding (§5 step 1) ingress translation stays active:
        // "the secondary server can receive data from the client until
        // the promiscuous receive mode of its network interface is
        // disabled". Only the completed takeover (steps 3-4) disables
        // the a_p→a_s translation; the stack then owns a_p directly.
        if self.mode == SecondaryMode::Disabled {
            out.to_tcp.push(seg);
            return;
        }
        // §3.1: "discards all datagrams … that are not addressed to P"
        // (non-matching ones simply pass; the host drops non-local).
        if seg.dst != self.a_p {
            out.to_tcp.push(seg);
            return;
        }
        let ip0 = self.lat_start();
        let view = TcpView::new(&seg.bytes);
        self.lat_end(Stage::IngressParse, ip0);
        let Ok(view) = view else {
            out.to_tcp.push(seg);
            return;
        };
        // Ignore the primary's diverted... nothing is diverted *to* us;
        // but segments from a_s itself must never loop.
        if seg.src == self.a_s {
            out.to_tcp.push(seg);
            return;
        }
        let peer = SocketAddr::new(seg.src, view.src_port());
        if !self.designated(view.dst_port(), peer) {
            out.to_tcp.push(seg);
            return;
        }
        // Only claim connections whose establishment we witnessed.
        let key = ConnKey::new(view.dst_port(), peer);
        if view.flags().contains(TcpFlags::SYN) {
            // A SYN opens (or, for tuple reuse, resets) the witness
            // entry — the insert replaces any residue in place.
            let fl0 = self.lat_start();
            let evicted = self
                .flows
                .insert(key, FlowState::Establishing, SeenFlow::default(), now)
                .is_some();
            self.lat_end(Stage::FlowLookup, fl0);
            if evicted {
                self.stats.evicted_flows += 1;
            }
        } else {
            let fin = view.flags().contains(TcpFlags::FIN);
            let fl0 = self.lat_start();
            let fins = self.flows.get_mut(&key, now).map(|flow| {
                if fin {
                    flow.client_fin = true;
                }
                (flow.client_fin, flow.server_fin)
            });
            self.lat_end(Stage::FlowLookup, fl0);
            let Some((cf, sf)) = fins else {
                // Unwitnessed designated flow: a replica that did not
                // see establishment cannot replicate it — drop, never
                // deliver (the stack would RST the live connection).
                self.stats.unwitnessed_dropped += 1;
                return;
            };
            let st = match (cf, sf) {
                (true, true) => FlowState::TimeWait,
                (true, false) | (false, true) => FlowState::Closing,
                (false, false) => FlowState::Replicated,
            };
            // Never regress a Closing/TimeWait entry back to
            // Replicated on a late plain data segment.
            if st != FlowState::Replicated
                || self.flows.state(&key) == Some(FlowState::Establishing)
            {
                self.flows.set_state(&key, st, now);
            }
        }
        let trace = seg.trace;
        let cf0 = self.lat_start();
        let mut patcher = SegmentPatcher::new(seg.bytes, seg.src, seg.dst);
        patcher.set_pseudo_dst(self.a_s);
        let (bytes, src, dst) = patcher.finish();
        self.lat_end(Stage::ChecksumFixup, cf0);
        self.stats.ingress_translated += 1;
        out.to_tcp
            .push(AddressedSegment::new(src, dst, bytes).traced(trace));
    }

    /// Pre-step audit observation for ingress: records the client
    /// segment and (for witnessed designated connections) arms the
    /// `a_p → a_s` translation check.
    fn audit_inbound_observe(&self, aud: &mut InvariantAuditor, seg: &AddressedSegment) {
        if self.mode == SecondaryMode::Disabled {
            return;
        }
        let designated = match TcpView::new(&seg.bytes) {
            Ok(view) => self.designated(view.dst_port(), SocketAddr::new(seg.src, view.src_port())),
            Err(_) => false,
        };
        aud.note_secondary_ingress(
            self.a_p, self.a_s, seg.src, seg.dst, &seg.bytes, seg.trace, designated,
        );
    }

    /// The bridge mode expressed in the auditor's vocabulary.
    fn audit_phase(&self) -> SecondaryPhase {
        match self.mode {
            SecondaryMode::Active => SecondaryPhase::Active,
            SecondaryMode::Holding => SecondaryPhase::Holding,
            SecondaryMode::Disabled => SecondaryPhase::Disabled,
        }
    }
}

impl SegmentFilter for SecondaryBridge {
    fn on_outbound_into(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        self.last_now = now;
        if self.obs.audit.is_none() {
            self.outbound_inner(seg, now, out);
            return;
        }
        let mut aud = self.obs.audit.take().expect("audit attached");
        aud.begin_event(now);
        let phase = self.audit_phase();
        let w0 = out.to_wire.len();
        self.outbound_inner(seg, now, out);
        for s in &out.to_wire[w0..] {
            aud.check_secondary_egress(
                phase,
                self.a_p,
                self.a_s,
                self.upstream,
                s.src,
                s.dst,
                &s.bytes,
                s.trace,
            );
        }
        aud.end_event(now);
        self.obs.audit = Some(aud);
    }

    fn on_inbound_into(&mut self, seg: AddressedSegment, now: u64, out: &mut FilterOutput) {
        self.last_now = now;
        if self.obs.audit.is_none() {
            self.inbound_inner(seg, now, out);
            return;
        }
        let mut aud = self.obs.audit.take().expect("audit attached");
        aud.begin_event(now);
        self.audit_inbound_observe(&mut aud, &seg);
        let t0 = out.to_tcp.len();
        self.inbound_inner(seg, now, out);
        for s in &out.to_tcp[t0..] {
            aud.check_secondary_deliver_up(self.a_s, s.src, s.dst, &s.bytes, s.trace);
        }
        aud.end_event(now);
        self.obs.audit = Some(aud);
    }

    fn on_tick(&mut self, now_nanos: u64) {
        self.last_now = now_nanos;
        self.gc_flows(now_nanos);
        self.sync_telemetry(now_nanos);
    }

    fn designate(&mut self, rule: FailoverRule) {
        match rule {
            FailoverRule::Port(p) => self.config.add_port(p),
            FailoverRule::Tuple(t) => self
                .config
                .add_conn(crate::designation::ConnKey::new(t.local.port, t.remote)),
        }
    }

    fn observers(&self) -> Option<&Observers> {
        Some(&self.obs)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl std::fmt::Debug for SecondaryBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecondaryBridge")
            .field("a_p", &self.a_p)
            .field("a_s", &self.a_s)
            .field("mode", &self.mode)
            .field("flows", &self.flows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tcpfo_wire::tcp::{verify_segment_checksum, TcpSegment};

    const A_P: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const A_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const A_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 9);

    fn bridge() -> SecondaryBridge {
        let mut b = SecondaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
        // Witness the connection's SYN so non-SYN ingress is claimed
        // (the reintegration gate).
        let syn = TcpSegment::builder(51000, 80)
            .seq(99)
            .flags(TcpFlags::SYN)
            .build();
        let _ = b.on_inbound(
            AddressedSegment::new(A_C, A_P, syn.encode(A_C, A_P).to_vec()),
            0,
        );
        b
    }

    fn client_segment() -> AddressedSegment {
        let seg = TcpSegment::builder(51000, 80)
            .seq(100)
            .ack(200)
            .window(4000)
            .payload(Bytes::from_static(b"GET /"))
            .build();
        AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec())
    }

    fn server_reply() -> AddressedSegment {
        let seg = TcpSegment::builder(80, 51000)
            .seq(200)
            .ack(105)
            .window(8000)
            .payload(Bytes::from_static(b"200 OK"))
            .build();
        AddressedSegment::new(A_S, A_C, seg.encode(A_S, A_C).to_vec())
    }

    #[test]
    fn ingress_rewrites_ap_to_as_with_valid_checksum() {
        let mut b = bridge();
        let out = b.on_inbound(client_segment(), 0);
        assert_eq!(out.to_tcp.len(), 1);
        let seg = &out.to_tcp[0];
        assert_eq!(seg.dst, A_S, "destination translated to the secondary");
        assert_eq!(seg.src, A_C);
        assert!(verify_segment_checksum(seg.src, seg.dst, &seg.bytes));
        assert_eq!(
            b.stats.ingress_translated, 2,
            "the witnessed SYN plus the data segment"
        );
    }

    #[test]
    fn egress_diverts_to_primary_with_orig_dest() {
        let mut b = bridge();
        let out = b.on_outbound(server_reply(), 0);
        assert_eq!(out.to_wire.len(), 1);
        let seg = &out.to_wire[0];
        assert_eq!(seg.dst, A_P, "diverted to the primary");
        assert!(verify_segment_checksum(seg.src, seg.dst, &seg.bytes));
        let parsed = TcpSegment::decode(&seg.bytes).unwrap();
        assert_eq!(parsed.orig_dest(), Some((A_C, 51000)));
        assert_eq!(parsed.payload, Bytes::from_static(b"200 OK"));
        assert_eq!(b.stats.egress_diverted, 1);
    }

    #[test]
    fn non_failover_traffic_passes_untouched() {
        let mut b = bridge();
        // Port 9999 is not designated.
        let seg = TcpSegment::builder(1234, 9999).seq(1).build();
        let raw = AddressedSegment::new(A_C, A_P, seg.encode(A_C, A_P).to_vec());
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw]);
        let seg2 = TcpSegment::builder(9999, 1234).seq(1).build();
        let raw2 = AddressedSegment::new(A_S, A_C, seg2.encode(A_S, A_C).to_vec());
        let out2 = b.on_outbound(raw2.clone(), 0);
        assert_eq!(out2.to_wire, vec![raw2]);
    }

    #[test]
    fn traffic_to_other_hosts_untouched() {
        let mut b = bridge();
        // Addressed to a third host, snooped promiscuously.
        let seg = TcpSegment::builder(51000, 80).seq(1).build();
        let other = Ipv4Addr::new(10, 0, 0, 50);
        let raw = AddressedSegment::new(A_C, other, seg.encode(A_C, other).to_vec());
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw], "dst != a_p is ignored");
    }

    #[test]
    fn holding_drops_client_bound_egress() {
        let mut b = bridge();
        b.prepare_takeover();
        assert_eq!(b.mode(), SecondaryMode::Holding);
        let out = b.on_outbound(server_reply(), 0);
        assert!(out.to_wire.is_empty());
        assert_eq!(b.stats.held_dropped, 1);
        // Ingress still translated while promiscuous mode lives (§5:
        // "can receive data from the client until promiscuous receive
        // mode … is disabled").
        let inp = b.on_inbound(client_segment(), 0);
        assert_eq!(inp.to_tcp[0].dst, A_S);
    }

    #[test]
    fn disabled_bridge_is_transparent() {
        let mut b = bridge();
        b.prepare_takeover();
        b.complete_takeover();
        assert_eq!(b.mode(), SecondaryMode::Disabled);
        let raw = client_segment();
        let out = b.on_inbound(raw.clone(), 0);
        assert_eq!(out.to_tcp, vec![raw], "a_p→a_s translation disabled");
        let reply = server_reply();
        let out2 = b.on_outbound(reply.clone(), 0);
        assert_eq!(out2.to_wire, vec![reply], "a_c→a_p translation disabled");
    }

    #[test]
    fn socket_option_designation() {
        let mut b = SecondaryBridge::new(A_P, A_S, FailoverConfig::new());
        // Not designated yet.
        let out = b.on_inbound(client_segment(), 0);
        assert_eq!(out.to_tcp[0].dst, A_P);
        // Designate via the tuple rule (as the stack would).
        b.designate(FailoverRule::Tuple(tcpfo_tcp::types::FourTuple::new(
            tcpfo_tcp::types::SocketAddr::new(A_S, 80),
            tcpfo_tcp::types::SocketAddr::new(A_C, 51000),
        )));
        // Witness the SYN, then data is claimed.
        let syn = TcpSegment::builder(51000, 80)
            .seq(99)
            .flags(TcpFlags::SYN)
            .build();
        let _ = b.on_inbound(
            AddressedSegment::new(A_C, A_P, syn.encode(A_C, A_P).to_vec()),
            0,
        );
        let out2 = b.on_inbound(client_segment(), 0);
        assert_eq!(out2.to_tcp[0].dst, A_S);
    }

    #[test]
    fn unwitnessed_connection_is_not_claimed() {
        // A freshly restarted secondary must not claim (and RST) a
        // connection established before it booted: the §8 gate drops
        // the segment — never translate, never deliver to the stack.
        let mut b = SecondaryBridge::new(A_P, A_S, FailoverConfig::from_ports([80]));
        let raw = client_segment(); // data, no SYN ever seen
        let out = b.on_inbound(raw, 0);
        assert!(out.to_tcp.is_empty(), "must drop, not deliver");
        assert_eq!(b.stats.unwitnessed_dropped, 1);
        assert_eq!(b.stats.ingress_translated, 0);
    }

    #[test]
    fn round_trip_restores_original_bytes() {
        // divert then strip must reproduce the original segment — the
        // primary bridge relies on this for payload matching.
        let mut b = bridge();
        let original = server_reply();
        let out = b.on_outbound(original.clone(), 0);
        let diverted = &out.to_wire[0];
        let mut p = SegmentPatcher::new(diverted.bytes.clone(), diverted.src, diverted.dst);
        let stripped = p.strip_orig_dest_option();
        p.set_pseudo_dst(A_C);
        let (bytes, src, dst) = p.finish();
        assert_eq!(stripped, Some((A_C, 51000)));
        assert_eq!((src, dst), (A_S, A_C));
        assert_eq!(bytes, original.bytes);
    }
}
