//! The one replica builder behind the testbed.
//!
//! Every replica host of [`crate::testbed::Testbed`] comes from
//! [`ReplicaBuilder::replica`]: every founding member (the pair's P and
//! S included), every standby and every revived replica. A rebuilt
//! replica is thus configured exactly like a founding one. Server-segment host `i` sits
//! at `10.0.0.(2 + i)`; its ISN seed derives from `seed` and `i`.

use crate::chain::{ChainBridge, ChainController};
use crate::designation::FailoverConfig;
use crate::detector::DetectorConfig;
use crate::flow::FlowTableConfig;
use crate::secondary::SecondaryBridge;
use crate::testbed::{addrs, macs, server_addr, server_mac};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::config::TcpConfig;
use tcpfo_tcp::filter::SegmentFilter;
use tcpfo_tcp::host::{CpuModel, Host, HostConfig};
use tcpfo_telemetry::{ObserverFlags, Observers, Telemetry};
use tcpfo_wire::ipv4::Ipv4Addr;

/// What every replica of one testbed shares.
#[derive(Debug, Clone)]
pub struct ReplicaBuilder {
    /// Simulation seed; each host's ISN seed derives from it.
    pub seed: u64,
    /// Base TCP configuration.
    pub tcp: TcpConfig,
    /// Server-host CPU model.
    pub cpu: CpuModel,
    /// Host stack tick.
    pub tick: SimDuration,
    /// Failover port set (§7 method 2), identical on every replica.
    pub failover_ports: Vec<u16>,
    /// Fault-detector parameters.
    pub detector: DetectorConfig,
    /// The observers every bridge carries, resolved once per testbed.
    pub observers: ObserverFlags,
    /// Flow-table override for every bridge (`None`: the environment
    /// defaults).
    pub flow: Option<FlowTableConfig>,
}

impl ReplicaBuilder {
    /// Server-segment host `i` without a bridge: the testbed's CPU
    /// model, tick and TCP settings, and an ARP cache primed (§9) with
    /// the gateway, the back-end T and every member of `chain` but
    /// itself.
    pub fn server_host(&self, i: usize, label: &str, chain: &[Ipv4Addr], hub: &Telemetry) -> Host {
        let own = server_addr(i);
        let tcp = self
            .tcp
            .clone()
            .with_isn_seed(self.seed ^ ((i as u64 + 2) << 32));
        let mut cfg = HostConfig::new(label, server_mac(own), own)
            .with_gateway(addrs::GW_SERVER)
            .with_tcp(tcp);
        cfg.cpu = self.cpu;
        cfg.tick = self.tick;
        let mut host = Host::new(cfg);
        host.set_telemetry(hub);
        let net = host.net_mut();
        net.prime_arp(addrs::GW_SERVER, macs::ROUTER_SERVER);
        for &a in chain.iter().chain([&addrs::A_T]) {
            if a != own {
                net.prime_arp(a, server_mac(a));
            }
        }
        host
    }

    /// The bridge for the replica at `own`. With a `downstream` it is a
    /// [`ChainBridge`] merging against it, the head when `upstream` is
    /// `None`. Without one it is the tail, a [`SecondaryBridge`]
    /// diverting to `upstream`. It carries the testbed's observers
    /// with the auditor labelled `audit_label`; the tail never gets a
    /// span sampler.
    pub fn bridge(
        &self,
        own: Ipv4Addr,
        upstream: Option<Ipv4Addr>,
        downstream: Option<Ipv4Addr>,
        audit_label: &str,
        hub: &Telemetry,
    ) -> Box<dyn SegmentFilter> {
        let fo = FailoverConfig::from_ports(self.failover_ports.iter().copied());
        let Some(down) = downstream else {
            let mut tail = SecondaryBridge::new(addrs::A_P, own, fo);
            if let Some(up) = upstream {
                tail.set_upstream(up);
            }
            if let Some(fc) = self.flow {
                tail.set_flow_config(fc);
            }
            tail.set_telemetry(hub);
            let flags = ObserverFlags {
                trace: false,
                ..self.observers
            };
            tail.set_observers(Observers::new(flags, audit_label, hub));
            return Box::new(tail);
        };
        let mut link = ChainBridge::new(addrs::A_P, own, upstream, down, fo);
        if let Some(fc) = self.flow {
            link.set_flow_config(fc);
        }
        link.set_telemetry(hub);
        link.set_observers(Observers::new(self.observers, audit_label, hub));
        Box::new(link)
    }

    /// Replica `i` of `chain`: a [`ReplicaBuilder::server_host`]
    /// running the bridge for its position between its nearest living
    /// neighbours (`dead` marks dead members; missing entries are
    /// alive), snooping unless it is the head, with a
    /// [`ChainController`] over the whole chain that already knows the
    /// dead, and the failover ports registered.
    pub fn replica(
        &self,
        chain: &[Ipv4Addr],
        dead: &[bool],
        i: usize,
        label: &str,
        audit_label: &str,
        hub: &Telemetry,
    ) -> Host {
        let alive = |j: &usize| !dead.get(*j).copied().unwrap_or(false);
        let upstream = (0..i).rev().find(alive).map(|j| chain[j]);
        let downstream = (i + 1..chain.len()).find(alive).map(|j| chain[j]);
        let mut host = self.server_host(i, label, chain, hub);
        host.set_filter(self.bridge(chain[i], upstream, downstream, audit_label, hub));
        host.net_mut().promiscuous = upstream.is_some();
        let mut controller = ChainController::new(chain.to_vec(), i, self.detector);
        controller.set_telemetry(hub);
        for (&a, _) in chain.iter().zip(dead).filter(|(_, &d)| d) {
            controller.set_peer_dead(a);
        }
        host.set_controller(Box::new(controller));
        for &p in &self.failover_ports {
            host.stack_mut().add_failover_port(p);
        }
        host
    }
}
