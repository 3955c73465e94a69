//! Integration: every bridge either testbed builds — or rebuilds —
//! carries the observers its config asks for. A revived secondary, a
//! reprovisioned standby and a tail converted into a middle link come
//! from the same replica builder as the founding replicas, so they
//! must match them observer for observer.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::chain_testbed::{ChainConfig, ChainTestbed};
use tcp_failover::core::testbed::{Testbed, TestbedConfig};
use tcp_failover::net::sim::{NodeId, Simulator};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;

/// Which of audit, latency, health and trace `node`'s bridge carries.
fn carried(sim: &mut Simulator, node: NodeId) -> [bool; 4] {
    sim.with::<Host, _>(node, |h, _| {
        let o = h.filter_mut().observers().expect("node runs a bridge");
        [
            o.audit().is_some(),
            o.latency().is_some(),
            o.health().is_some(),
            o.trace().is_some(),
        ]
    })
}

#[test]
fn observers_survive_every_rebuild() {
    for on in [true, false] {
        let all = [on; 4];
        // The tail never carries a span sampler.
        let tail = [on, on, on, false];

        let mut tb = Testbed::new(TestbedConfig {
            audit: Some(on),
            latency: Some(on),
            health: Some(on),
            span_trace: Some(on),
            ..TestbedConfig::default()
        });
        let s = tb.secondary.unwrap();
        assert_eq!(carried(&mut tb.sim, tb.primary), all, "pair P");
        assert_eq!(carried(&mut tb.sim, s), tail, "pair S");
        tb.run_for(SimDuration::from_millis(50));
        tb.kill_secondary();
        tb.run_for(SimDuration::from_millis(300));
        tb.revive_secondary();
        assert_eq!(carried(&mut tb.sim, s), tail, "revived S");

        let mut tb = ChainTestbed::new(ChainConfig {
            replicas: 3,
            audit: Some(on),
            latency: Some(on),
            health: Some(on),
            span_trace: Some(on),
            ..ChainConfig::default()
        });
        tb.install_servers(|| SourceServer::new(80));
        tb.run_for(SimDuration::from_millis(50));
        tb.kill_replica(0);
        tb.run_for(SimDuration::from_millis(300));
        let old_tail = tb.replicas[tb.tail_index()];
        let standby = chain_ops::reprovision_tail(&mut tb);
        let standby = tb.replicas[standby];
        assert_eq!(carried(&mut tb.sim, standby), tail, "chain standby");
        assert_eq!(carried(&mut tb.sim, old_tail), all, "converted middle");
    }
}
