//! Integration: partial reintegration (extension — the paper leaves
//! reintegration out of scope, §1). After the secondary dies and the
//! primary degrades (§6), a freshly rebooted secondary announces
//! itself via heartbeats; from then on *new* connections replicate
//! and can fail over again, while connections from the degraded epoch
//! finish on their Δ-adjusted pass-through tombstones.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainBridge, ChainController, PrimaryMode, SecondaryBridge};
use tcp_failover::net::time::SimDuration;
use tcp_failover::net::trace::TraceKind;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn add_download(tb: &mut Testbed, bytes: u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {bytes}\n").into_bytes(),
            bytes,
        )));
    });
}

fn assert_done(tb: &mut Testbed, app: usize) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(app);
        assert!(c.is_done(), "app {app} stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0, "app {app} corrupted");
    });
}

fn primary_mode(tb: &mut Testbed) -> PrimaryMode {
    tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .unwrap()
            .inner()
            .mode()
    })
}

#[test]
fn secondary_rejoins_and_new_connections_replicate() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));

    // Connection A starts replicated, then the secondary dies mid-way.
    add_download(&mut tb, 2_000_000); // app 0
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::SecondaryFailed);

    // Connection B is born during the degraded epoch.
    add_download(&mut tb, 600_000); // app 1

    // The secondary reboots; the primary reintegrates on heartbeat.
    tb.run_for(SimDuration::from_millis(200));
    tb.revive_replica(1);
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal, "reintegrated");
    tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        assert_eq!(h.controller_mut::<ChainController>().rejoins, 1);
    });

    // Connection C is born after reintegration: replicated again.
    add_download(&mut tb, 800_000); // app 2
    tb.run_for(SimDuration::from_secs(20));
    for app in 0..3 {
        assert_done(&mut tb, app);
    }
    // The revived secondary actually served connection C.
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        let srv = h.app_mut::<SourceServer>(0);
        assert_eq!(srv.served, 800_000, "revived secondary served C only");
    });
    let pstats = tb.primary_stats(0);
    assert_eq!(pstats.mismatched_bytes, 0);
}

#[test]
fn post_rejoin_connections_survive_primary_failure() {
    // The full circle: S dies, rejoins, then P dies — the connection
    // opened after the rejoin fails over to the revived secondary.
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
    tb.revive_replica(1);
    let s = tb.replicas[1];
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_millis(200));
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal);

    add_download(&mut tb, 2_000_000);
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(25));
    assert_done(&mut tb, 0);
    tb.sim.with::<Host, _>(s, |h, _| {
        assert!(
            h.net_mut().local_ips.contains(&addrs::A_P),
            "revived secondary took over after the primary died"
        );
    });
}

#[test]
fn degraded_epoch_connection_unaffected_by_rejoin() {
    // A connection born while degraded keeps working across the
    // rejoin, served by the primary alone (zero-Δ tombstone).
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
    // Born degraded, long enough to straddle the rejoin.
    add_download(&mut tb, 3_000_000);
    tb.run_for(SimDuration::from_millis(150));
    tb.revive_replica(1);
    let s = tb.replicas[1];
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(SourceServer::new(80)));
    });
    tb.run_for(SimDuration::from_secs(20));
    assert_done(&mut tb, 0);
    // The revived secondary never participated in that connection —
    // and critically, never reset it.
    tb.sim.with::<Host, _>(s, |h, _| {
        assert_eq!(h.stack().rst_sent, 0, "revived secondary RST a live conn");
        assert_eq!(h.app_mut::<SourceServer>(0).served, 0);
    });
}

#[test]
fn revived_secondary_keeps_flow_table_config() {
    // A revived secondary is built by the same code as the original,
    // so explicit flow-table knobs survive the reboot.
    let mut tb = Testbed::new(TestbedConfig {
        flow_shards: Some(4),
        ..TestbedConfig::default()
    });
    let s = tb.replicas[1];
    let shards = |tb: &mut Testbed| {
        tb.sim.with::<Host, _>(s, |h, _| {
            h.filter_mut()
                .as_any_mut()
                .downcast_mut::<SecondaryBridge>()
                .unwrap()
                .flow_shard_count()
        })
    };
    assert_eq!(shards(&mut tb), 4);
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
    tb.revive_replica(1);
    tb.run_for(SimDuration::from_millis(50));
    assert_eq!(shards(&mut tb), 4, "revived secondary lost flow_shards");
    assert_eq!(primary_mode(&mut tb), PrimaryMode::Normal, "reintegrated");
}

#[test]
fn revived_secondary_arp_cache_is_primed_like_the_original() {
    // §9: every ARP cache on the testbed is primed. A revived secondary
    // is built like the original, so it reaches the back-end T without
    // asking who has its address.
    const BACKEND_PORT: u16 = 5432;
    let mut tb = Testbed::new(TestbedConfig {
        with_backend: true,
        ..TestbedConfig::default()
    });
    let t = tb.backend.expect("backend host");
    tb.sim.with::<Host, _>(t, |h, _| {
        h.add_app(Box::new(SourceServer::new(BACKEND_PORT)));
    });
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(300));
    tb.revive_replica(1);
    let s = tb.replicas[1];
    tb.sim.set_trace_enabled(true);
    tb.sim.with::<Host, _>(s, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_T, BACKEND_PORT),
            b"SEND 10000\n".to_vec(),
            10_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(1));
    tb.sim.with::<Host, _>(s, |h, _| {
        assert!(
            h.app_mut::<RequestReplyClient>(0).is_done(),
            "query to T stalled"
        );
    });
    let arp_requests = tb
        .sim
        .trace_tail(usize::MAX)
        .iter()
        .filter(|e| e.node == s && matches!(e.kind, TraceKind::Tx { .. }))
        .filter(|e| {
            e.frame
                .as_ref()
                .is_some_and(|f| f.get(12..14) == Some(&[0x08, 0x06]))
        })
        .count();
    assert_eq!(arp_requests, 0, "revived secondary had to ARP for T");
}
