//! Integration: many simultaneous failover connections through one
//! bridge pair — per-connection state isolation, interleaved merges,
//! and failover with a mixed population of connections in different
//! states.

use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::ChainBridge;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

macro_rules! replicate {
    ($tb:expr, $mk:expr) => {{
        let tb: &mut Testbed = $tb;
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.add_app(Box::new($mk));
        });
        let s = tb.secondary.expect("replicated testbed");
        tb.sim.with::<Host, _>(s, |h, _| {
            h.add_app(Box::new($mk));
        });
    }};
}

#[test]
fn ten_concurrent_downloads() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    let sizes: Vec<u64> = (0..10).map(|i| 20_000 + i * 13_000).collect();
    for &n in &sizes {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                format!("SEND {n}\n").into_bytes(),
                n,
            )));
        });
    }
    tb.run_for(SimDuration::from_secs(30));
    for (i, &n) in sizes.iter().enumerate() {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(i);
            assert!(
                c.is_done(),
                "conn {i} stalled at {} of {n}",
                c.received_len()
            );
            assert_eq!(c.mismatches, 0, "conn {i} corrupted");
        });
    }
    let stats = tb.primary_stats();
    assert_eq!(stats.mismatched_bytes, 0);
    assert!(stats.merged_bytes >= sizes.iter().sum::<u64>());
}

#[test]
fn mixed_uploads_and_downloads() {
    let mut tb = Testbed::new(TestbedConfig {
        failover_ports: vec![80, 81],
        ..TestbedConfig::default()
    });
    replicate!(&mut tb, SourceServer::new(80));
    replicate!(&mut tb, SinkServer::new(81));
    for i in 0..4u64 {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                format!("SEND {}\n", 50_000 + i * 10_000).into_bytes(),
                50_000 + i * 10_000,
            )));
            h.add_app(Box::new(BulkSendClient::new(
                SocketAddr::new(addrs::A_P, 81),
                40_000 + i * 10_000,
            )));
        });
    }
    tb.run_for(SimDuration::from_secs(40));
    for i in 0..8usize {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            if i % 2 == 0 {
                let c = h.app_mut::<RequestReplyClient>(i);
                assert!(c.is_done(), "download app {i} stalled");
                assert_eq!(c.mismatches, 0);
            } else {
                assert!(
                    h.app_mut::<BulkSendClient>(i).is_done(),
                    "upload app {i} stalled"
                );
            }
        });
    }
}

#[test]
fn failover_with_mixed_connection_states() {
    // Connections in different phases when the primary dies: one
    // finished, several mid-flight, one opened after the failover.
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    // Finished before the kill.
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 10000\n".to_vec(),
            10_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(100));
    // Mid-flight at the kill.
    for _ in 0..3 {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                b"SEND 1500000\n".to_vec(),
                1_500_000,
            )));
        });
    }
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(2));
    // Opened after the takeover.
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 30000\n".to_vec(),
            30_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(30));
    for i in 0..5usize {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(i);
            assert!(c.is_done(), "app {i} stalled at {}", c.received_len());
            assert_eq!(c.mismatches, 0, "app {i} corrupted");
        });
    }
}

#[test]
fn bridge_state_scales_and_cleans_up() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    for _ in 0..20 {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                b"SEND 5000\n".to_vec(),
                5_000,
            )));
        });
        tb.run_for(SimDuration::from_millis(400));
    }
    tb.run_for(SimDuration::from_secs(10));
    for i in 0..20usize {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            assert!(h.app_mut::<RequestReplyClient>(i).is_done(), "conn {i}");
        });
    }
    let conns = tb.sim.with::<Host, _>(tb.primary, |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .unwrap()
            .conn_count()
    });
    assert_eq!(conns, 0, "bridge leaked state across 20 connections");
    let stats = tb.primary_stats();
    assert_eq!(stats.conns_closed, 20);
}
