//! Integration: the fault-free datapath of §3 — client traffic snooped
//! by the secondary, replica output matched and merged by the primary
//! bridge, a single coherent stream delivered to the client.

use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

#[test]
fn client_to_server_stream_is_acked_by_both() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), 100_000)));
    });
    tb.run_for(SimDuration::from_secs(5));

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "client transfer did not complete");
    // Both replicas consumed the whole stream.
    let p_received = tb
        .sim
        .with::<Host, _>(tb.replicas[0], |h, _| h.app_mut::<SinkServer>(0).received);
    let s_received = tb
        .sim
        .with::<Host, _>(tb.replicas[1], |h, _| h.app_mut::<SinkServer>(0).received);
    assert_eq!(p_received, 100_000, "primary saw the full stream");
    assert_eq!(s_received, 100_000, "secondary snooped the full stream");
    // The secondary's acks were diverted to the primary.
    let sstats = tb.secondary_stats(1);
    assert!(sstats.ingress_translated > 0);
    assert!(sstats.egress_diverted > 0);
}

#[test]
fn server_to_client_stream_is_merged() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 100000\n".to_vec(),
            100_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(5));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "reply incomplete: {} bytes", c.received_len());
        assert_eq!(c.mismatches, 0, "merged stream corrupted");
    });
    let pstats = tb.primary_stats(0);
    assert!(pstats.merged_bytes >= 100_000, "stats: {pstats:?}");
    assert_eq!(pstats.mismatched_bytes, 0, "replicas diverged");
    // No stack ever saw a bad checksum (validates every incremental
    // checksum patch on the path).
    for node in [tb.client, tb.replicas[0], tb.replicas[1]] {
        tb.sim.with::<Host, _>(node, |h, _| {
            assert_eq!(h.stack().checksum_drops, 0, "checksum drops on {}", h.ip());
        });
    }
}

#[test]
fn store_session_via_replicated_server() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| StoreServer::new(80));
    let script: Vec<String> = vec![
        "BROWSE widget".into(),
        "BUY widget 2".into(),
        "BROWSE widget".into(),
        "BUY gadget 1".into(),
        "QUIT".into(),
    ];
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(server_addr(80), script)));
    });
    tb.run_for(SimDuration::from_secs(5));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(c.is_done(), "store session incomplete: {:?}", c.replies);
        assert_eq!(c.mismatches, 0, "replies: {:?}", c.replies);
    });
    // Both replicas executed every command.
    for node in [tb.replicas[0], tb.replicas[1]] {
        tb.sim.with::<Host, _>(node, |h, _| {
            assert_eq!(h.app_mut::<StoreServer>(0).commands, 5);
        });
    }
}
