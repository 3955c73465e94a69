//! Integration: §8 connection termination and §7 connection
//! designation methods.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::echo::EchoServer;
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::ChainBridge;
use tcp_failover::net::link::LinkParams;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::socket::TcpState;
use tcp_failover::tcp::types::SocketAddr;

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

fn assert_all_quiet(tb: &mut Testbed) {
    // Every socket on every stack reached CLOSED (or was reaped), and
    // the primary bridge dropped its per-connection state (§8: "deletes
    // all internal data structures that were allocated for the
    // connection").
    let nodes = [tb.client, tb.replicas[0], tb.replicas[1]];
    for node in nodes {
        tb.sim.with::<Host, _>(node, |h, _| {
            for id in h.stack().socket_ids() {
                let s = h.stack().socket(id).unwrap();
                assert!(
                    matches!(s.state, TcpState::Closed | TcpState::TimeWait),
                    "socket {:?} stuck in {} on {}",
                    id,
                    s.state,
                    h.ip()
                );
            }
        });
    }
    let conns = tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .unwrap()
            .conn_count()
    });
    assert_eq!(conns, 0, "bridge kept connection state after close");
}

/// The full four-way close initiated by the client, with bridge state
/// torn down afterwards.
#[test]
fn client_initiated_close_cleans_up() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| StoreServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(
            server_addr(80),
            vec!["BROWSE x".into(), "QUIT".into()],
        )));
    });
    tb.run_for(SimDuration::from_secs(8));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        assert!(h.app_mut::<StoreClient>(0).is_done());
    });
    assert_all_quiet(&mut tb);
    let stats = tb.primary_stats(0);
    assert!(stats.fins_sent >= 1, "merged FIN released: {stats:?}");
    assert_eq!(stats.conns_closed, 1);
}

/// Many sequential connections: bridge state must not leak.
#[test]
fn sequential_connections_do_not_leak_bridge_state() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    for i in 0..10 {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                server_addr(80),
                format!("SEND {}\n", 1000 + i * 100).into_bytes(),
                1000 + i * 100,
            )));
        });
        tb.run_for(SimDuration::from_secs(4));
    }
    for i in 0..10usize {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(i);
            assert!(c.is_done(), "connection {i} incomplete");
            assert_eq!(c.mismatches, 0);
        });
    }
    assert_all_quiet(&mut tb);
    let stats = tb.primary_stats(0);
    assert_eq!(stats.conns_closed, 10);
}

/// Close handshake under loss: FIN/ACK retransmissions cross the
/// bridges (§8's late-FIN re-ACK machinery) and everything still
/// reaches CLOSED.
#[test]
fn close_under_loss_terminates_cleanly() {
    let mut tb = Testbed::new(TestbedConfig {
        client_link: LinkParams::fast_ethernet().with_loss(0.08),
        loss_to_primary: 0.05,
        loss_to_secondary: 0.05,
        seed: 77,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| StoreServer::new(80));
    for _ in 0..5 {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(StoreClient::new(
                server_addr(80),
                vec!["BROWSE a".into(), "BUY a 1".into(), "QUIT".into()],
            )));
        });
        tb.run_for(SimDuration::from_secs(20));
    }
    for i in 0..5usize {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<StoreClient>(i);
            assert!(c.is_done(), "session {i} incomplete: {:?}", c.replies);
            assert_eq!(c.mismatches, 0);
        });
    }
    tb.run_for(SimDuration::from_secs(30)); // let all retransmissions settle
    assert_all_quiet(&mut tb);
}

/// §7 method 1 (socket option): no port set anywhere; the listener's
/// failover flag alone designates connections, propagated from the
/// stack to both bridges.
#[test]
fn socket_option_designation_end_to_end() {
    let mut tb = Testbed::new(TestbedConfig {
        failover_ports: vec![], // no method-2 configuration
        ..TestbedConfig::default()
    });
    tb.install_servers(|| EchoServer::new(4444).with_failover_option());
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let mut c = RequestReplyClient::new(server_addr(4444), b"option-echo".to_vec(), 11);
        c.verify = false; // echo returns the request, not the pattern
        h.add_app(Box::new(c));
    });
    tb.run_for(SimDuration::from_secs(8));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "echo incomplete");
        assert_eq!(c.received_byte(0), b'o');
    });
    // The secondary really participated (designation reached it).
    let sstats = tb.secondary_stats(1);
    assert!(sstats.ingress_translated > 0, "stats: {sstats:?}");
    assert!(sstats.egress_diverted > 0);
    let pstats = tb.primary_stats(0);
    assert!(pstats.merged_bytes >= 11);
}

/// Without any designation, traffic bypasses the bridges entirely and
/// is served by the primary alone (ordinary TCP).
#[test]
fn undesignated_traffic_bypasses_bridges() {
    let mut tb = Testbed::new(TestbedConfig {
        failover_ports: vec![],
        ..TestbedConfig::default()
    });
    tb.install_servers(|| EchoServer::new(5555)); // no failover option
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let mut c = RequestReplyClient::new(server_addr(5555), b"plain".to_vec(), 5);
        c.verify = false;
        h.add_app(Box::new(c));
    });
    tb.run_for(SimDuration::from_secs(8));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        assert!(h.app_mut::<RequestReplyClient>(0).is_done());
    });
    let pstats = tb.primary_stats(0);
    assert_eq!(pstats.merged_segments, 0, "bridge must not touch plain TCP");
    let sstats = tb.secondary_stats(1);
    assert_eq!(sstats.egress_diverted, 0);
}
