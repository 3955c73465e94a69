//! Integration: the §4 message-loss cases. Each test biases random
//! loss onto one path of the testbed so that the corresponding case
//! fires many times during a transfer, then asserts the client's byte
//! stream is delivered intact and in order.
//!
//! §4's five cases map onto the loss knobs as:
//!
//! 1. primary misses a client segment        → `loss_to_primary`
//! 2. secondary misses a client segment      → `loss_to_secondary`
//! 3. both miss a client segment             → `client_link.loss`
//! 4. secondary's segment dropped by primary → `loss_to_primary`
//! 5. merged segment lost towards the client → `loss_to_router` /
//!    `client_link.loss`

use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::link::LinkParams;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

/// Runs an N-byte download and an N-byte upload through a lossy
/// configuration and checks end-to-end integrity.
fn both_directions_survive(config: TestbedConfig, n: u64, deadline: SimDuration) {
    // Download.
    let mut tb = Testbed::new(config.clone());
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            format!("SEND {n}\n").into_bytes(),
            n,
        )));
    });
    tb.run_for(deadline);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(
            c.is_done(),
            "download stalled at {} of {n} bytes",
            c.received_len()
        );
        assert_eq!(c.mismatches, 0, "download corrupted");
    });
    let pstats = tb.primary_stats(0);
    assert_eq!(pstats.mismatched_bytes, 0);

    // Upload.
    let mut tb = Testbed::new(config);
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), n)));
    });
    tb.run_for(deadline);
    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "upload stalled");
    for node in [tb.replicas[0], tb.replicas[1]] {
        let got = tb
            .sim
            .with::<Host, _>(node, |h, _| h.app_mut::<SinkServer>(0).received);
        assert_eq!(got, n, "replica missed bytes");
    }
}

/// §4 cases 1 & 4: segments towards the primary are lost — both client
/// segments the primary must not ack alone, and diverted secondary
/// segments whose absence blocks the bridge until retransmission.
#[test]
fn loss_towards_primary() {
    both_directions_survive(
        TestbedConfig {
            loss_to_primary: 0.05,
            seed: 7,
            ..TestbedConfig::default()
        },
        300_000,
        SimDuration::from_secs(60),
    );
}

/// §4 case 2: the secondary misses client segments the primary got.
/// The primary's ack = min(ack_P, ack_S) stays behind until the client
/// retransmits, so no byte is acknowledged that S does not have.
#[test]
fn loss_towards_secondary() {
    both_directions_survive(
        TestbedConfig {
            loss_to_secondary: 0.05,
            seed: 8,
            ..TestbedConfig::default()
        },
        300_000,
        SimDuration::from_secs(60),
    );
}

/// §4 case 3: client segments lost before reaching either server, and
/// case 5: merged segments lost on the way to the client.
#[test]
fn loss_on_client_path() {
    both_directions_survive(
        TestbedConfig {
            client_link: LinkParams::fast_ethernet().with_loss(0.05),
            seed: 9,
            ..TestbedConfig::default()
        },
        300_000,
        SimDuration::from_secs(60),
    );
}

/// §4 case 5 via the server-side egress: merged segments dropped
/// between the shared segment and the router.
#[test]
fn loss_towards_router() {
    both_directions_survive(
        TestbedConfig {
            loss_to_router: 0.05,
            seed: 10,
            ..TestbedConfig::default()
        },
        300_000,
        SimDuration::from_secs(60),
    );
}

/// Everything at once: loss on every path simultaneously.
#[test]
fn loss_everywhere_soak() {
    both_directions_survive(
        TestbedConfig {
            client_link: LinkParams::fast_ethernet().with_loss(0.02),
            attachment_loss: 0.01,
            loss_to_primary: 0.02,
            loss_to_secondary: 0.02,
            loss_to_router: 0.02,
            seed: 11,
            ..TestbedConfig::default()
        },
        150_000,
        SimDuration::from_secs(120),
    );
}

/// The §4 "bridge sends k twice" behaviour: with loss towards the
/// servers, the bridge forwards retransmissions immediately — the
/// retransmission counter must be visibly non-zero while the stream
/// stays correct.
#[test]
fn bridge_forwards_retransmissions() {
    let mut tb = Testbed::new(TestbedConfig {
        client_link: LinkParams::fast_ethernet().with_loss(0.05),
        seed: 12,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 300000\n".to_vec(),
            300_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(60));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done());
        assert_eq!(c.mismatches, 0);
    });
    let stats = tb.primary_stats(0);
    assert!(
        stats.retransmissions_forwarded > 0,
        "expected forwarded retransmissions, stats: {stats:?}"
    );
}
