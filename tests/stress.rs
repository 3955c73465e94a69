//! Stress: the paper's §4 and §5 machinery exercised *together* —
//! failover in the middle of a lossy transfer, and repeated randomised
//! failover points. Every run must deliver a byte-exact stream.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::link::LinkParams;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn lossy_download_with_kill(seed: u64, kill_at_ms: u64, kill_primary: bool) {
    let total = 800_000u64;
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        client_link: LinkParams::fast_ethernet().with_loss(0.02),
        loss_to_primary: 0.01,
        loss_to_secondary: 0.01,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb.run_for(SimDuration::from_millis(kill_at_ms));
    if kill_primary {
        tb.kill_replica(0);
    } else {
        tb.kill_replica(1);
    }
    tb.run_for(SimDuration::from_secs(120));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(
            c.is_done(),
            "seed {seed} kill@{kill_at_ms}ms primary={kill_primary}: stalled at {} of {total}",
            c.received_len()
        );
        assert_eq!(
            c.mismatches, 0,
            "seed {seed}: corrupted across lossy failover"
        );
    });
}

#[test]
fn primary_failure_under_loss_various_points() {
    for (i, kill_at) in [30u64, 80, 150, 400].into_iter().enumerate() {
        lossy_download_with_kill(100 + i as u64, kill_at, true);
    }
}

#[test]
fn secondary_failure_under_loss_various_points() {
    for (i, kill_at) in [30u64, 80, 150, 400].into_iter().enumerate() {
        lossy_download_with_kill(200 + i as u64, kill_at, false);
    }
}

/// The kill can land during the handshake itself (§7's "failover can
/// occur at any time during the lifetime of a connection" includes its
/// very beginning).
#[test]
fn primary_failure_during_handshake() {
    for seed in [300u64, 301, 302] {
        let mut tb = Testbed::new(TestbedConfig {
            seed,
            ..TestbedConfig::default()
        });
        tb.install_servers(|| SourceServer::new(80));
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                b"SEND 50000\n".to_vec(),
                50_000,
            )));
        });
        // Kill within the first millisecond: the SYN exchange is in
        // flight, the merged SYN+ACK may or may not have left.
        tb.run_for(SimDuration::from_micros(300 + seed * 37));
        tb.kill_replica(0);
        tb.run_for(SimDuration::from_secs(60));
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(0);
            assert!(
                c.is_done(),
                "seed {seed}: handshake-time failover stalled at {}",
                c.received_len()
            );
            assert_eq!(c.mismatches, 0);
        });
    }
}

/// Reordering: heavy per-frame jitter on the client path scrambles
/// segment arrival order in both directions; TCP's reassembly and the
/// bridge's queues must still deliver a byte-exact stream.
#[test]
fn reordering_on_client_path_survives() {
    for seed in [400u64, 401] {
        let total = 500_000u64;
        let mut tb = Testbed::new(TestbedConfig {
            seed,
            client_link: LinkParams::fast_ethernet().with_jitter(SimDuration::from_micros(400)),
            ..TestbedConfig::default()
        });
        tb.install_servers(|| SourceServer::new(80));
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.add_app(Box::new(RequestReplyClient::new(
                SocketAddr::new(addrs::A_P, 80),
                format!("SEND {total}\n").into_bytes(),
                total,
            )));
        });
        tb.run_for(SimDuration::from_secs(60));
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            let c = h.app_mut::<RequestReplyClient>(0);
            assert!(c.is_done(), "seed {seed}: stalled at {}", c.received_len());
            assert_eq!(
                c.mismatches, 0,
                "seed {seed}: reordering corrupted the stream"
            );
        });
        let stats = tb.primary_stats(0);
        assert_eq!(stats.mismatched_bytes, 0);
    }
}

/// Reordering + loss + a failover, all at once.
#[test]
fn reordering_loss_and_failover_combined() {
    let total = 700_000u64;
    let mut tb = Testbed::new(TestbedConfig {
        seed: 410,
        client_link: LinkParams::fast_ethernet()
            .with_jitter(SimDuration::from_micros(300))
            .with_loss(0.01),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb.run_for(SimDuration::from_millis(100));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(120));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0);
    });
}
