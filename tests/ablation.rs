//! Integration: the shared-segment requirement (ablation E8 in
//! DESIGN.md). The paper's secondary snoops promiscuously, which only
//! works on a shared medium — on a learning switch, unicast client
//! frames never reach the secondary, and a failover connection cannot
//! even be established (the primary bridge holds its SYN+ACK waiting
//! for a secondary that hears nothing).

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, SegmentKind, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn attempt_transfer(segment: SegmentKind, replicated: bool) -> (bool, u64) {
    let mut tb = Testbed::new(TestbedConfig {
        segment,
        replicas: if replicated { 2 } else { 1 },
        detector: tcp_failover::core::DetectorConfig {
            // Keep heartbeats healthy; this test is about the datapath.
            ..Default::default()
        },
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
    tb.run_for(SimDuration::from_secs(10));
    let done = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).is_done()
    });
    let snooped = if replicated {
        tb.secondary_stats(1).ingress_translated
    } else {
        0
    };
    (done, snooped)
}

#[test]
fn failover_works_on_hub() {
    let (done, snooped) = attempt_transfer(SegmentKind::Hub, true);
    assert!(done);
    assert!(snooped > 0, "secondary must snoop on a hub");
}

#[test]
fn failover_breaks_on_switch() {
    // The paper's design assumption, demonstrated by its absence: on a
    // switched segment the secondary never sees the client SYN, so the
    // SYN+ACK merge cannot happen.
    let (done, snooped) = attempt_transfer(SegmentKind::Switch, true);
    assert!(!done, "replicated transfer must stall on a switch");
    // At most the first frames flooded before MAC learning reach the
    // secondary; the sustained unicast stream is invisible to it.
    assert!(
        snooped <= 2,
        "secondary snooped {snooped} frames on a switch"
    );
}

#[test]
fn standard_tcp_works_on_switch() {
    // The stall above is not the switch's fault: plain TCP is fine.
    let (done, _) = attempt_transfer(SegmentKind::Switch, false);
    assert!(done);
}

#[test]
fn standard_tcp_works_on_hub() {
    let (done, _) = attempt_transfer(SegmentKind::Hub, false);
    assert!(done);
}
