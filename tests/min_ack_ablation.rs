//! Negative ablation: requirement 2 of §2 is load-bearing.
//!
//! "The primary server must not acknowledge a client's TCP segment
//! until it has received an acknowledgment of that segment from the
//! secondary server." This test breaks exactly that rule (the bridge
//! acknowledges with the primary's own ack instead of the minimum),
//! drops some client segments on their way to the secondary, and kills
//! the primary: the client has already discarded acknowledged bytes
//! from its retransmission buffer, the secondary is missing them, and
//! the upload can never complete. The same scenario with the rule
//! intact completes byte-exactly.

use tcp_failover::apps::driver::BulkSendClient;
use tcp_failover::apps::stream::SinkServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::ChainBridge;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

/// Runs an upload with loss towards the secondary and a primary
/// failure; returns (client finished, bytes the surviving secondary
/// actually received).
fn run(unsafe_ack: bool, seed: u64) -> (bool, u64) {
    let total = 2_000_000u64;
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        loss_to_secondary: 0.05,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SinkServer::new(80));
    if unsafe_ack {
        tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
            let bridge = h
                .filter_mut()
                .as_any_mut()
                .downcast_mut::<ChainBridge>()
                .unwrap()
                .inner_mut();
            bridge.unsafe_ack_without_min = true;
            // The whole point of this run is to violate the §3.2 min-ack
            // invariant; detach the auditor (if `TCPFO_AUDIT=1` attached
            // one) so it doesn't — correctly — abort the ablation.
            bridge.observers_mut().audit = None;
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            total,
        )));
    });
    tb.run_for(SimDuration::from_millis(250));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(90));
    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    let s_received = tb
        .sim
        .with::<Host, _>(tb.replicas[1], |h, _| h.app_mut::<SinkServer>(0).received);
    (done, s_received)
}

#[test]
fn with_min_ack_discipline_the_upload_survives() {
    let (done, s_received) = run(false, 600);
    assert!(done, "correct bridge must deliver");
    assert_eq!(s_received, 2_000_000, "no acknowledged byte may be missing");
}

#[test]
fn without_min_ack_discipline_acknowledged_bytes_are_lost() {
    let (done, s_received) = run(true, 600);
    // The client was told its data arrived; the surviving secondary
    // never got some of it and the client cannot retransmit what it
    // already discarded: the transfer is stuck and incomplete.
    assert!(
        !done || s_received < 2_000_000,
        "breaking requirement 2 must lose data (done={done}, secondary has {s_received})"
    );
    assert!(
        s_received < 2_000_000,
        "secondary should be missing acknowledged bytes, has {s_received}"
    );
}
