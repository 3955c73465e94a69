//! Golden determinism: exact sim-nanosecond figures for three fixed
//! scenarios. The simulator is deterministic, so a refactor that is
//! meant to leave behaviour alone must reproduce every figure here
//! bit for bit; any drift (event order, timer phase, a changed link
//! parameter) fails the test. Re-record only for a change that is
//! *meant* to alter simulated behaviour, and say so in the change log.

use tcp_failover::apps::driver::{ConnectProbeClient, RequestReplyClient};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::MttrBreakdown;

/// A testbed of `replicas` serving downloads, with a client asking for
/// `total` bytes.
fn download(seed: u64, replicas: usize, total: u64) -> Testbed {
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        replicas,
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
    tb
}

/// `(request sent, last byte received)` in sim ns, after checking the
/// stream arrived whole.
fn transfer_ns(tb: &mut Testbed) -> (u64, u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "transfer incomplete");
        assert_eq!(c.mismatches, 0, "stream corrupted");
        (
            c.t_request.expect("sent").as_nanos(),
            c.t_done.expect("done").as_nanos(),
        )
    })
}

#[test]
fn pair_download_completes_at_the_recorded_instant() {
    let mut tb = download(0xD1, 2, 1_000_000);
    tb.run_for(SimDuration::from_secs(5));
    assert_eq!(transfer_ns(&mut tb), (397_812, 182_838_046));
    assert_eq!(tb.sim.events_processed(), 26_225);
}

#[test]
fn pair_connection_setups_take_the_recorded_times() {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 0x5C,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(ConnectProbeClient::new(
            SocketAddr::new(addrs::A_P, 80),
            8,
            SimDuration::from_millis(5),
        )));
    });
    tb.run_for(SimDuration::from_secs(1));
    let samples: Vec<u64> = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let probe = h.app_mut::<ConnectProbeClient>(0);
        probe.samples.iter().map(|d| d.as_nanos()).collect()
    });
    assert_eq!(
        samples,
        [397_812, 393_152, 393_152, 393_152, 393_152, 397_812, 393_152, 393_152]
    );
    assert_eq!(tb.sim.events_processed(), 3_855);
}

#[test]
fn depth2_head_kill_recovers_with_the_recorded_phases() {
    let mut tb = download(0xC2, 2, 4_000_000);
    tb.run_for(SimDuration::from_millis(173));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(5));
    assert_eq!(transfer_ns(&mut tb), (397_812, 563_667_000));
    assert_eq!(
        tb.hubs[1].timeline.mttr(),
        Some(MttrBreakdown {
            detection_ns: 53_000_000,
            hold_ns: 0,
            translation_ns: 0,
            arp_ns: 0,
            first_byte_ns: 0,
            total_ns: 53_000_000,
        })
    );
    assert_eq!(tb.sim.events_processed(), 32_901);
}
