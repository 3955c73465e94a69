//! §3.2's window rule, observed end-to-end: "Choosing the smaller of
//! the two window sizes adapts the client's send rate to the slower of
//! the two servers." A slow-reading secondary must throttle the whole
//! upload; a slow-reading *client-side* of the same size on a single
//! server gives the baseline.

use tcp_failover::apps::driver::BulkSendClient;
use tcp_failover::apps::stream::SinkServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

/// Uploads `total` bytes; the secondary reads at most `s_budget` bytes
/// per poll. Returns the simulated completion time.
fn upload_time(s_budget: usize, total: u64, seed: u64) -> SimTime {
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        ..TestbedConfig::default()
    });
    tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        h.add_app(Box::new(SinkServer::new(80)));
    });
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        h.add_app(Box::new(SinkServer::new(80).with_read_budget(s_budget)));
    });
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            total,
        )));
    });
    tb.run_for(SimDuration::from_secs(120));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<BulkSendClient>(0);
        assert!(c.is_done(), "budget {s_budget}: upload incomplete");
        c.t_acked.expect("acked")
    })
}

#[test]
fn slow_secondary_throttles_the_client() {
    let total = 400_000;
    let fast = upload_time(usize::MAX, total, 70);
    // The secondary drains only 128 bytes per poll (apps poll once per
    // host event): far below the arrival rate, so its receive window
    // collapses and min(win_P, win_S) must pace the client down.
    let slow = upload_time(128, total, 70);
    assert!(
        slow.as_nanos() > fast.as_nanos() * 2,
        "slow secondary must throttle the transfer: fast={fast} slow={slow}"
    );
}

#[test]
fn equal_speed_replicas_cost_nothing_extra() {
    // Sanity companion: a finite but ample budget behaves like the
    // eager reader.
    let total = 400_000;
    let fast = upload_time(usize::MAX, total, 71);
    let ample = upload_time(1 << 20, total, 71);
    let ratio = ample.as_nanos() as f64 / fast.as_nanos() as f64;
    assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
}
