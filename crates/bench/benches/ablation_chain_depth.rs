//! E10 (extension) — cost of replication degree: connection setup and
//! download throughput as the daisy chain grows (§1's "higher degrees
//! of replication"). Every added link adds one more divert-and-merge
//! hop on the shared segment.

use tcpfo_apps::driver::{duration_stats, ConnectProbeClient, RequestReplyClient};
use tcpfo_apps::stream::{SinkServer, SourceServer};
use tcpfo_bench::{
    header, kbps, measure_conn_setup, measure_recv_rate, paper_testbed, row, us, Mode,
};
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

/// The calibrated failover testbed (`paper_testbed`) at depth
/// `replicas`.
fn chain(replicas: usize, seed: u64) -> Testbed {
    Testbed::new(TestbedConfig {
        replicas,
        ..paper_testbed(Mode::Failover, seed)
    })
}

fn chain_setup_median(replicas: usize) -> String {
    let mut tb = chain(replicas, 0xC0);
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(ConnectProbeClient::new(
            SocketAddr::new(addrs::A_P, 80),
            30,
            SimDuration::from_millis(5),
        )));
    });
    tb.run_for(SimDuration::from_secs(30));
    let samples = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<ConnectProbeClient>(0).samples.clone()
    });
    us(duration_stats(&samples).median)
}

fn chain_recv_rate(replicas: usize) -> String {
    let total = 5_000_000u64;
    let mut tb = chain(replicas, 0xC1);
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
        assert!(c.is_done(), "chain download stalled");
        assert_eq!(c.mismatches, 0);
        kbps(total as f64 / 1000.0 / c.transfer_time().unwrap().as_secs_f64())
    })
}

fn main() {
    println!("\n## E10: replication degree (daisy chain) — setup time & receive rate\n");
    header(&["replicas", "conn setup (median)", "receive rate"]);
    // Degree 1 = the standard-TCP baseline, degree 2 = the paper's pair.
    let std_setup = measure_conn_setup(Mode::Standard, 30, 0xC2);
    row(&[
        "1 (standard TCP)".into(),
        us(std_setup.median),
        kbps(measure_recv_rate(Mode::Standard, 5_000_000, 0xC2)),
    ]);
    let fo_setup = measure_conn_setup(Mode::Failover, 30, 0xC3);
    row(&[
        "2 (paper)".into(),
        us(fo_setup.median),
        kbps(measure_recv_rate(Mode::Failover, 5_000_000, 0xC3)),
    ]);
    for n in [3usize, 4, 5] {
        row(&[
            format!("{n} (chain)"),
            chain_setup_median(n),
            chain_recv_rate(n),
        ]);
    }
    println!();
}
