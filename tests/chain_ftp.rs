//! Integration: FTP over a three-replica daisy chain — the hardest
//! composition in the repository. Control connections are merged
//! through two links; active-mode data connections are *initiated by
//! all three replicas* (§7.2), merged link by link, and the whole
//! session survives a head failure.

use tcp_failover::apps::ftp::{FtpClient, FtpOp, FtpServer, FTP_CTRL_PORT, FTP_DATA_PORT};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn ftp_chain(replicas: usize, seed: u64) -> Testbed {
    let mut tb = Testbed::new(TestbedConfig {
        replicas,
        seed,
        failover_ports: vec![FTP_CTRL_PORT, FTP_DATA_PORT],
        ..TestbedConfig::default()
    });
    tb.install_servers(FtpServer::new);
    tb
}

fn run_session(tb: &mut Testbed, script: Vec<FtpOp>, secs: u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            script,
        )));
    });
    tb.run_for(SimDuration::from_secs(secs));
}

#[test]
fn ftp_get_and_put_through_three_replicas() {
    let mut tb = ftp_chain(3, 51);
    run_session(&mut tb, vec![FtpOp::Get(60_000), FtpOp::Put(40_000)], 60);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<FtpClient>(0);
        assert!(c.is_done(), "session incomplete: {:?}", c.records);
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.mismatches, 0);
    });
    // Every replica's FTP server performed both transfers.
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        tb.sim.with::<Host, _>(node, |h, _| {
            let s = h.app_mut::<FtpServer>(0);
            assert_eq!(s.transfers, 2, "replica {i}");
            assert_eq!(s.bytes_moved, 40_000, "replica {i} upload bytes");
        });
    }
}

#[test]
fn chain_ftp_survives_head_failure_mid_download() {
    let mut tb = ftp_chain(3, 52);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            vec![FtpOp::Get(3_000_000), FtpOp::Get(800)],
        )));
    });
    tb.run_for(SimDuration::from_millis(400));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(90));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<FtpClient>(0);
        assert!(c.is_done(), "ftp chain session died: {:?}", c.records);
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].bytes, 3_000_000);
        assert_eq!(c.mismatches, 0);
    });
    // The promoted replica holds the VIP.
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
    });
}
