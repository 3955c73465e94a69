//! The paper's real-world workload (§9, Fig. 6): FTP over a wide-area
//! network against the replicated server. Control connections are
//! client-initiated (§7.1); active-mode data connections are
//! *server-initiated* from port 20 (§7.2) — both replicas SYN, the
//! primary bridge merges the handshakes. The session survives a
//! primary failure between transfers.
//!
//! Run with: `cargo run --example ftp_wan`

use tcp_failover::apps::ftp::{FtpClient, FtpOp, FtpServer, FTP_CTRL_PORT, FTP_DATA_PORT};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::link::LinkParams;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn main() {
    let cfg = TestbedConfig {
        failover_ports: vec![FTP_CTRL_PORT, FTP_DATA_PORT],
        // A ~22 ms RTT, 2 Mb/s, slightly lossy wide-area path.
        client_link: LinkParams::wan(2_000_000, SimDuration::from_millis(11), 0.002),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::new(cfg);
    let secondary = tb.replicas[1];
    for node in [tb.replicas[0], secondary] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(FtpServer::new()));
        });
    }

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(FtpClient::new(
            SocketAddr::new(addrs::A_P, FTP_CTRL_PORT),
            vec![
                FtpOp::Get(18_200),
                FtpOp::Put(144_900),
                FtpOp::Get(1_738_100),
            ],
        )));
    });

    // Fail the primary somewhere inside the big download.
    tb.run_for(SimDuration::from_secs(12));
    println!("t={}: killing the primary mid-session", tb.sim.now());
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(60));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<FtpClient>(0);
        assert!(c.is_done(), "ftp session incomplete: {:?}", c.records);
        assert_eq!(c.mismatches, 0, "file content corrupted");
        println!("session complete; client-reported rates:");
        for r in &c.records {
            let dir = match r.op {
                FtpOp::Get(_) => "get",
                FtpOp::Put(_) => "put",
            };
            println!("  {dir} {:>9} bytes  {:>10.2} KB/s", r.bytes, r.rate_kbps());
        }
    });
}
