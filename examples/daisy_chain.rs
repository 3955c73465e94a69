//! Daisy-chained replication (the §1 extension the paper leaves as
//! future work): four replicas, two successive failures mid-download,
//! the client's connection never breaks.
//!
//! Run with: `cargo run --example daisy_chain`

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn progress(tb: &mut Testbed) -> u64 {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len()
    })
}

fn main() {
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 4,
        ..TestbedConfig::default()
    });
    println!(
        "chain: {} (head, owns VIP {}) → {} → {} → {} (tail)",
        tb.replica_addrs[0],
        addrs::A_P,
        tb.replica_addrs[1],
        tb.replica_addrs[2],
        tb.replica_addrs[3]
    );
    tb.install_servers(|| SourceServer::new(80));
    let total = 40_000_000u64;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });

    tb.run_for(SimDuration::from_millis(300));
    println!(
        "t={}: {} bytes — killing the HEAD",
        tb.sim.now(),
        progress(&mut tb)
    );
    tb.kill_replica(0);

    tb.run_for(SimDuration::from_secs(2));
    println!(
        "t={}: {} bytes — replica 1 promoted; killing the MIDDLE (replica 2)",
        tb.sim.now(),
        progress(&mut tb)
    );
    tb.kill_replica(2);

    tb.run_for(SimDuration::from_secs(60));
    let now = tb.sim.now();
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "download stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0);
        println!(
            "t={now}: download complete — {} bytes, 0 mismatches, across two failures",
            c.received_len()
        );
    });
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        let ctl = h.controller_mut::<tcp_failover::core::ChainController>();
        println!(
            "replica 1 promoted at t={}",
            ctl.promoted_at.expect("promoted")
        );
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
    });
    println!("survivors: replica 1 (new head) and replica 3 (tail), still replicated.");
}
