//! The paper's own motivating application (§1): an on-line store where
//! "each client will get a well-defined response to a browse or
//! purchase request". A customer browses and buys across a primary
//! failure; order ids, stock levels and every reply stay consistent
//! because the secondary executed the same deterministic request
//! stream.
//!
//! Run with: `cargo run --example store_failover`

use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;

fn main() {
    let mut tb = Testbed::new(TestbedConfig::default());
    let secondary = tb.replicas[1];
    for node in [tb.replicas[0], secondary] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(StoreServer::new(80)));
        });
    }

    // A long shopping session: browse + buy 30 different items.
    let mut script: Vec<String> = Vec::new();
    for i in 0..30 {
        script.push(format!("BROWSE item{i}"));
        script.push(format!("BUY item{i} 1"));
    }
    script.push("QUIT".into());
    let total = script.len();
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(
            SocketAddr::new(addrs::A_P, 80),
            script,
        )));
    });

    // Let the session get going, then pull the plug on the primary.
    tb.run_for(SimDuration::from_millis(30));
    let replies_before = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<StoreClient>(0).replies.len());
    println!("{replies_before}/{total} replies in — killing the primary");
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(15));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(
            c.is_done(),
            "session stalled at {} replies",
            c.replies.len()
        );
        assert_eq!(c.mismatches, 0, "a reply diverged after failover");
        println!(
            "{} replies, 0 mismatches across the failover. Sample:",
            c.replies.len()
        );
        for r in c.replies.iter().take(4) {
            println!("  {r}");
        }
        println!("  …");
        for r in c.replies.iter().rev().take(2).rev() {
            println!("  {r}");
        }
    });
    // The secondary executed every command the client ever sent.
    tb.sim.with::<Host, _>(secondary, |h, _| {
        println!(
            "secondary processed {} commands (active replication)",
            h.app_mut::<StoreServer>(0).commands
        );
    });
}
