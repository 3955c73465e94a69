//! Debug harness for the Fig. 5 send-rate scenario: runs one failover
//! upload and prints the unified telemetry exposition (metrics table,
//! journal tail) instead of ad-hoc counters. Pass `--telemetry <path>`
//! (or set `TCPFO_TELEMETRY_JSON`) to also write the JSON export.

use tcpfo_apps::driver::BulkSendClient;
use tcpfo_apps::stream::SinkServer;
use tcpfo_bench::*;
use tcpfo_core::testbed::{addrs, Testbed};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

fn main() {
    let mut tb = Testbed::new(paper_testbed(Mode::Failover, 5));
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            20_000_000,
        )));
    });
    run_until(&mut tb, SimDuration::from_secs(60), |tb| {
        tb.sim
            .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done())
    });
    // The registry carries everything the old debug prints showed:
    // client retransmits and cwnd under `tcp.client.*`, the bridge
    // counters under `core.primary.*`.
    println!("{}", tb.metrics_snapshot().to_table());
    for (i, hub) in tb.hubs.iter().enumerate() {
        let events = hub.journal.tail(20);
        if !events.is_empty() {
            println!("replica {i} journal tail:");
            for e in &events {
                println!("  {}", e.summary());
            }
        }
    }
    export_run_telemetry(&mut tb, "dbg_fig5");
}
