//! Annotated wire trace of a failover: run a short download, kill the
//! primary, and print what actually crossed the client's wire around
//! the takeover — the gratuitous ARP's effect, the retransmission that
//! restores service, and the unbroken sequence space.
//!
//! Run with: `cargo run --example wire_trace`

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::net::trace::TraceKind;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::eth::{EtherType, EthernetFrame};
use tcp_failover::wire::ipv4::Ipv4Packet;
use tcp_failover::wire::tcp::TcpSegment;

fn main() {
    let mut tb = Testbed::new(TestbedConfig::default());
    let secondary = tb.replicas[1];
    for node in [tb.replicas[0], secondary] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 3000000\n".to_vec(),
            3_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(95));
    tb.sim.set_trace_enabled(true);
    tb.run_for(SimDuration::from_millis(5));
    let kill_time = tb.sim.now();
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(450));
    tb.sim.set_trace_enabled(false);
    tb.run_for(SimDuration::from_secs(10));

    println!("primary killed at t={kill_time}\n");
    println!("what the CLIENT's wire saw around the takeover:");
    println!("{:>12}  {:<4} segment", "time", "dir");
    let client = tb.client;
    let mut shown_quiet = false;
    let mut last: Option<SimTime> = None;
    for e in tb.sim.take_trace() {
        if e.node != client {
            continue;
        }
        let dir = match e.kind {
            TraceKind::Rx { .. } => "rx",
            TraceKind::Tx { .. } => "tx",
            _ => continue,
        };
        let Some(frame) = e.frame else { continue };
        let Ok(eth) = EthernetFrame::decode(&frame) else {
            continue;
        };
        if eth.ethertype != EtherType::Ipv4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::decode(&eth.payload) else {
            continue;
        };
        let Ok(seg) = TcpSegment::decode(&ip.payload) else {
            continue;
        };
        // Compress the steady stream: show the lead-up to the kill,
        // the interruption, and the first segments of the recovery.
        let gap_ms = last.map_or(0, |l| e.at.duration_since(l).as_millis());
        if gap_ms > 50 && !shown_quiet {
            println!(
                "{:>12}  ...  ── service interruption ({gap_ms}ms): detection + ARP window T + RTO ──",
                ""
            );
            shown_quiet = true;
        }
        let interesting = e.at <= kill_time + SimDuration::from_millis(2)
            || gap_ms > 20
            || (shown_quiet && seg.payload.is_empty());
        if interesting {
            println!(
                "{:>12}  {:<4} {} {}→{} seq={} ack={} len={} [{}]",
                format!("{}", e.at),
                dir,
                if dir == "rx" { "from" } else { "to  " },
                ip.src,
                ip.dst,
                seg.seq,
                seg.ack,
                seg.payload.len(),
                seg.flags,
            );
        }
        last = Some(e.at);
    }
    let done = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).is_done()
    });
    println!(
        "\ntransfer completed: {done} — every datagram above came from {}",
        addrs::A_P
    );
}
