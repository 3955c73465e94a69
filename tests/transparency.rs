//! Wire-level transparency — the paper's headline claim, checked on
//! the client's own wire: across a failover the client must see one
//! single, coherent TCP conversation. No sequence-space jump, no
//! foreign addresses, no reset.

use tcp_failover::apps::driver::RequestReplyClient;
use tcp_failover::apps::stream::SourceServer;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::net::time::SimDuration;
use tcp_failover::net::trace::TraceKind;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::seq::{seq_diff, seq_ge};
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::wire::eth::{EtherType, EthernetFrame};
use tcp_failover::wire::ipv4::Ipv4Packet;
use tcp_failover::wire::tcp::{verify_segment_checksum, TcpFlags, TcpSegment};

/// Everything the client's NIC received on a run, parsed.
fn client_rx_segments(tb: &mut Testbed) -> Vec<(Ipv4Packet, TcpSegment)> {
    let client = tb.client;
    tb.sim
        .take_trace()
        .into_iter()
        .filter(|e| e.node == client && matches!(e.kind, TraceKind::Rx { .. }))
        .filter_map(|e| {
            let frame = e.frame?;
            let eth = EthernetFrame::decode(&frame).ok()?;
            if eth.ethertype != EtherType::Ipv4 {
                return None;
            }
            let ip = Ipv4Packet::decode(&eth.payload).ok()?;
            let seg = TcpSegment::decode(&ip.payload).ok()?;
            Some((ip, seg))
        })
        .collect()
}

#[test]
fn client_wire_is_one_coherent_conversation_across_failover() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.set_trace_enabled(true);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 1500000\n".to_vec(),
            1_500_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(20));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done());
        assert_eq!(c.mismatches, 0);
    });

    let segments = client_rx_segments(&mut tb);
    assert!(segments.len() > 500, "trace too small: {}", segments.len());

    // 1. Every datagram the client ever received came from a_p — the
    //    secondary's address never leaks to the client.
    for (ip, _) in &segments {
        assert_eq!(
            ip.src,
            addrs::A_P,
            "foreign source {} on the client wire",
            ip.src
        );
    }
    // 2. No RST: the connection never resets.
    for (_, seg) in &segments {
        assert!(!seg.flags.contains(TcpFlags::RST), "client saw a RST");
    }
    // 3. Exactly one SYN+ACK ISN for the whole conversation, and every
    //    data byte lives in that single sequence space, gap-free up to
    //    the final byte (requirement 4 of §2: "the order of the
    //    sequence numbers must not be violated").
    let isns: Vec<u32> = segments
        .iter()
        .filter(|(_, s)| s.flags.contains(TcpFlags::SYN))
        .map(|(_, s)| s.seq)
        .collect();
    assert!(!isns.is_empty());
    assert!(
        isns.iter().all(|&i| i == isns[0]),
        "sequence space changed across failover: {isns:?}"
    );
    let isn = isns[0];
    let mut max_end = isn.wrapping_add(1);
    for (_, seg) in &segments {
        if seg.payload.is_empty() {
            continue;
        }
        // Data never starts beyond what was previously contiguous: the
        // client can always reassemble without holes the server will
        // not fill (retransmissions may repeat, never skip).
        assert!(
            seq_diff(seg.seq, max_end) <= 0,
            "gap in the client-facing stream at seq {}",
            seg.seq
        );
        let end = seg.seq.wrapping_add(seg.payload.len() as u32);
        if seq_ge(end, max_end) {
            max_end = end;
        }
    }
    assert_eq!(
        max_end.wrapping_sub(isn.wrapping_add(1)),
        1_500_000,
        "stream length on the wire"
    );
    // 4. The orig-dest option never escapes the server segment.
    for (_, seg) in &segments {
        assert!(
            seg.orig_dest().is_none(),
            "internal option leaked to the client"
        );
    }
    // 5. Every checksum on the client wire verifies.
    for (ip, seg) in &segments {
        let bytes = seg.encode(ip.src, ip.dst);
        assert!(verify_segment_checksum(ip.src, ip.dst, &bytes));
    }
}

#[test]
fn acks_to_client_never_exceed_either_replica() {
    // Requirement 2 of §2, on the wire: the client's data is never
    // acknowledged beyond what the *secondary* confirmed — so no
    // acknowledged byte can be lost in a failover. We verify the
    // conservative observable: the merged ack never regresses.
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.set_trace_enabled(true);
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 400000\n".to_vec(),
            400_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(5));
    let segments = client_rx_segments(&mut tb);
    let mut last_ack: Option<u32> = None;
    for (_, seg) in segments
        .iter()
        .filter(|(_, s)| s.flags.contains(TcpFlags::ACK))
    {
        if let Some(prev) = last_ack {
            assert!(
                seq_ge(seg.ack, prev),
                "merged acknowledgment regressed: {} after {prev}",
                seg.ack
            );
        }
        last_ack = Some(seg.ack);
    }
}
