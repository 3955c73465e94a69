//! Integration: §5 (primary failure → secondary IP takeover) and §6
//! (secondary failure → primary degrades), at various points in a
//! connection's lifetime — the paper's headline property is that the
//! failover can happen *at any time* and the client never notices.

use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::detector::DetectorConfig;
use tcp_failover::core::testbed::{addrs, macs, Testbed, TestbedConfig};
use tcp_failover::core::{ChainBridge, ChainController, PrimaryMode};
use tcp_failover::net::time::{SimDuration, SimTime};
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::socket::Socket;
use tcp_failover::tcp::types::SocketAddr;

fn server_addr(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

macro_rules! replicate {
    ($tb:expr, $mk:expr) => {{
        let tb: &mut Testbed = $tb;
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.add_app(Box::new($mk));
        });
        let s = tb.secondary.expect("replicated testbed");
        tb.sim.with::<Host, _>(s, |h, _| {
            h.add_app(Box::new($mk));
        });
    }};
}

/// §5: kill the primary mid-download; the secondary takes over the
/// primary's IP and finishes the transfer; the client's byte stream is
/// intact.
#[test]
fn primary_fails_mid_download() {
    let mut tb = Testbed::new(TestbedConfig::default());
    // Keep the packet trace so a failure dumps its tail (bounded by
    // the ring, so a long run cannot exhaust memory).
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    // Let roughly half the transfer happen, then fail the primary.
    tb.run_for(SimDuration::from_millis(120));
    let before = tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.app_mut::<RequestReplyClient>(0).received_len()
    });
    assert!(
        before > 0 && before < 2_000_000,
        "failover must hit mid-transfer, got {before}"
    );
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    // Headline assertions go through `tb.expect`, which dumps the
    // trace tail, timeline and metrics snapshot on failure so a CI
    // log alone is enough to diagnose a regression.
    let (done, received, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {received} bytes"));
    tb.expect(mismatches == 0, "stream corrupted across failover");
    // The secondary detected the failure and took over.
    let s = tb.secondary.unwrap();
    let detected = tb.failover_detected_at(s);
    tb.expect(detected.is_some(), "fault detector never fired");
    let (promiscuous, owns_a_p) = tb.sim.with::<Host, _>(s, |h, _| {
        (
            h.net_mut().promiscuous,
            h.net_mut().local_ips.contains(&addrs::A_P),
        )
    });
    tb.expect(!promiscuous, "promiscuous mode disabled (§5 step 2)");
    tb.expect(owns_a_p, "IP takeover (§5 step 5)");
}

/// The connection's socket on `h` (the one whose either end is port 80).
fn conn_socket(h: &Host) -> &Socket {
    let stack = h.stack();
    stack
        .socket_ids()
        .into_iter()
        .filter_map(|id| stack.socket(id))
        .find(|s| s.tuple.local.port == 80 || s.tuple.remote.port == 80)
        .expect("connection socket")
}

/// §5 takeover kick: the promoted secondary "will retransmit those
/// segments" at the VIP takeover, from `snd_una` and through its
/// retransmission-timeout path, instead of idling until its own timer
/// fires — so the first client byte follows the gratuitous ARP at once.
#[test]
fn takeover_restarts_download_immediately() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    let s = tb.secondary.unwrap();
    // Step 1 ms at a time up to the tick that commits the takeover.
    let (s_expiries, s_una, client_rcv) = loop {
        let before = (
            tb.sim
                .with::<Host, _>(s, |h, _| h.stack().total_rto_expiries()),
            tb.sim.with::<Host, _>(s, |h, _| conn_socket(h).snd_una()),
            tb.sim
                .with::<Host, _>(tb.client, |h, _| conn_socket(h).rcv_nxt()),
        );
        tb.run_for(SimDuration::from_millis(1));
        if tb.failover_detected_at(s).is_some() {
            break before;
        }
        assert!(
            tb.sim.now() < SimTime::ZERO + SimDuration::from_secs(2),
            "no takeover"
        );
    };
    // With the client fed by nobody, S's unacked edge is exactly where
    // the client is waiting.
    assert_eq!(s_una, client_rcv);
    let expiries_after = tb
        .sim
        .with::<Host, _>(s, |h, _| h.stack().total_rto_expiries());
    assert_eq!(
        expiries_after,
        s_expiries + 1,
        "the kick takes the retransmission-timeout path once"
    );
    tb.run_for(SimDuration::from_millis(1));
    let client_rcv_after = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| conn_socket(h).rcv_nxt());
    assert!(
        (client_rcv_after.wrapping_sub(client_rcv) as i32) > 0,
        "the retransmission from snd_una reached the client within 1 ms"
    );
    tb.run_for(SimDuration::from_secs(20));

    let (done, received, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {received} bytes"));
    tb.expect(mismatches == 0, "stream corrupted across failover");
    let m = tb.telemetry.timeline.mttr().expect("complete §5 timeline");
    tb.expect(
        m.first_byte_ns <= 1_000_000,
        &format!(
            "first client byte {} ns after the ARP takeover",
            m.first_byte_ns
        ),
    );
}

/// §5 again, but for a client→server upload: no byte the primary acked
/// may be lost (requirement 2 of §2). The takeover kick's ACK restarts
/// the client at once: no client retransmission timeout, and the
/// secondary's intake stalls for no longer than detection.
#[test]
fn primary_fails_mid_upload() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), 2_000_000)));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_primary();
    let killed_at = tb.sim.now();
    let s = tb.secondary.unwrap();
    let sink = |tb: &mut Testbed| {
        tb.sim
            .with::<Host, _>(s, |h, _| h.app_mut::<SinkServer>(0).received)
    };
    // Sample S's intake every 1 ms until the upload completes, then
    // run out the same 20 s as before.
    let end = killed_at + SimDuration::from_secs(20);
    let (mut last, mut last_change, mut longest_gap) =
        (sink(&mut tb), killed_at, SimDuration::ZERO);
    while last < 2_000_000 && tb.sim.now() < end {
        tb.run_for(SimDuration::from_millis(1));
        let now_received = sink(&mut tb);
        if now_received != last {
            longest_gap = longest_gap.max(tb.sim.now() - last_change);
            (last, last_change) = (now_received, tb.sim.now());
        }
    }
    tb.sim.run_until(end);

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    tb.expect(done, "upload did not finish after failover");
    // The surviving replica has the complete stream.
    let s_received = sink(&mut tb);
    tb.expect(
        s_received == 2_000_000,
        &format!("secondary missed acknowledged bytes: got {s_received}"),
    );
    let client_rtos = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.stack().total_rto_expiries());
    tb.expect(
        client_rtos == 0,
        &format!("client hit {client_rtos} retransmission timeouts"),
    );
    let detection = tb.failover_detected_at(s).expect("takeover") - killed_at;
    tb.expect(
        longest_gap <= detection + SimDuration::from_millis(5),
        &format!("secondary intake stalled {longest_gap:?} (detection {detection:?})"),
    );
}

/// §5 with an interactive session: the store keeps answering after the
/// takeover, with per-connection state (stock, order ids) intact.
#[test]
fn primary_fails_mid_store_session() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, StoreServer::new(80));
    let mut script: Vec<String> = Vec::new();
    for i in 0..40 {
        script.push(format!("BROWSE item{i}"));
        script.push(format!("BUY item{i} 1"));
    }
    script.push("QUIT".into());
    let expected_cmds = script.len() as u64;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(server_addr(80), script)));
    });
    tb.run_for(SimDuration::from_millis(40));
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(20));

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(
            c.is_done(),
            "session stalled after {} replies",
            c.replies.len()
        );
        assert_eq!(c.mismatches, 0, "post-failover replies diverged");
    });
    tb.sim.with::<Host, _>(tb.secondary.unwrap(), |h, _| {
        assert_eq!(h.app_mut::<StoreServer>(0).commands, expected_cmds);
    });
}

/// §6: kill the secondary mid-download; the primary flushes its output
/// queue, stops delaying, and the transfer completes — with `Δseq`
/// still subtracted from every outgoing sequence number.
#[test]
fn secondary_fails_mid_download() {
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.sim.set_trace_enabled(true);
    tb.sim.set_trace_capacity(4_096);
    replicate!(&mut tb, SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_secs(20));

    let (done, received, mismatches) = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        (c.is_done(), c.received_len(), c.mismatches)
    });
    tb.expect(done, &format!("transfer died at {received} bytes"));
    tb.expect(mismatches == 0, "Δseq compensation broke the stream");
    let detected = tb.failover_detected_at(tb.primary);
    tb.expect(detected.is_some(), "primary never noticed");
    assert_eq!(
        tb.sim.with::<Host, _>(tb.primary, |h, _| {
            h.filter_mut()
                .as_any_mut()
                .downcast_mut::<ChainBridge>()
                .unwrap()
                .inner()
                .mode()
        }),
        PrimaryMode::SecondaryFailed
    );
}

/// §6 for an upload.
#[test]
fn secondary_fails_mid_upload() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(server_addr(80), 2_000_000)));
    });
    tb.run_for(SimDuration::from_millis(120));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_secs(20));

    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "upload did not finish after secondary failure");
    let p_received = tb
        .sim
        .with::<Host, _>(tb.primary, |h, _| h.app_mut::<SinkServer>(0).received);
    assert_eq!(p_received, 2_000_000);
}

/// Failover before any connection exists: connections opened *after*
/// the takeover go straight to the secondary (now owning a_p).
#[test]
fn connection_opened_after_takeover() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SourceServer::new(80));
    tb.run_for(SimDuration::from_millis(20));
    tb.kill_primary();
    // Wait out detection + takeover.
    tb.run_for(SimDuration::from_millis(500));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            server_addr(80),
            b"SEND 50000\n".to_vec(),
            50_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(10));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(c.is_done(), "post-takeover connect failed");
        assert_eq!(c.mismatches, 0);
    });
}

/// The detection timestamp respects the configured timeout.
#[test]
fn detection_latency_tracks_timeout() {
    let mut tb = Testbed::new(TestbedConfig::default());
    replicate!(&mut tb, SinkServer::new(80));
    tb.run_for(SimDuration::from_millis(100));
    let kill_time = tb.sim.now();
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(1));
    let s = tb.secondary.unwrap();
    let detected = tb.failover_detected_at(s).expect("detected");
    let latency = detected.duration_since(kill_time);
    let timeout = tb.config.detector.timeout;
    assert!(latency >= timeout, "detected before timeout: {latency}");
    assert!(
        latency.as_millis() <= timeout.as_millis() + 30,
        "detection too slow: {latency}"
    );
    // The controller counted heartbeats both ways before the failure.
    tb.sim.with::<Host, _>(s, |h, _| {
        let c = h.controller_mut::<ChainController>();
        assert!(c.heartbeats_sent > 0);
        assert!(c.heartbeats_received > 0);
        assert!(c.promoted_at.is_some());
    });
}

// ---------------------------------------------------------------------
// Fault-detector edge cases (the `detector_` prefix lets CI select them)
// ---------------------------------------------------------------------

fn detector_testbed(detector: DetectorConfig) -> Testbed {
    Testbed::new(TestbedConfig {
        detector,
        ..TestbedConfig::default()
    })
}

#[test]
fn detector_heartbeats_flow_both_ways() {
    let mut tb = detector_testbed(DetectorConfig::default());
    tb.run_for(SimDuration::from_millis(100));
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            let c = h.controller_mut::<ChainController>();
            assert!(c.heartbeats_sent >= 9, "sent {}", c.heartbeats_sent);
            assert!(
                c.heartbeats_received >= 8,
                "received {}",
                c.heartbeats_received
            );
            assert!(c.peer_dead_at.is_none(), "false positive");
        });
    }
}

#[test]
fn detector_no_false_positives_over_long_idle() {
    let mut tb = detector_testbed(DetectorConfig {
        interval: SimDuration::from_millis(5),
        timeout: SimDuration::from_millis(20),
    });
    tb.run_for(SimDuration::from_secs(30));
    for node in [tb.primary, tb.secondary.unwrap()] {
        tb.sim.with::<Host, _>(node, |h, _| {
            assert!(
                h.controller_mut::<ChainController>().peer_dead_at.is_none(),
                "detector fired without a failure"
            );
        });
    }
}

#[test]
fn detector_secondary_detects_and_takes_over() {
    let mut tb = detector_testbed(DetectorConfig::default());
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_primary();
    tb.run_for(SimDuration::from_millis(300));
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        let own_promisc = h.net_mut().promiscuous;
        let has_vip = h.net_mut().local_ips.contains(&addrs::A_P);
        let c = h.controller_mut::<ChainController>();
        assert!(c.peer_dead_at.is_some());
        assert!(c.promoted_at.is_some());
        assert!(c.promoted_at >= c.peer_dead_at);
        assert!(!own_promisc, "§5 step 2");
        assert!(has_vip, "§5 step 5");
    });
}

#[test]
fn detector_primary_detects_and_degrades() {
    let mut tb = detector_testbed(DetectorConfig::default());
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_secondary();
    tb.run_for(SimDuration::from_millis(300));
    tb.sim.with::<Host, _>(tb.primary, |h, _| {
        let mode = h
            .filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .unwrap()
            .inner()
            .mode();
        assert_eq!(mode, PrimaryMode::SecondaryFailed);
        assert!(h.controller_mut::<ChainController>().peer_dead_at.is_some());
    });
}

#[test]
fn detector_takeover_runs_once() {
    let mut tb = detector_testbed(DetectorConfig::default());
    tb.run_for(SimDuration::from_millis(20));
    // Detection keeps ticking long after the kill; the takeover must
    // still have run exactly once.
    tb.kill_primary();
    tb.run_for(SimDuration::from_secs(1));
    let s = tb.secondary.unwrap();
    tb.sim.with::<Host, _>(s, |h, _| {
        let vip_count = h
            .net_mut()
            .local_ips
            .iter()
            .filter(|&&a| a == addrs::A_P)
            .count();
        assert_eq!(vip_count, 1, "takeover ran more than once");
    });
}

#[test]
fn detector_silence_boundary_exactly_at_timeout_vs_one_past() {
    let c = DetectorConfig::default();
    let last = SimTime::ZERO + SimDuration::from_secs(1);
    let at_limit = last + c.timeout;
    let one_past = at_limit + SimDuration::from_nanos(1);
    // §2: "missing heartbeats for longer than the timeout" —
    // exactly at the limit does not fire, one nanosecond past does.
    assert!(!c.silence_expired(last, at_limit), "fired at the limit");
    assert!(c.silence_expired(last, one_past), "did not fire past it");
    // The advisory miss count crosses the health miss limit at the
    // same boundary: with timeout = 5 × interval, exactly-at-limit
    // is 5 misses (score 0) while the binary decision still waits.
    assert_eq!(c.misses_since(last, at_limit), 5);
    let just_short = last + (c.timeout - SimDuration::from_nanos(1));
    assert_eq!(c.misses_since(last, just_short), 4);
    assert_eq!(c.misses_since(last, one_past), 5);
    assert_eq!(c.misses_since(last, last), 0);
    assert_eq!(c.health_config().miss_limit, 5);
}

#[test]
fn detector_late_heartbeat_after_takeover_commit_is_not_liveness() {
    use bytes::Bytes;
    use tcp_failover::net::sim::Device;
    use tcp_failover::wire::eth::{EtherType, EthernetFrame};
    use tcp_failover::wire::ipv4::{Ipv4Packet, PROTO_HEARTBEAT};

    let mut tb = Testbed::new(TestbedConfig {
        health: Some(true),
        ..TestbedConfig::default()
    });
    tb.run_for(SimDuration::from_millis(50));
    tb.kill_primary();
    tb.run_for(SimDuration::from_millis(300));
    let s = tb.secondary.unwrap();
    let (received_before, failed_at) = tb.sim.with::<Host, _>(s, |h, _| {
        let c = h.controller_mut::<ChainController>();
        (c.heartbeats_received, c.peer_dead_at)
    });
    assert!(failed_at.is_some(), "takeover did not commit");
    // A stray heartbeat from the dead primary's address arrives after
    // the commit (e.g. a frame that sat in a queue, or the old host
    // rebooting mid-ARP). Deliver it straight to the secondary's NIC.
    tb.sim.with::<Host, _>(s, |h, ctx| {
        let pkt = Ipv4Packet::new(
            addrs::A_P,
            addrs::A_S,
            PROTO_HEARTBEAT,
            Bytes::from_static(b"HB"),
        );
        let frame = EthernetFrame::new(
            macs::SECONDARY,
            macs::PRIMARY,
            EtherType::Ipv4,
            pkt.encode(),
        );
        h.handle_frame(0, frame.encode(), ctx);
    });
    tb.run_for(SimDuration::from_millis(20));
    tb.sim.with::<Host, _>(s, |h, _| {
        let c = h.controller_mut::<ChainController>();
        assert_eq!(c.late_heartbeats, 1, "late beat not counted");
        assert_eq!(
            c.heartbeats_received, received_before,
            "late beat counted as liveness"
        );
        assert!(!c.peer_alive(0), "late beat revived a replaced peer");
        assert_eq!(c.peer_dead_at, failed_at);
        let mon = c.peer_monitor(0).expect("peer monitored");
        assert_eq!(mon.replica.late_heartbeats, 1);
    });
}

#[test]
fn detector_jitter_only_degradation_warns_without_firing() {
    let mut tb = Testbed::new(TestbedConfig {
        health: Some(true),
        ..TestbedConfig::default()
    });
    // Clean baseline: the secondary should score the primary
    // near-perfect.
    tb.run_for(SimDuration::from_millis(200));
    let s = tb.secondary.unwrap();
    let baseline = tb
        .with_health_monitor(s, |m| m.score().total)
        .expect("monitor attached");
    assert!(baseline >= 90, "clean baseline scored {baseline}");
    // Degrade the primary's attachment with jitter only: no loss, no
    // silence — heartbeats keep flowing, just erratically. At 25ms of
    // per-frame jitter the worst inter-arrival gap is ~interval +
    // jitter = 35ms, safely inside the 50ms timeout.
    let primary = tb.primary;
    tb.reshape_links(primary, |p| p.with_jitter(SimDuration::from_millis(25)));
    tb.run_for(SimDuration::from_secs(2));
    assert!(
        tb.failover_detected_at(s).is_none(),
        "jitter alone must not fire the binary detector"
    );
    let (score, warned) = tb
        .with_health_monitor(s, |m| (m.score(), m.first_warn_at().is_some()))
        .expect("monitor attached");
    assert!(
        score.total < 70,
        "jitter-only degradation kept score at {} (rtt {}ns jitter {}ns)",
        score.total,
        score.rtt_ns,
        score.jitter_ns
    );
    assert!(warned, "no Warn alert journalled under jitter");
}

#[test]
fn detector_detection_latency_bounded_by_timeout_plus_interval() {
    for timeout_ms in [20u64, 80, 150] {
        let mut tb = detector_testbed(DetectorConfig {
            interval: SimDuration::from_millis(timeout_ms / 4),
            timeout: SimDuration::from_millis(timeout_ms),
        });
        tb.run_for(SimDuration::from_millis(40));
        let killed = tb.sim.now();
        tb.kill_primary();
        tb.run_for(SimDuration::from_secs(2));
        let s = tb.secondary.unwrap();
        let detected = tb.failover_detected_at(s).expect("fired");
        let lat = detected.duration_since(killed).as_millis();
        let interval_ms = timeout_ms / 4;
        // The last heartbeat may have landed up to one interval before
        // the kill, so detection can fire that much sooner relative to
        // the kill instant.
        assert!(
            lat + interval_ms >= timeout_ms,
            "early: {lat}ms for timeout {timeout_ms}ms"
        );
        assert!(
            lat <= timeout_ms + interval_ms + 20,
            "late: {lat}ms for timeout {timeout_ms}ms"
        );
    }
}
