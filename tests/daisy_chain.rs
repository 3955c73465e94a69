//! Integration: daisy-chained N-way replication (the §1 extension).
//! Three or more replicas; the client-facing stream is the tail's
//! sequence space; head, middle and tail failures each heal while a
//! transfer is in flight.

use tcp_failover::apps::chain_ops;
use tcp_failover::apps::driver::{BulkSendClient, RequestReplyClient};
use tcp_failover::apps::store::{StoreClient, StoreServer};
use tcp_failover::apps::stream::{SinkServer, SourceServer};
use tcp_failover::core::reprovision::ReprovisionPhase;
use tcp_failover::core::testbed::{addrs, Testbed, TestbedConfig};
use tcp_failover::core::ChainBridge;
use tcp_failover::net::time::SimDuration;
use tcp_failover::tcp::host::Host;
use tcp_failover::tcp::types::SocketAddr;
use tcp_failover::telemetry::{AuditConfig, InvariantAuditor};

fn vip(port: u16) -> SocketAddr {
    SocketAddr::new(addrs::A_P, port)
}

/// A depth-`replicas` chain with the invariant auditor and health
/// observatory attached to every bridge — the PR9 "observed" setup.
fn observed_config(replicas: usize, seed: u64) -> TestbedConfig {
    TestbedConfig {
        replicas,
        seed,
        audit: Some(true),
        health: Some(true),
        ..TestbedConfig::default()
    }
}

fn download_testbed_with(config: TestbedConfig, total: u64) -> Testbed {
    let mut tb = Testbed::new(config);
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            vip(80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb
}

fn download_testbed(replicas: usize, total: u64, seed: u64) -> Testbed {
    let mut tb = Testbed::new(TestbedConfig {
        replicas,
        seed,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            vip(80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    tb
}

fn assert_download_done(tb: &mut Testbed, total: u64) {
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        assert!(
            c.is_done(),
            "download stalled at {} of {total}",
            c.received_len()
        );
        assert_eq!(c.mismatches, 0, "stream corrupted");
    });
}

#[test]
fn three_way_chain_fault_free() {
    let mut tb = download_testbed(3, 300_000, 1);
    tb.run_for(SimDuration::from_secs(10));
    assert_download_done(&mut tb, 300_000);
    // Every replica actually served the stream (active replication).
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let served = tb
            .sim
            .with::<Host, _>(node, |h, _| h.app_mut::<SourceServer>(0).served);
        assert_eq!(served, 300_000, "replica {i} did not serve");
    }
}

#[test]
fn five_way_chain_fault_free() {
    let mut tb = download_testbed(5, 120_000, 2);
    tb.run_for(SimDuration::from_secs(20));
    assert_download_done(&mut tb, 120_000);
}

#[test]
fn head_failure_promotes_first_backup() {
    let mut tb = download_testbed(3, 2_000_000, 3);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0); // the head
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    // The first backup promoted itself and owns the VIP now.
    let b1 = tb.replicas[1];
    tb.sim.with::<Host, _>(b1, |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P), "VIP takeover");
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_some(), "B1 promoted");
    });
    // The takeover kick on the promoted-middle branch: B1's
    // retransmission, merged with the tail's stream, leaves at the VIP
    // takeover rather than on B1's retransmission timer.
    let m = tb.hubs[1]
        .timeline
        .mttr()
        .expect("complete §5 timeline on B1");
    assert!(
        m.first_byte_ns <= 1_000_000,
        "first client byte {} ns after the VIP takeover",
        m.first_byte_ns
    );
}

#[test]
fn middle_failure_heals_around_it() {
    let mut tb = download_testbed(3, 2_000_000, 4);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(1); // the middle
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    // The head still holds the VIP; nobody promoted.
    tb.sim.with::<Host, _>(tb.replicas[2], |h, _| {
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_none(), "tail must not promote");
    });
}

#[test]
fn tail_failure_degrades_last_link() {
    let mut tb = download_testbed(3, 2_000_000, 5);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(2); // the tail
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
}

#[test]
fn sequential_failures_down_to_one() {
    // Kill the head, then the new head: the last replica standing
    // serves the connection to completion (two §5-style takeovers).
    let mut tb = download_testbed(3, 4_000_000, 6);
    tb.run_for(SimDuration::from_millis(150));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(5));
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_secs(40));
    assert_download_done(&mut tb, 4_000_000);
    tb.sim.with::<Host, _>(tb.replicas[2], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
        assert!(!h.net_mut().promiscuous, "classic §5 takeover at the tail");
    });
}

#[test]
fn chain_upload_acked_only_when_all_replicas_have_it() {
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 3,
        seed: 7,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(vip(80), 300_000)));
    });
    tb.run_for(SimDuration::from_secs(15));
    let done = tb
        .sim
        .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done());
    assert!(done, "upload did not finish");
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let got = tb
            .sim
            .with::<Host, _>(node, |h, _| h.app_mut::<SinkServer>(0).received);
        assert_eq!(got, 300_000, "replica {i} missed bytes");
    }
}

#[test]
fn chain_store_session_survives_head_failure() {
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 3,
        seed: 8,
        ..TestbedConfig::default()
    });
    tb.install_servers(|| StoreServer::new(80));
    let mut script: Vec<String> = Vec::new();
    for i in 0..30 {
        script.push(format!("BROWSE item{i}"));
        script.push(format!("BUY item{i} 2"));
    }
    script.push("QUIT".into());
    let n_cmds = script.len() as u64;
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(StoreClient::new(vip(80), script)));
    });
    tb.run_for(SimDuration::from_millis(40));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(30));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<StoreClient>(0);
        assert!(c.is_done(), "stalled at {} replies", c.replies.len());
        assert_eq!(c.mismatches, 0);
    });
    // The surviving replicas each executed the full command stream.
    for &node in &tb.replicas.clone()[1..] {
        tb.sim.with::<Host, _>(node, |h, _| {
            assert_eq!(h.app_mut::<StoreServer>(0).commands, n_cmds);
        });
    }
}

// ---------------------------------------------------------------------
// PR9: depth-4 chains under the auditor, and standby reprovisioning.
// ---------------------------------------------------------------------

#[test]
fn four_way_head_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 9), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P), "VIP takeover");
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_some(), "B1 promoted");
    });
    assert_eq!(tb.audit_violations(), 0, "auditor fired during takeover");
}

#[test]
fn four_way_middle_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 10), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(2); // second middle
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    for i in [1, 3] {
        tb.sim.with::<Host, _>(tb.replicas[i], |h, _| {
            let c = h.controller_mut::<tcp_failover::core::ChainController>();
            assert!(c.promoted_at.is_none(), "replica {i} must not promote");
        });
    }
    assert_eq!(tb.audit_violations(), 0, "auditor fired during heal");
}

#[test]
fn four_way_tail_failure_audited() {
    let mut tb = download_testbed_with(observed_config(4, 11), 2_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(3); // tail
    tb.run_for(SimDuration::from_secs(30));
    assert_download_done(&mut tb, 2_000_000);
    assert_eq!(tb.audit_violations(), 0, "auditor fired on tail loss");
}

#[test]
fn reprovision_restores_redundancy_after_head_failure() {
    // Head dies mid-transfer; B1 promotes via the health-scored gate;
    // a standby is reprovisioned behind the old tail and the lag
    // ledger proves catch-up drained to zero — all with the auditor
    // attached and silent.
    let mut tb = download_testbed_with(observed_config(3, 12), 8_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        let c = h.controller_mut::<tcp_failover::core::ChainController>();
        assert!(c.promoted_at.is_some(), "B1 promoted before reprovision");
    });

    let standby = chain_ops::reprovision_tail(&mut tb);
    assert_eq!(standby, 3, "standby appended after the founders");
    assert_eq!(tb.tracker.phase(), ReprovisionPhase::CatchUp);
    assert!(
        tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30)),
        "catch-up never drained (lag {})",
        tb.catchup_lag()
    );
    assert_eq!(tb.catchup_lag(), 0, "restored with residual lag");
    assert!(tb.tracker.reprovision_ns().unwrap() > 0);
    assert!(tb.tracker.catchup_ns().unwrap() > 0);
    assert_eq!(
        tb.tracker.total_ns().unwrap(),
        tb.tracker.reprovision_ns().unwrap() + tb.tracker.catchup_ns().unwrap()
    );

    tb.run_for(SimDuration::from_secs(60));
    assert_download_done(&mut tb, 8_000_000);
    // The standby actually took over the tail's serving duties.
    let served = tb
        .sim
        .with::<Host, _>(tb.replicas[3], |h, _| h.app_mut::<SourceServer>(0).served);
    assert!(served > 0, "standby never served the adopted stream");
    assert_eq!(tb.audit_violations(), 0, "auditor fired during round");
}

#[test]
fn three_standbys_in_a_row_restore_redundancy() {
    // Three rounds of head failure + tail reprovisioning: the segment
    // grows a port per standby, so the chain can be rebuilt as often
    // as it fails. The first round lands mid-transfer; after the third
    // the chain is made of standbys only and serves a fresh download.
    let mut tb = download_testbed_with(observed_config(3, 14), 4_000_000);
    tb.run_for(SimDuration::from_millis(200));
    for round in 0..3 {
        let head = (0..tb.replicas.len()).find(|&i| !tb.dead[i]).unwrap();
        tb.kill_replica(head);
        tb.run_for(SimDuration::from_millis(300));
        let standby = chain_ops::reprovision_tail(&mut tb);
        assert_eq!(standby, 3 + round, "standby appended at the end");
        assert!(
            tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30)),
            "round {round}: catch-up never drained (lag {})",
            tb.catchup_lag()
        );
    }
    assert_eq!(tb.dead, [true, true, true, false, false, false]);
    assert_download_done(&mut tb, 4_000_000);

    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            vip(80),
            b"SEND 1000000\n".to_vec(),
            1_000_000,
        )));
    });
    tb.run_for(SimDuration::from_secs(10));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(1);
        assert!(c.is_done(), "rebuilt chain stalled at {}", c.received_len());
        assert_eq!(c.mismatches, 0, "rebuilt chain corrupted the stream");
    });
    assert_eq!(tb.audit_violations(), 0, "auditor fired across rounds");
}

#[test]
fn failure_during_reprovision_catchup_degrades_gracefully() {
    // The converted middle (the old tail) dies while the standby is
    // still catching up: the chain heals around it (§6 degradation)
    // and the transfer completes on the survivors.
    let mut tb = download_testbed_with(observed_config(3, 13), 8_000_000);
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));

    let standby = chain_ops::reprovision_tail(&mut tb);
    assert_eq!(tb.tracker.phase(), ReprovisionPhase::CatchUp);
    // Give the standby a moment to join the flow, then kill the link
    // whose lag ledger was proving catch-up.
    tb.run_for(SimDuration::from_millis(30));
    tb.kill_replica(2);
    tb.run_for(SimDuration::from_secs(60));
    assert_download_done(&mut tb, 8_000_000);
    // The promoted head and the standby survive as a two-link chain.
    tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        assert!(h.net_mut().local_ips.contains(&addrs::A_P));
    });
    let served = tb.sim.with::<Host, _>(tb.replicas[standby], |h, _| {
        h.app_mut::<SourceServer>(0).served
    });
    assert!(served > 0, "standby never served after the second failure");
    assert_eq!(tb.audit_violations(), 0);
}

#[test]
fn killed_replicas_audit_evidence_still_counts() {
    // A killed node's bridge state stays readable, so the testbed's
    // violation count must not drop when the replica that recorded the
    // violations dies.
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 3,
        seed: 14,
        audit: Some(false),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SinkServer::new(80));
    let dir = std::env::temp_dir().join(format!("tcpfo-chain-audit-{}", std::process::id()));
    tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        let head = h
            .filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .expect("head runs a ChainBridge");
        // The min-ack ablation makes the head's own auditor fire.
        head.inner_mut().unsafe_ack_without_min = true;
        head.observers_mut().audit = Some(Box::new(InvariantAuditor::new(
            AuditConfig::new("chain")
                .panic_on_violation(false)
                .bundle_dir(&dir),
        )));
    });
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(vip(80), 300_000)));
    });
    tb.run_for(SimDuration::from_secs(2));
    let before = tb.audit_violations();
    assert!(before > 0, "the ablated head never tripped its auditor");
    tb.kill_replica(0);
    assert_eq!(
        tb.audit_violations(),
        before,
        "the dead head's violations vanished from the count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
