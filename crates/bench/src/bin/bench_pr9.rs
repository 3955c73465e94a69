//! PR-9 regression gates: the unified chain control plane — a chain
//! link's datapath is as cheap as the pair bridge's, and a depth-3
//! chain heals a head failure AND re-provisions a fresh tail with the
//! catch-up backlog provably drained.
//!
//! 1. **Chain-link overhead bounded** — the PR-6 open-loop profile
//!    (2²⁰ residents) re-run against a chain *middle* link (every
//!    release additionally pays the divert-upstream rewrite) with the
//!    health observatory attached must stay within 5 % of the detached
//!    throughput. The zero-alloc proof (`zero_alloc.rs`) separately
//!    pins the attached middle-link hot path to zero allocations.
//! 2. **Failover heals under audit** — a depth-3 chain serving a live
//!    download loses its head; the first backup must promote (MTTR is
//!    the headline), the transfer must complete byte-exact, and the
//!    invariant auditor on every surviving bridge must record zero
//!    violations.
//! 3. **Redundancy restored** — after the takeover, a standby is
//!    provisioned as the new tail via the state-snapshot handoff; the
//!    replication-lag ledger must drain to zero and the reprovision
//!    tracker must report provisioning and catch-up as separate,
//!    non-zero phases. Time-to-restored-redundancy is reported
//!    independently of MTTR: the paper's MTTR says when the *client*
//!    recovered, this says when the *system* did.
//!
//! Headline figures (overhead ratio, MTTR, time-to-restored) merge
//! into `BENCH_TRAJECTORY.json`. `TCPFO_BENCH_QUICK=1` shrinks the
//! load runs for CI; the throughput gate is proportionally looser
//! there. The overhead ratio is a wall-clock measurement on shared
//! hosts, so it is attempted up to `TCPFO_BENCH_ATTEMPTS` (default 3)
//! times and the best ratio kept.

use tcpfo_apps::chain_ops;
use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::loadgen::{run_open_loop_chain, OpenLoopConfig};
use tcpfo_bench::trajectory;
use tcpfo_core::chain::ChainController;
use tcpfo_core::reprovision::ReprovisionPhase;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

/// What one failover + reprovision rehearsal produced.
struct ChainRecovery {
    /// Client-observed repair: head death → first backup promoted.
    mttr_ns: Option<u64>,
    /// Tracker: standby spawn → handoff complete.
    reprovision_ns: Option<u64>,
    /// Tracker: handoff complete → lag drained to zero.
    catchup_ns: Option<u64>,
    /// Tracker: standby spawn → redundancy restored.
    total_ns: Option<u64>,
    /// Residual catch-up backlog at end of run (must be 0).
    final_lag: u64,
    /// Auditor violations summed over every surviving bridge.
    audit_violations: u64,
    /// The download finished byte-exact.
    download_done: bool,
    /// Bytes the adopted standby itself served (proves it carries the
    /// stream, not just the topology).
    standby_served: u64,
    /// Tracker JSON for the report.
    tracker_json: String,
}

/// Depth-3 chain under a live download: kill the head, let the
/// health-scored controller promote B1, then re-provision a fresh tail
/// and drain the catch-up backlog. Auditor and health observatory ride
/// every bridge throughout.
fn chain_recovery(total: u64) -> ChainRecovery {
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 3,
        seed: 0xF9,
        audit: Some(true),
        health: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });

    // Mid-transfer head failure.
    tb.run_for(SimDuration::from_millis(200));
    let killed_at = tb.sim.now().as_nanos();
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    let promoted_at = tb.sim.with::<Host, _>(tb.replicas[1], |h, _| {
        h.controller_mut::<ChainController>().promoted_at
    });
    let mttr_ns = promoted_at.map(|t| t.as_nanos().saturating_sub(killed_at));

    // Restore depth 3: provision a standby as the new tail and catch
    // it up via the state-snapshot handoff.
    let standby = chain_ops::reprovision_tail(&mut tb);
    let restored = tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30));
    let final_lag = tb.catchup_lag();
    let (reprovision_ns, catchup_ns, total_ns) = (
        tb.tracker.reprovision_ns(),
        tb.tracker.catchup_ns(),
        tb.tracker.total_ns(),
    );
    let tracker_json = tb.tracker.to_json();
    assert!(
        !restored || tb.tracker.phase() == ReprovisionPhase::Restored,
        "restored flag and tracker phase must agree"
    );

    // Run the transfer out and settle the verdicts.
    tb.run_for(SimDuration::from_secs(60));
    let download_done = tb.sim.with::<Host, _>(tb.client, |h, _| {
        let c = h.app_mut::<RequestReplyClient>(0);
        c.is_done() && c.mismatches == 0
    });
    let standby_served = tb.sim.with::<Host, _>(tb.replicas[standby], |h, _| {
        h.app_mut::<SourceServer>(0).served
    });
    let audit_violations = tb.audit_violations();
    ChainRecovery {
        mttr_ns,
        reprovision_ns,
        catchup_ns,
        total_ns,
        final_lag,
        audit_violations,
        download_done,
        standby_served,
        tracker_json,
    }
}

fn opt_ms(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |n| format!("{:.3}", n as f64 / 1e6))
}

fn main() {
    let quick = std::env::var("TCPFO_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let cfg = if quick {
        OpenLoopConfig::quick()
    } else {
        OpenLoopConfig::full()
    };
    let overhead_ceiling: f64 = if quick { 1.30 } else { 1.05 };

    eprintln!(
        "bench_pr9: chain-link open-loop pair — {} residents, {} mice, {} shards, cap {}",
        cfg.resident_flows, cfg.mice_flows, cfg.shards, cfg.capacity,
    );
    // Best-of-N on the wall-clock ratio, exactly like bench_pr8: one
    // host hiccup in either run biases the pair.
    let attempts: usize = std::env::var("TCPFO_BENCH_ATTEMPTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    let mut detached_cfg = cfg.clone();
    detached_cfg.attach_health = false;
    let mut attached_cfg = cfg.clone();
    attached_cfg.attach_health = true;
    let mut best: Option<(f64, f64, f64)> = None;
    let mut lag_always_exact = true;
    for attempt in 1..=attempts {
        let detached = run_open_loop_chain(&detached_cfg);
        let attached = run_open_loop_chain(&attached_cfg);
        let lag = attached.lag.expect("attached run reports lag");
        lag_always_exact &= lag.exact();
        let ratio = detached.seg_per_sec / attached.seg_per_sec.max(1.0);
        eprintln!(
            "  attempt {attempt}/{attempts}: detached {:.0} seg/s, attached {:.0} seg/s, ratio {:.4}, lag exact {}",
            detached.seg_per_sec,
            attached.seg_per_sec,
            ratio,
            lag.exact(),
        );
        if best.as_ref().is_none_or(|(r, _, _)| ratio < *r) {
            best = Some((ratio, detached.seg_per_sec, attached.seg_per_sec));
        }
        if ratio <= overhead_ceiling {
            break;
        }
    }
    let (ratio, detached_rate, attached_rate) = best.expect("at least one attempt ran");

    // Gate 1: the chain link's attached throughput within the ceiling,
    // and the lag ledger exact on the chain datapath too.
    let overhead_bounded = ratio <= overhead_ceiling && lag_always_exact;
    eprintln!(
        "  chain overhead ratio {ratio:.4} (ceiling {overhead_ceiling:.2}): detached {detached_rate:.0} vs attached {attached_rate:.0} seg/s, lag exact {lag_always_exact}",
    );

    // Gates 2 and 3: the depth-3 recovery rehearsal. The simulated
    // transfer is sized so flows are still live at the handoff.
    let total: u64 = if quick { 4_000_000 } else { 8_000_000 };
    let rec = chain_recovery(total);
    let failover_healed = rec.mttr_ns.is_some() && rec.download_done && rec.audit_violations == 0;
    eprintln!(
        "  failover: mttr {} ms, download done {}, audit violations {}",
        opt_ms(rec.mttr_ns),
        rec.download_done,
        rec.audit_violations,
    );
    let redundancy_restored = rec.final_lag == 0
        && rec.total_ns.is_some()
        && rec.reprovision_ns.is_some_and(|n| n > 0)
        && rec.catchup_ns.is_some_and(|n| n > 0)
        && rec.standby_served > 0;
    eprintln!(
        "  reprovision: provisioning {} ms + catch-up {} ms = restored in {} ms, final lag {} B, standby served {} B",
        opt_ms(rec.reprovision_ns),
        opt_ms(rec.catchup_ns),
        opt_ms(rec.total_ns),
        rec.final_lag,
        rec.standby_served,
    );

    let json = format!(
        "{{\n  \"bench\": \"PR9 chain control plane: failover + reprovisioning\",\n  \"quick\": {quick},\n  \
         \"overhead\": {{\n    \
         \"ratio\": {ratio:.4},\n    \
         \"ceiling\": {overhead_ceiling:.2},\n    \
         \"detached_seg_per_sec\": {detached_rate:.0},\n    \
         \"attached_seg_per_sec\": {attached_rate:.0},\n    \
         \"lag_exact\": {lag_exact}\n  }},\n  \
         \"failover\": {{\n    \
         \"mttr_ms\": {mttr_ms},\n    \
         \"download_done\": {download_done},\n    \
         \"audit_violations\": {violations}\n  }},\n  \
         \"reprovision\": {{\n    \
         \"reprovision_ms\": {reprovision_ms},\n    \
         \"catchup_ms\": {catchup_ms},\n    \
         \"restored_ms\": {restored_ms},\n    \
         \"final_lag_bytes\": {final_lag},\n    \
         \"standby_served_bytes\": {standby_served},\n    \
         \"tracker\": {tracker}\n  }},\n  \
         \"gates\": {{\n    \
         \"overhead_bounded\": {overhead_bounded},\n    \
         \"failover_healed\": {failover_healed},\n    \
         \"redundancy_restored\": {redundancy_restored}\n  }}\n}}\n",
        lag_exact = u8::from(lag_always_exact),
        mttr_ms = opt_ms(rec.mttr_ns),
        download_done = u8::from(rec.download_done),
        violations = rec.audit_violations,
        reprovision_ms = opt_ms(rec.reprovision_ns),
        catchup_ms = opt_ms(rec.catchup_ns),
        restored_ms = opt_ms(rec.total_ns),
        final_lag = rec.final_lag,
        standby_served = rec.standby_served,
        tracker = rec.tracker_json,
    );

    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR9.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  write to {path} failed: {e}"),
    }
    trajectory::write_trajectory(9, &json);

    if !(overhead_bounded && failover_healed && redundancy_restored) {
        eprintln!("bench_pr9: GATE FAILURE");
        std::process::exit(1);
    }
    eprintln!("bench_pr9: all gates passed");
}
