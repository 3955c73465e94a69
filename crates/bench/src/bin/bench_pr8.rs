//! PR-8 regression gates: the replica health & replication-lag
//! observatory is cheap, exact, and earlier than the binary detector.
//!
//! 1. **Attached overhead bounded** — re-running the PR-7 open-loop
//!    profile (2²⁰ residents) with the health observatory attached
//!    must stay within 5 % of the detached throughput. Detached, the
//!    observatory costs one branch per queue mutation; the zero-alloc
//!    proof (`zero_alloc.rs`) separately pins the attached hot path to
//!    zero allocations.
//! 2. **Lag ledger exact** — at end of the attached run, the
//!    incrementally maintained unmatched-bytes/segments ledger must
//!    equal an oracle that re-derives the Δseq backlog by walking
//!    every live connection's primary output queue.
//! 3. **Warn precedes detection** — under staged degradation (rising
//!    loss, latency and jitter on the primary's attachment before a
//!    fail-stop), the secondary's alert journal must record `Warn`
//!    strictly before the binary heartbeat detector fires; the lead
//!    time is a headline figure.
//!
//! Headline figures (overhead ratio, exactness, warn lead) merge into
//! `BENCH_TRAJECTORY.json`. `TCPFO_BENCH_QUICK=1` shrinks the load
//! runs for CI; the throughput gate is proportionally looser there.
//! Like the PR-7 tail gate, the overhead ratio is a wall-clock
//! measurement on shared hosts, so it is attempted up to
//! `TCPFO_BENCH_ATTEMPTS` (default 3) times and the best ratio kept.

use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::loadgen::{lag_exactness, run_open_loop, LagExactness, OpenLoopConfig};
use tcpfo_bench::{paper_testbed, run_until, trajectory, Mode};
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

/// One staged-degradation rehearsal: clean baseline, three escalating
/// stages of loss/latency/jitter on the primary's attachment, then a
/// fail-stop. Returns `(first_warn_ns, detected_ns, journal_json)`
/// from the secondary's advisory monitor and binary detector.
fn staged_degradation() -> (Option<u64>, Option<u64>, String) {
    let mut tb = Testbed::new(TestbedConfig {
        health: Some(true),
        ..TestbedConfig::default()
    });
    // Clean baseline: scores settle near 100, SLO windows fill good.
    tb.run_for(SimDuration::from_millis(500));
    let p = tb.replicas[0];
    // Stage 1: mild — a little extra latency, a trickle of loss.
    tb.reshape_links(p, |l| {
        l.with_loss((l.loss + 0.05).min(1.0))
            .with_propagation(SimDuration::from_millis(2))
    });
    tb.run_for(SimDuration::from_millis(300));
    // Stage 2: degraded — RTT past the scoring ceiling, visible loss.
    tb.reshape_links(p, |l| {
        l.with_loss(0.15)
            .with_propagation(SimDuration::from_millis(8))
            .with_jitter(SimDuration::from_millis(4))
    });
    tb.run_for(SimDuration::from_millis(300));
    // Stage 3: failing — heavy loss and jitter, heartbeats erratic but
    // still (mostly) inside the binary timeout.
    tb.reshape_links(p, |l| {
        l.with_loss(0.30)
            .with_propagation(SimDuration::from_millis(12))
            .with_jitter(SimDuration::from_millis(8))
    });
    tb.run_for(SimDuration::from_millis(300));
    // The crash the staging was foreshadowing.
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(500));
    let warn = tb.with_health_monitor(1, |m| m.first_warn_at()).flatten();
    let detect = tb.failover_detected_at(1).map(|t| t.as_nanos());
    let journal = tb
        .with_health_monitor(1, |m| m.journal().to_json())
        .unwrap_or_else(|| "[]".to_string());
    (warn, detect, journal)
}

/// Ledger-vs-oracle comparison at a **provably non-zero** backlog: a
/// mid-download transfer whose secondary is fail-stopped while the
/// primary is still inside the detection window, so every byte the
/// server emits is held unmatched. The open-loop run's end-of-run
/// comparison typically lands at a fully drained ledger (0 == 0); this
/// scenario pins the exactness claim where it is hardest — with live
/// held bytes on the queue.
fn held_backlog_exactness() -> LagExactness {
    const TOTAL: u64 = 1_000_000;
    let mut cfg = paper_testbed(Mode::Failover, 0xF8);
    cfg.health = Some(true);
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {TOTAL}\n").into_bytes(),
            TOTAL,
        )));
    });
    run_until(&mut tb, SimDuration::from_secs(60), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).received_len() > TOTAL / 4
        })
    });
    // Fail-stop the witness, then sample well inside the 50 ms
    // detection timeout: the primary has not yet declared its peer dead
    // and is still holding every newly produced byte unmatched.
    tb.kill_replica(1);
    tb.run_for(SimDuration::from_millis(20));
    tb.with_primary_bridge(|bridge| {
        let obs = bridge.observers().health().expect("health attached");
        lag_exactness(bridge, obs)
    })
    .expect("primary bridge present")
}

/// The `"exact"` figure is the overall gate-2 verdict (open-loop AND
/// held-backlog exactness) — it is the headline the trajectory reads.
fn lag_json(lag: &LagExactness, overall_exact: bool) -> String {
    format!(
        "{{\n    \"exact\": {},\n    \
         \"ledger_bytes\": {},\n    \
         \"oracle_bytes\": {},\n    \
         \"ledger_segments\": {},\n    \
         \"oracle_segments\": {},\n    \
         \"releases\": {},\n    \
         \"peak_bytes\": {}\n  }}",
        u8::from(overall_exact),
        lag.ledger_bytes,
        lag.oracle_bytes,
        lag.ledger_segments,
        lag.oracle_segments,
        lag.releases,
        lag.peak_bytes,
    )
}

fn main() {
    let quick = std::env::var("TCPFO_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let cfg = if quick {
        OpenLoopConfig::quick()
    } else {
        OpenLoopConfig::full()
    };
    // Full profile gates the headline 5 % overhead bound; quick runs
    // on shared CI runners where two back-to-back wall-clock runs see
    // real scheduler noise, so its bound is looser.
    let overhead_ceiling: f64 = if quick { 1.30 } else { 1.05 };

    eprintln!(
        "bench_pr8: open-loop pair — {} residents, {} mice, {} shards, cap {}",
        cfg.resident_flows, cfg.mice_flows, cfg.shards, cfg.capacity,
    );
    // The overhead ratio compares two wall-clock runs; one host hiccup
    // in either biases it. Attempt up to TCPFO_BENCH_ATTEMPTS pairs,
    // keep the best (lowest) ratio, stop early once the gate passes.
    // The lag-exactness check is noise-free and must hold on EVERY
    // attempted run — exactness is not a best-of property.
    let attempts: usize = std::env::var("TCPFO_BENCH_ATTEMPTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    let mut detached_cfg = cfg.clone();
    detached_cfg.attach_health = false;
    let mut attached_cfg = cfg.clone();
    attached_cfg.attach_health = true;
    let mut best: Option<(f64, f64, f64, LagExactness)> = None;
    let mut lag_always_exact = true;
    for attempt in 1..=attempts {
        let detached = run_open_loop(&detached_cfg);
        let attached = run_open_loop(&attached_cfg);
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
        if best.as_ref().is_none_or(|(r, _, _, _)| ratio < *r) {
            best = Some((ratio, detached.seg_per_sec, attached.seg_per_sec, lag));
        }
        if ratio <= overhead_ceiling {
            break;
        }
    }
    let (ratio, detached_rate, attached_rate, lag) = best.expect("at least one attempt ran");

    // Gate 1: attached throughput within the overhead ceiling.
    let overhead_bounded = ratio <= overhead_ceiling;
    eprintln!(
        "  overhead ratio {ratio:.4} (ceiling {overhead_ceiling:.2}): detached {detached_rate:.0} vs attached {attached_rate:.0} seg/s",
    );

    // Gate 2: the lag ledger matched the queue-walk oracle on every
    // attempted open-loop run (which must have sampled releases), AND
    // on the held-backlog scenario where the oracle total is provably
    // non-zero — exactness at a drained queue alone proves little.
    let held = held_backlog_exactness();
    let lag_exact = lag_always_exact && lag.releases > 0 && held.exact() && held.oracle_bytes > 0;
    eprintln!(
        "  lag ledger {} B / {} segs vs oracle {} B / {} segs ({} releases, peak {} B)",
        lag.ledger_bytes,
        lag.ledger_segments,
        lag.oracle_bytes,
        lag.oracle_segments,
        lag.releases,
        lag.peak_bytes,
    );
    eprintln!(
        "  held backlog: ledger {} B / {} segs vs oracle {} B / {} segs: {}",
        held.ledger_bytes,
        held.ledger_segments,
        held.oracle_bytes,
        held.oracle_segments,
        if lag_exact { "exact" } else { "DIVERGED" },
    );

    // Gate 3: staged degradation — Warn strictly before detection.
    let (warn_at, detect_at, journal) = staged_degradation();
    let warn_precedes = matches!((warn_at, detect_at), (Some(w), Some(d)) if w < d);
    let lead_ms = match (warn_at, detect_at) {
        (Some(w), Some(d)) if w < d => (d - w) as f64 / 1e6,
        _ => 0.0,
    };
    eprintln!(
        "  staged degradation: first warn {:?} ns, detected {:?} ns, lead {:.1} ms: {}",
        warn_at,
        detect_at,
        lead_ms,
        if warn_precedes {
            "warn preceded detection"
        } else {
            "WARN DID NOT PRECEDE"
        },
    );

    let json = format!(
        "{{\n  \"bench\": \"PR8 replica health & replication-lag observatory\",\n  \"quick\": {quick},\n  \
         \"overhead\": {{\n    \
         \"ratio\": {ratio:.4},\n    \
         \"ceiling\": {overhead_ceiling:.2},\n    \
         \"detached_seg_per_sec\": {detached_rate:.0},\n    \
         \"attached_seg_per_sec\": {attached_rate:.0}\n  }},\n  \
         \"lag\": {lag_block},\n  \
         \"held_backlog\": {{\n    \
         \"exact\": {held_exact},\n    \
         \"ledger_bytes\": {held_ledger_bytes},\n    \
         \"oracle_bytes\": {held_oracle_bytes},\n    \
         \"ledger_segments\": {held_ledger_segments},\n    \
         \"oracle_segments\": {held_oracle_segments}\n  }},\n  \
         \"alert\": {{\n    \
         \"first_warn_ns\": {warn_ns},\n    \
         \"detected_ns\": {detect_ns},\n    \
         \"warn_lead_ms\": {lead_ms:.3},\n    \
         \"journal\": {journal}\n  }},\n  \
         \"gates\": {{\n    \
         \"overhead_bounded\": {overhead_bounded},\n    \
         \"lag_exact\": {lag_exact},\n    \
         \"warn_precedes_detection\": {warn_precedes}\n  }}\n}}\n",
        lag_block = lag_json(&lag, lag_exact),
        held_exact = u8::from(held.exact()),
        held_ledger_bytes = held.ledger_bytes,
        held_oracle_bytes = held.oracle_bytes,
        held_ledger_segments = held.ledger_segments,
        held_oracle_segments = held.oracle_segments,
        warn_ns = warn_at.map_or("null".to_string(), |v| v.to_string()),
        detect_ns = detect_at.map_or("null".to_string(), |v| v.to_string()),
    );

    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  write to {path} failed: {e}"),
    }
    trajectory::write_trajectory(8, &json);

    if !(overhead_bounded && lag_exact && warn_precedes) {
        eprintln!("bench_pr8: GATE FAILURE");
        std::process::exit(1);
    }
    eprintln!("bench_pr8: all gates passed");
}
