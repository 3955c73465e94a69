//! PR-10 regression gates: cross-layer failover span tracing — the
//! armed tracer is cheap enough to leave on under the headline load,
//! the staged chain failover yields a loadable forensic timeline, and
//! the tail of the corrected-e2e distribution links back to traces.
//!
//! 1. **Tracing overhead bounded** — the PR-6 open-loop profile (2²⁰
//!    residents) with the span ring armed and the 1-in-64 hot-path
//!    batch sampler riding the datapath must stay within 5 % of the
//!    detached throughput. The zero-alloc proof (`zero_alloc.rs`)
//!    separately pins both the attached and detached span paths to
//!    zero allocations.
//! 2. **Forensic waterfall exact** — a depth-3 chain failover with
//!    tracing armed must produce Chrome trace-event JSON whose
//!    synthetic waterfall covers detection → commit → promotion →
//!    reprovision catch-up, with the five §5 phase spans summing
//!    *exactly* to the measured MTTR, next to live control-plane spans
//!    (heartbeat misses, the promotion decision, the VIP takeover).
//! 3. **Tail exemplars linked** — every exemplar captured off the
//!    attached run's corrected-e2e top buckets must carry a real span
//!    id, so a p99.9 outlier in the Prometheus exposition points at a
//!    concrete trace.
//!
//! Headline figures (overhead ratio, MTTR, exemplar count) merge into
//! `BENCH_TRAJECTORY.json`; the Chrome trace itself is written to
//! `FAILOVER_TRACE.json` (override: `TCPFO_CHROME_TRACE`) so CI can
//! archive a Perfetto-loadable artifact of the rehearsal.
//! `TCPFO_BENCH_QUICK=1` shrinks the load runs; the throughput gate is
//! proportionally looser there.

use tcpfo_apps::chain_ops;
use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::loadgen::{run_open_loop, OpenLoopConfig};
use tcpfo_bench::trajectory;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::{waterfall_records, MttrBreakdown, SpanKind};

/// What one traced failover rehearsal produced.
struct TracedFailover {
    /// The §5 decomposition from the promoting replica's timeline.
    mttr: Option<MttrBreakdown>,
    /// Σ of the five synthetic phase spans' durations (must == MTTR).
    phase_sum_ns: u64,
    /// Synthetic waterfall record count (5 phases + failover root,
    /// plus the redundancy triple once restored).
    waterfall_spans: usize,
    /// Live span records retained in the promoting replica's ring.
    live_spans: usize,
    /// Time-to-restored-redundancy from the tracker.
    restored_ns: Option<u64>,
    /// The Chrome trace-event JSON document.
    chrome: String,
    /// Control-plane event names the live ring must have recorded.
    missing_events: Vec<&'static str>,
}

/// Depth-3 chain with span tracing armed on every replica hub: kill
/// the head mid-download, let B1 promote, re-provision a fresh tail,
/// and export the promoting replica's ring as a Chrome trace merged
/// with the synthetic MTTR waterfall.
fn traced_failover(total: u64) -> TracedFailover {
    let mut tb = Testbed::new(TestbedConfig {
        replicas: 3,
        seed: 0xFA,
        audit: Some(true),
        health: Some(true),
        span_trace: Some(true),
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

    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    chain_ops::reprovision_tail(&mut tb);
    tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30));
    tb.run_for(SimDuration::from_secs(5));

    // The promoting replica (B1) carries the complete §5 timeline and
    // the control-plane spans of the takeover it performed.
    let hub = &tb.hubs[1];
    let mttr = hub.timeline.mttr();
    let waterfall = waterfall_records(&hub.timeline, &hub.redundancy);
    let phase_sum_ns = waterfall
        .iter()
        .filter(|r| !r.parent.is_none() && r.name != "reprovision" && r.name != "catchup")
        .map(|r| r.dur_ns)
        .sum();
    let chrome = hub.trace.chrome_trace(&waterfall);
    let live = hub.trace.records();
    let must_see = [
        "hb.miss",
        "chain.promote.decision",
        "chain.promotion",
        "chain.vip_takeover",
        "chain.promoted",
        "reprovision",
        "catchup",
    ];
    let missing_events = must_see
        .into_iter()
        .filter(|name| {
            !live.iter().any(|r| r.name == *name) && !waterfall.iter().any(|r| r.name == *name)
        })
        .collect();
    // The client-visible commit: the first post-takeover client byte
    // closes the waterfall, so the exported trace covers detection →
    // promotion commit end to end.
    let first_byte_spanned = waterfall
        .iter()
        .any(|r| r.name == "first_client_byte" && r.kind == SpanKind::Span);
    assert!(
        mttr.is_none() || first_byte_spanned,
        "complete timeline must synthesise the first_client_byte span"
    );
    TracedFailover {
        mttr,
        phase_sum_ns,
        waterfall_spans: waterfall.len(),
        live_spans: live.len(),
        restored_ns: tb.tracker.total_ns(),
        chrome,
        missing_events,
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
        "bench_pr10: traced open-loop pair — {} residents, {} mice, {} shards, cap {}",
        cfg.resident_flows, cfg.mice_flows, cfg.shards, cfg.capacity,
    );
    // Best-of-N on the wall-clock ratio: one host hiccup in either run
    // biases the pair.
    let attempts: usize = std::env::var("TCPFO_BENCH_ATTEMPTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3);
    let mut detached_cfg = cfg.clone();
    detached_cfg.attach_trace = false;
    let mut attached_cfg = cfg.clone();
    attached_cfg.attach_trace = true;
    let mut best: Option<(f64, f64, f64)> = None;
    let mut sampled_batches = 0u64;
    let mut spans_retained = 0usize;
    let mut spans_dropped = 0u64;
    let mut exemplars_captured = 0u64;
    let mut exemplar_slots = 0usize;
    let mut all_spanned = true;
    for attempt in 1..=attempts {
        let detached = run_open_loop(&detached_cfg);
        let attached = run_open_loop(&attached_cfg);
        let stats = attached.trace.expect("attached run reports trace stats");
        sampled_batches = stats.sampled_batches;
        spans_retained = stats.spans_retained;
        spans_dropped = stats.spans_dropped;
        let ex = attached.recorder.corrected_exemplars();
        exemplars_captured = ex.captured();
        exemplar_slots = ex.iter().count();
        all_spanned &= ex.iter().all(|e| !e.ctx.span.is_none());
        let ratio = detached.seg_per_sec / attached.seg_per_sec.max(1.0);
        eprintln!(
            "  attempt {attempt}/{attempts}: detached {:.0} seg/s, attached {:.0} seg/s, ratio {:.4}, sampled {} batches, {} exemplars",
            detached.seg_per_sec,
            attached.seg_per_sec,
            ratio,
            stats.sampled_batches,
            ex.captured(),
        );
        if best.as_ref().is_none_or(|(r, _, _)| ratio < *r) {
            best = Some((ratio, detached.seg_per_sec, attached.seg_per_sec));
        }
        if ratio <= overhead_ceiling {
            break;
        }
    }
    let (ratio, detached_rate, attached_rate) = best.expect("at least one attempt ran");

    // Gate 1: armed tracing within the throughput ceiling, and the
    // sampler actually sampled (a silent no-op would pass any ceiling).
    let overhead_bounded = ratio <= overhead_ceiling && sampled_batches > 0 && spans_retained > 0;
    eprintln!(
        "  trace overhead ratio {ratio:.4} (ceiling {overhead_ceiling:.2}): detached {detached_rate:.0} vs attached {attached_rate:.0} seg/s",
    );

    // Gate 2: the traced failover rehearsal and its exported waterfall.
    let total: u64 = if quick { 4_000_000 } else { 8_000_000 };
    let tf = traced_failover(total);
    let mttr_ns = tf.mttr.map(|m| m.total_ns);
    let waterfall_exact = tf.mttr.is_some_and(|m| {
        m.deltas().iter().sum::<u64>() == m.total_ns && tf.phase_sum_ns == m.total_ns
    }) && tf.restored_ns.is_some()
        && tf.waterfall_spans >= 9
        && tf.live_spans > 0
        && tf.missing_events.is_empty()
        && tf.chrome.contains("\"traceEvents\"");
    eprintln!(
        "  waterfall: mttr {} ms, phase sum {} ms, {} synthetic + {} live spans, restored {} ms, missing events {:?}",
        opt_ms(mttr_ns),
        opt_ms(Some(tf.phase_sum_ns)),
        tf.waterfall_spans,
        tf.live_spans,
        opt_ms(tf.restored_ns),
        tf.missing_events,
    );
    let trace_path =
        std::env::var("TCPFO_CHROME_TRACE").unwrap_or_else(|_| "FAILOVER_TRACE.json".to_string());
    match std::fs::write(&trace_path, &tf.chrome) {
        Ok(()) => eprintln!("  wrote {trace_path} ({} bytes)", tf.chrome.len()),
        Err(e) => eprintln!("  write to {trace_path} failed: {e}"),
    }

    // Gate 3: the corrected-e2e tail captured exemplars and every one
    // of them links a real span.
    let exemplars_present = exemplars_captured > 0 && exemplar_slots > 0 && all_spanned;
    eprintln!(
        "  exemplars: {exemplars_captured} captured into {exemplar_slots} slots, all spanned {all_spanned}",
    );

    let json = format!(
        "{{\n  \"bench\": \"PR10 failover span tracing + tail exemplars\",\n  \"quick\": {quick},\n  \
         \"overhead\": {{\n    \
         \"ratio\": {ratio:.4},\n    \
         \"ceiling\": {overhead_ceiling:.2},\n    \
         \"detached_seg_per_sec\": {detached_rate:.0},\n    \
         \"attached_seg_per_sec\": {attached_rate:.0},\n    \
         \"sampled_batches\": {sampled_batches},\n    \
         \"spans_retained\": {spans_retained},\n    \
         \"spans_dropped\": {spans_dropped}\n  }},\n  \
         \"waterfall\": {{\n    \
         \"mttr_ms\": {mttr_ms},\n    \
         \"phase_sum_ms\": {phase_sum_ms},\n    \
         \"restored_ms\": {restored_ms},\n    \
         \"synthetic_spans\": {synthetic},\n    \
         \"live_spans\": {live},\n    \
         \"chrome_bytes\": {chrome_bytes}\n  }},\n  \
         \"exemplars\": {{\n    \
         \"captured\": {exemplars_captured},\n    \
         \"slots\": {exemplar_slots},\n    \
         \"all_spanned\": {all_spanned_num}\n  }},\n  \
         \"gates\": {{\n    \
         \"overhead_bounded\": {overhead_bounded},\n    \
         \"waterfall_exact\": {waterfall_exact},\n    \
         \"exemplars_present\": {exemplars_present}\n  }}\n}}\n",
        mttr_ms = opt_ms(mttr_ns),
        phase_sum_ms = opt_ms(Some(tf.phase_sum_ns)),
        restored_ms = opt_ms(tf.restored_ns),
        synthetic = tf.waterfall_spans,
        live = tf.live_spans,
        chrome_bytes = tf.chrome.len(),
        all_spanned_num = u8::from(all_spanned),
    );

    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("  wrote {path}"),
        Err(e) => eprintln!("  write to {path} failed: {e}"),
    }
    trajectory::write_trajectory(10, &json);

    if !(overhead_bounded && waterfall_exact && exemplars_present) {
        eprintln!("bench_pr10: GATE FAILURE");
        std::process::exit(1);
    }
    eprintln!("bench_pr10: all gates passed");
}
