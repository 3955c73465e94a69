//! PR-5 regression gates for the latency observatory.
//!
//! Four checks, written to `BENCH_PR5.json` (override with
//! `TCPFO_BENCH_JSON`), non-zero exit when a gate fails:
//!
//! 1. **Stage coverage** — a failover transfer with the observatory
//!    attached must populate every primary datapath stage (ingress
//!    parse, flow lookup, queue match, checksum fixup, egress emit)
//!    and the secondary's translation stages, with per-stage
//!    p50/p99/p999 below a generous host-time ceiling. Empty
//!    histograms mean an instrumentation site regressed.
//! 2. **MTTR decomposition** — repeated kill-mid-download runs must
//!    produce a complete §5 takeover decomposition (failure →
//!    detection → egress hold → translation off → gratuitous ARP →
//!    first client-visible byte from S) whose deltas sum exactly to
//!    the total, with detection bounded by the heartbeat timeout, the
//!    first client byte within 1 ms of the ARP takeover, and the whole
//!    MTTR within timeout + heartbeat interval + 5 ms.
//! 3. **Attached overhead** — the Fig. 5 stream rates with the
//!    observatory attached must match the detached rates (the
//!    recording is host-time only and must not perturb simulated
//!    behaviour), and on full runs must stay within 5% of the frozen
//!    `BENCH_PR2.json` figures.
//! 4. **Trajectory** — merges the headline figures of
//!    `BENCH_PR2..PR5` into `BENCH_TRAJECTORY.json` (tolerant of
//!    missing files) so the per-PR performance story is one artifact.
//!
//! `TCPFO_BENCH_QUICK=1` shrinks the workloads so CI finishes in
//! seconds.

use std::time::Instant;

use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::stream::SourceServer;
use tcpfo_bench::{
    json_figure, measure_failover_timing, measure_recv_rate_cfg, paper_testbed, run_until, Mode,
};
use tcpfo_core::testbed::{addrs, Testbed};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::{SimHistogram, Stage, StageLatency};

const SEED: u64 = 0xF5;

/// Host-time ceiling per recorded stage quantile: far above anything a
/// healthy run produces (µs-scale), low enough to catch a stage that
/// starts swallowing syscalls or page faults. CI machines are noisy;
/// this is a tripwire, not a tuning target.
const STAGE_P99_CEILING_NS: u64 = 50_000_000;

/// Sim-time ceiling on ARP takeover → first client byte from S. The
/// takeover kick retransmits in the takeover tick itself.
const FIRST_BYTE_CEILING_NS: u64 = 1_000_000;

/// Slack on the full MTTR (kill → first client byte from S) beyond the
/// worst-case detection time, timeout + one heartbeat interval.
const MTTR_SLACK_NS: u64 = 5_000_000;

/// Drives a kill-mid-download transfer with the observatory attached
/// and returns the primary's stage histograms (snapshotted just before
/// the kill) plus the secondary's (after completion).
fn stage_latency_run(quick: bool) -> (StageLatency, StageLatency) {
    let total: u64 = if quick { 1_000_000 } else { 4_000_000 };
    let mut cfg = paper_testbed(Mode::Failover, SEED);
    cfg.audit = Some(false);
    cfg.latency = Some(true);
    let mut tb = Testbed::new(cfg);
    for node in [tb.primary, tb.secondary.expect("replicated testbed")] {
        tb.sim.with::<Host, _>(node, |h, _| {
            h.add_app(Box::new(SourceServer::new(80)));
        });
    }
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            format!("SEND {total}\n").into_bytes(),
            total,
        )));
    });
    run_until(&mut tb, SimDuration::from_secs(60), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).received_len() > total / 4
        })
    });
    // The primary dies with the kill; harvest its histograms first.
    let primary = tb
        .with_observers(tb.primary, |o| o.latency().map(|l| *l.stages()))
        .expect("observatory attached to primary");
    tb.kill_primary();
    let ok = run_until(&mut tb, SimDuration::from_secs(60), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<RequestReplyClient>(0).is_done()
        })
    });
    assert!(ok, "failover transfer did not finish");
    let s = tb.secondary.expect("replicated testbed");
    let secondary = tb
        .with_observers(s, |o| o.latency().map(|l| *l.stages()))
        .expect("observatory attached to secondary");
    (primary, secondary)
}

/// One JSON object per stage: count plus the quantiles the gate reads.
fn stages_json(lat: &StageLatency, indent: &str) -> String {
    Stage::ALL
        .iter()
        .map(|&s| {
            let h = lat.stage(s);
            format!(
                "{indent}\"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}, \"max_ns\": {}}}",
                s.name(),
                h.count(),
                h.p50(),
                h.p99(),
                h.p999(),
                h.max()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let quick = std::env::var("TCPFO_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    eprintln!("bench_pr5: quick={quick}");

    // Gate 1: every instrumented stage fires, quantiles stay sane.
    let (primary, secondary) = stage_latency_run(quick);
    let mut gate_stages = true;
    for (label, lat, required) in [
        ("primary", &primary, &Stage::ALL[..]),
        (
            "secondary",
            &secondary,
            // The secondary's witness path never emits from templates
            // or matches queues; those stages stay empty by design.
            &[Stage::IngressParse, Stage::FlowLookup, Stage::ChecksumFixup][..],
        ),
    ] {
        for &s in required {
            let h = lat.stage(s);
            let ok = h.count() > 0 && h.p99() <= STAGE_P99_CEILING_NS;
            if !ok {
                eprintln!(
                    "  stage FAILED: {label}.{} count={} p99={}ns",
                    s.name(),
                    h.count(),
                    h.p99()
                );
            }
            gate_stages &= ok;
        }
        eprintln!("  stages[{label}]:");
        for line in lat.report().lines() {
            eprintln!("    {line}");
        }
    }

    // Gate 2: the §5 takeover decomposition, across seeds.
    let seeds: &[u64] = if quick { &[11] } else { &[11, 12, 13] };
    let timeout = SimDuration::from_millis(100);
    // The detector interval `measure_failover_timing` pairs with it.
    let interval = timeout.as_nanos() / 5;
    let mttr_ceiling_ns = timeout.as_nanos() + interval + MTTR_SLACK_NS;
    let mut gate_mttr = true;
    let mut total_hist = SimHistogram::new();
    let mut component_hists = [SimHistogram::new(); 5];
    let mut runs = Vec::new();
    for &seed in seeds {
        let t = measure_failover_timing(timeout, seed);
        let Some(m) = t.mttr else {
            eprintln!("  mttr FAILED: seed {seed} produced no complete decomposition");
            gate_mttr = false;
            continue;
        };
        let deltas = m.deltas();
        let sums = deltas.iter().sum::<u64>() == m.total_ns;
        let bounded = m.detection_ns <= 2 * timeout.as_nanos() + 50_000_000
            && m.first_byte_ns <= FIRST_BYTE_CEILING_NS
            && m.total_ns <= mttr_ceiling_ns;
        if !(t.completed && sums && bounded) {
            eprintln!(
                "  mttr FAILED: seed {seed} completed={} sums={sums} \
                 detection={}ms first byte={}µs (ceiling {}µs) \
                 total={}ms (ceiling {}ms)",
                t.completed,
                m.detection_ns / 1_000_000,
                m.first_byte_ns / 1_000,
                FIRST_BYTE_CEILING_NS / 1_000,
                m.total_ns / 1_000_000,
                mttr_ceiling_ns / 1_000_000
            );
            gate_mttr = false;
        }
        total_hist.record(m.total_ns);
        for (h, d) in component_hists.iter_mut().zip(deltas) {
            h.record(d);
        }
        eprintln!(
            "  mttr seed {seed}: detection {}ms, hold {}µs, translation {}µs, \
             arp {}µs, first byte {}ms, total {}ms",
            m.detection_ns / 1_000_000,
            m.hold_ns / 1_000,
            m.translation_ns / 1_000,
            m.arp_ns / 1_000,
            m.first_byte_ns / 1_000_000,
            m.total_ns / 1_000_000
        );
        runs.push(m);
    }
    gate_mttr &= !runs.is_empty();

    // Gate 3: attaching the observatory must not perturb the simulated
    // Fig. 5 rates — and on full runs they must still match the frozen
    // PR-2 figures within 5%.
    let stream_bytes: u64 = if quick { 2_000_000 } else { 20_000_000 };
    let mut detached_cfg = paper_testbed(Mode::Failover, SEED);
    detached_cfg.audit = Some(false);
    detached_cfg.latency = Some(false);
    let mut attached_cfg = detached_cfg.clone();
    attached_cfg.latency = Some(true);
    let wall = Instant::now();
    let recv_detached = measure_recv_rate_cfg(detached_cfg, stream_bytes);
    let detached_wall = wall.elapsed().as_secs_f64();
    let wall = Instant::now();
    let recv_attached = measure_recv_rate_cfg(attached_cfg, stream_bytes);
    let attached_wall = wall.elapsed().as_secs_f64();
    let parity = (recv_attached - recv_detached).abs() / recv_detached;
    let wall_ratio = attached_wall / detached_wall.max(1e-9);
    let mut gate_overhead = parity < 0.05;
    eprintln!(
        "  overhead: recv {recv_detached:.2} KB/s detached vs {recv_attached:.2} KB/s \
         attached (sim drift {:.2}%), wall ratio {wall_ratio:.3}",
        parity * 100.0
    );
    if !quick {
        match std::fs::read_to_string("BENCH_PR2.json") {
            Ok(json) => match json_figure(&json, "recv_kbps", "failover") {
                Some(frozen) => {
                    let drift = (recv_attached - frozen).abs() / frozen;
                    let ok = drift < 0.05;
                    if !ok {
                        eprintln!(
                            "  overhead FAILED: attached recv {recv_attached:.2} vs \
                             frozen PR2 {frozen:.2} ({:.2}% drift)",
                            drift * 100.0
                        );
                    }
                    gate_overhead &= ok;
                }
                None => eprintln!("  overhead: recv_kbps.failover missing from BENCH_PR2.json"),
            },
            Err(e) => eprintln!("  overhead: BENCH_PR2.json unreadable ({e}), skipping parity"),
        }
    }

    let mttr_json = {
        let comp = MTTR_COMPONENTS
            .iter()
            .zip(&component_hists)
            .map(|(name, h)| {
                format!(
                    "    \"{name}\": {{\"p50_ms\": {:.3}, \"max_ms\": {:.3}}}",
                    h.p50() as f64 / 1e6,
                    h.max() as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n    \"runs\": {},\n    \"timeout_ms\": {},\n{comp},\n    \
             \"total\": {{\"p50_ms\": {:.3}, \"max_ms\": {:.3}}}\n  }}",
            runs.len(),
            timeout.as_millis(),
            total_hist.p50() as f64 / 1e6,
            total_hist.max() as f64 / 1e6
        )
    };

    let json = format!(
        "{{\n  \"bench\": \"PR5 latency observatory\",\n  \"quick\": {quick},\n  \
         \"stages_primary\": {{\n{}\n  }},\n  \
         \"stages_secondary\": {{\n{}\n  }},\n  \
         \"mttr\": {mttr_json},\n  \
         \"overhead\": {{\n    \
         \"stream_bytes\": {stream_bytes},\n    \
         \"recv_kbps_detached\": {recv_detached:.2},\n    \
         \"recv_kbps_attached\": {recv_attached:.2},\n    \
         \"sim_drift\": {parity:.6},\n    \
         \"wall_ratio\": {wall_ratio:.3}\n  }},\n  \
         \"gates\": {{\n    \
         \"stage_coverage\": {gate_stages},\n    \
         \"mttr_decomposition\": {gate_mttr},\n    \
         \"attached_overhead\": {gate_overhead}\n  }}\n}}\n",
        stages_json(&primary, "    "),
        stages_json(&secondary, "    "),
    );
    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR5.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("  wrote {path}");

    // Satellite: merge this document with the other frozen bench
    // JSONs into the cross-PR trajectory artifact (tolerant of
    // missing inputs — see `tcpfo_bench::trajectory`).
    tcpfo_bench::trajectory::write_trajectory(5, &json);

    if !(gate_stages && gate_mttr && gate_overhead) {
        eprintln!("bench_pr5: GATE FAILURE");
        std::process::exit(1);
    }
    eprintln!("bench_pr5: all gates passed");
}

const MTTR_COMPONENTS: [&str; 5] = [
    "detection",
    "egress_hold",
    "translation_off",
    "arp_takeover",
    "first_client_byte",
];
