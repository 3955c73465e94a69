//! PR-3 regression gate: the invariant auditor must be free when
//! detached and cheap when attached.
//!
//! Three checks, written to `BENCH_PR3.json` (override with
//! `TCPFO_BENCH_JSON`), non-zero exit when a gate fails:
//!
//! 1. **Detached parity** — the Fig. 5 stream rates with the auditor
//!    explicitly detached must match the frozen PR-2 figures in
//!    `BENCH_PR2.json` (simulated time is deterministic, so anything
//!    beyond float noise means the audit hooks leaked onto the
//!    detached datapath). Full runs only; quick runs use a shorter
//!    stream and skip the comparison.
//! 2. **Attached transparency** — with the auditor attached, the
//!    *simulated* rates must be bit-identical: the auditor observes,
//!    it never alters bridge behaviour.
//! 3. **Attached overhead** — the auditor's wall-clock cost on the
//!    failover stream scenario must stay ≤ 10% (quick runs gate at a
//!    looser 25%: their ~90 ms harness is dominated by timer noise).
//!
//! `TCPFO_BENCH_QUICK=1` shrinks the stream so CI finishes in seconds.

use std::time::Instant;

use tcpfo_apps::stream::SinkServer;
use tcpfo_bench::{measure_recv_rate_cfg, measure_send_rate_cfg, paper_testbed, run_until, Mode};
use tcpfo_core::testbed::{addrs, Testbed};
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

const SEED: u64 = 0xF5;

/// Fig. 5 send+recv rates for the failover testbed with the auditor
/// attached or detached; returns (send_kbps, recv_kbps, wall_ms).
fn fig5_failover(audit: bool, bytes: u64, reps: u32) -> (f64, f64, f64) {
    let mut best_wall = f64::INFINITY;
    let mut rates = (0.0, 0.0);
    for rep in 0..reps {
        let mut cfg = paper_testbed(Mode::Failover, SEED);
        cfg.audit = Some(audit);
        let wall = Instant::now();
        let send = measure_send_rate_cfg(cfg.clone(), bytes);
        let recv = measure_recv_rate_cfg(cfg, bytes);
        best_wall = best_wall.min(wall.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            rates = (send, recv);
        } else {
            assert_eq!(rates, (send, recv), "simulated rates must be deterministic");
        }
    }
    (rates.0, rates.1, best_wall)
}

/// Pulls the frozen Fig. 5 figure named `section.key` out of
/// `BENCH_PR2.json` without a JSON parser: the file is generated by
/// `bench_pr2` with a fixed layout.
fn pr2_figure(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let tail = &json[sec..];
    let k = tail.find(&format!("\"{key}\""))?;
    let tail = &tail[k + key.len() + 3..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
}

fn main() {
    let quick = std::env::var("TCPFO_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (bytes, reps) = if quick {
        (2_000_000u64, 3u32)
    } else {
        (20_000_000, 3)
    };
    eprintln!("bench_pr3: quick={quick} stream_bytes={bytes} reps={reps}");

    // Standard-TCP detached rates, for the Fig. 5 parity record.
    let mut std_cfg = paper_testbed(Mode::Standard, SEED);
    std_cfg.audit = Some(false);
    let send_std = measure_send_rate_cfg(std_cfg.clone(), bytes);
    let recv_std = measure_recv_rate_cfg(std_cfg, bytes);

    let (send_det, recv_det, wall_det) = fig5_failover(false, bytes, reps);
    let (send_att, recv_att, wall_att) = fig5_failover(true, bytes, reps);
    let overhead = wall_att / wall_det;
    eprintln!(
        "  detached: send {send_det:.1} recv {recv_det:.1} KB/s, wall {wall_det:.0} ms\n  \
         attached: send {send_att:.1} recv {recv_att:.1} KB/s, wall {wall_att:.0} ms\n  \
         overhead {:.1}%",
        (overhead - 1.0) * 100.0
    );

    // Gate 1: detached rates match the frozen PR-2 baseline.
    let mut gate_pr2 = true;
    if quick {
        eprintln!("  PR2 parity: skipped (quick run uses a shorter stream)");
    } else {
        match std::fs::read_to_string("BENCH_PR2.json") {
            Ok(json) => {
                for (name, got, want) in [
                    (
                        "send.standard",
                        send_std,
                        pr2_figure(&json, "send_kbps", "standard"),
                    ),
                    (
                        "send.failover",
                        send_det,
                        pr2_figure(&json, "send_kbps", "failover"),
                    ),
                    (
                        "recv.standard",
                        recv_std,
                        pr2_figure(&json, "recv_kbps", "standard"),
                    ),
                    (
                        "recv.failover",
                        recv_det,
                        pr2_figure(&json, "recv_kbps", "failover"),
                    ),
                ] {
                    let Some(want) = want else {
                        eprintln!("  PR2 parity: {name} missing from BENCH_PR2.json");
                        gate_pr2 = false;
                        continue;
                    };
                    // Deterministic simulated figures: anything beyond
                    // rounding noise means the detached path changed.
                    let ok = (got - want).abs() / want < 0.01;
                    if !ok {
                        eprintln!("  PR2 parity FAILED: {name} now {got:.2}, frozen {want:.2}");
                    }
                    gate_pr2 &= ok;
                }
            }
            Err(e) => {
                eprintln!("  PR2 parity: BENCH_PR2.json unreadable ({e}), skipping");
            }
        }
    }

    // Gate 2: the attached auditor does not alter simulated behaviour.
    let gate_transparent = send_att == send_det && recv_att == recv_det;
    if !gate_transparent {
        eprintln!(
            "  transparency FAILED: attached rates ({send_att:.4}, {recv_att:.4}) \
             != detached ({send_det:.4}, {recv_det:.4})"
        );
    }

    // Gate 3: ≤ 10% wall-clock overhead attached. The quick stream's
    // ~90 ms harness carries ±10% scheduler noise even best-of-reps,
    // so quick (CI smoke) runs gate at 25%; full runs are the real
    // bound.
    let limit = if quick { 1.25 } else { 1.10 };
    let gate_overhead = overhead <= limit;
    if !gate_overhead {
        eprintln!(
            "  overhead FAILED: {:.1}% > {:.0}%",
            (overhead - 1.0) * 100.0,
            (limit - 1.0) * 100.0
        );
    }

    // Audit work actually happened: count checks on a small attached
    // upload (the rate runs above don't expose their testbeds).
    let mut cfg = paper_testbed(Mode::Failover, SEED);
    cfg.audit = Some(true);
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(tcpfo_apps::driver::BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            100_000,
        )));
    });
    let ok = run_until(&mut tb, tcpfo_net::time::SimDuration::from_secs(30), |tb| {
        tb.sim.with::<Host, _>(tb.client, |h, _| {
            h.app_mut::<tcpfo_apps::driver::BulkSendClient>(0).is_done()
        })
    });
    assert!(ok, "audited probe upload did not finish");
    let checks = tb
        .with_observers(tb.replicas[0], |o| {
            o.audit().map(|a| a.ledger().total_checks())
        })
        .unwrap_or(0);
    let violations = tb.audit_violations();
    assert!(checks > 0, "attached auditor performed no checks");
    assert_eq!(violations, 0, "audited probe upload tripped a rule");

    let json = format!(
        "{{\n  \"bench\": \"PR3 invariant auditor\",\n  \"quick\": {quick},\n  \"fig5\": {{\n    \
         \"stream_bytes\": {bytes},\n    \
         \"send_kbps\": {{\"standard\": {send_std:.2}, \"failover\": {send_det:.2}}},\n    \
         \"recv_kbps\": {{\"standard\": {recv_std:.2}, \"failover\": {recv_det:.2}}}\n  }},\n  \
         \"audit\": {{\n    \
         \"detached_wall_ms\": {wall_det:.0},\n    \
         \"attached_wall_ms\": {wall_att:.0},\n    \
         \"overhead_ratio\": {overhead:.4},\n    \
         \"probe_checks\": {checks},\n    \
         \"probe_violations\": {violations}\n  }},\n  \
         \"gates\": {{\n    \
         \"detached_matches_pr2\": {gate_pr2},\n    \
         \"attached_is_transparent\": {gate_transparent},\n    \
         \"overhead_le_10pct\": {gate_overhead}\n  }}\n}}\n"
    );
    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR3.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("bench_pr3: wrote {path}");
    if !(gate_pr2 && gate_transparent && gate_overhead) {
        std::process::exit(1);
    }
}
