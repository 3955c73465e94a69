//! PR-4 regression gate for the sharded flow-table datapath.
//!
//! Four checks, written to `BENCH_PR4.json` (override with
//! `TCPFO_BENCH_JSON`), non-zero exit when a gate fails:
//!
//! 1. **Shard determinism** — the scripted many-flow workload, pushed
//!    through `PrimaryBridge::process_batch`, must produce *hash-
//!    identical* output at 1, 2, 4 and 8 shards, single- and
//!    multi-threaded. Sharding is an implementation detail; any
//!    divergence is a reordering or a cross-shard state leak.
//! 2. **Capacity** — a workload of more flows than the table holds
//!    must stay within the configured capacity, evict via LRU (counted,
//!    with RSTs for live flows) and never stall the datapath.
//! 3. **Churn GC** — open→close churn across many flows must drain to
//!    an empty table once the GC has seen the TimeWait TTL out: the
//!    PR-4 leak fix, measured end to end (full runs use 10 000 flows).
//! 4. **Fig. 5 parity** (full runs) — the end-to-end simulated stream
//!    rates must stay within 10% of the frozen `BENCH_PR3.json`
//!    figures (they are deterministic, so the expected drift is zero;
//!    the margin only covers intentional datapath re-tuning).
//!
//! `TCPFO_BENCH_QUICK=1` shrinks the workloads so CI finishes in
//! seconds.

use std::time::Instant;

use tcpfo_apps::manyflow::{ManyFlowConfig, ManyFlowNet, ManyFlowWorkload};
use tcpfo_bench::{json_figure, measure_recv_rate_cfg, measure_send_rate_cfg, paper_testbed, Mode};
use tcpfo_core::flow::{FlowTableConfig, GcPolicy, GC_INTERVAL_NANOS};
use tcpfo_core::{FailoverConfig, PrimaryBridge};
use tcpfo_net::ShardExecutor;
use tcpfo_tcp::filter::{FilterOutput, SegmentFilter};

const SEED: u64 = 0xF4;
const BATCH: usize = 64;

fn bridge(shards: usize, capacity: usize) -> PrimaryBridge {
    let net = ManyFlowNet::default();
    let mut b = PrimaryBridge::new(net.a_p, net.a_s, FailoverConfig::from_ports([80]));
    b.set_flow_config(FlowTableConfig::new(shards, capacity));
    b
}

/// FNV-1a over every output byte, with lane markers so reorderings
/// cannot collide.
fn digest(outs: &[FilterOutput]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for out in outs {
        eat(b"W");
        for seg in &out.to_wire {
            eat(&seg.bytes);
        }
        eat(b"T");
        for seg in &out.to_tcp {
            eat(&seg.bytes);
        }
    }
    h
}

/// Pushes the workload through `process_batch`; returns the output
/// digest, total segments processed and the wall-clock seconds.
fn run_workload(
    cfg: &ManyFlowConfig,
    shards: usize,
    threads: usize,
    capacity: usize,
) -> (u64, u64, usize, f64) {
    let workload = ManyFlowWorkload::generate(cfg, ManyFlowNet::default());
    let mut b = bridge(shards, capacity);
    let exec = ShardExecutor::new(threads);
    let segments = workload.steps().len();
    let mut outs = Vec::new();
    let mut now = 0u64;
    let wall = Instant::now();
    for chunk in workload.into_batches(BATCH) {
        now += 1_000_000;
        outs.extend(b.process_batch(chunk, now, &exec));
    }
    let secs = wall.elapsed().as_secs_f64();
    (digest(&outs), b.stats.merged_bytes, segments, secs)
}

fn main() {
    let quick = std::env::var("TCPFO_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let det_cfg = ManyFlowConfig {
        flows: if quick { 200 } else { 1000 },
        offset: 0,
        rounds: if quick { 2 } else { 4 },
        payload: 256,
        close: true,
        seed: SEED,
    };
    eprintln!(
        "bench_pr4: quick={quick} determinism_flows={} rounds={}",
        det_cfg.flows, det_cfg.rounds
    );

    // Gate 1: hash-identical output across shard/thread counts.
    let (ref_digest, ref_merged, segments, base_secs) = run_workload(&det_cfg, 1, 1, 65_536);
    let mut gate_determinism = true;
    let mut best_sharded = f64::INFINITY;
    for shards in [2usize, 4, 8] {
        for threads in [1usize, 4] {
            let (d, m, _, secs) = run_workload(&det_cfg, shards, threads, 65_536);
            if threads > 1 {
                best_sharded = best_sharded.min(secs);
            }
            let ok = d == ref_digest && m == ref_merged;
            if !ok {
                eprintln!(
                    "  determinism FAILED: shards={shards} threads={threads} \
                     digest {d:#018x} != {ref_digest:#018x}"
                );
            }
            gate_determinism &= ok;
        }
    }
    let seg_rate_base = segments as f64 / base_secs;
    let seg_rate_sharded = segments as f64 / best_sharded;
    eprintln!(
        "  determinism: {} segments, digest {ref_digest:#018x}, \
         {:.0} seg/s unsharded, {:.0} seg/s best sharded",
        segments, seg_rate_base, seg_rate_sharded
    );

    // Gate 2: capacity pressure. A first wave of no-close flows
    // establishes comfortably inside the table; a heavier second wave
    // then overloads it. Its SYNs must LRU-evict established
    // first-wave flows — which get reset with an RST (counted) rather
    // than silently wedged — and occupancy must never exceed the cap.
    // (Overload during the interleaved handshakes themselves just
    // thrashes Establishing entries — bounded, counted, but RST-less,
    // since a half-open flow has no client-facing sequence space yet.)
    let cap = 256usize;
    let wave = |offset: usize, flows: usize| ManyFlowConfig {
        flows,
        offset,
        rounds: 1,
        payload: 128,
        close: false, // flows stay resident: maximum pressure
        seed: SEED ^ 0x5a,
    };
    let first = 160; // well under cap: every flow establishes
    let second = if quick { 400 } else { 2000 };
    let mut b = bridge(4, cap);
    let exec = ShardExecutor::new(4);
    let mut now = 0u64;
    let mut peak = 0usize;
    let mut established = 0usize;
    for (i, cfg) in [wave(0, first), wave(first, second)]
        .into_iter()
        .enumerate()
    {
        let workload = ManyFlowWorkload::generate(&cfg, ManyFlowNet::default());
        for chunk in workload.into_batches(BATCH) {
            now += 1_000_000;
            let _ = b.process_batch(chunk, now, &exec);
            peak = peak.max(b.flow_count());
        }
        if i == 0 {
            established = b.conn_count();
            assert_eq!(
                b.stats.evicted_flows, 0,
                "first wave must fit without evictions"
            );
        }
    }
    let evicted = b.stats.evicted_flows;
    let evicted_rsts = b.stats.evicted_rsts;
    assert_eq!(established, first, "first wave fully establishes");
    let gate_capacity = peak <= cap && evicted > 0 && evicted_rsts > 0;
    eprintln!(
        "  capacity: cap {cap}, peak occupancy {peak}, evicted {evicted} \
         (RSTs {evicted_rsts})"
    );
    if !gate_capacity {
        eprintln!("  capacity FAILED: occupancy must stay <= cap with evictions counted");
    }

    // Gate 3: churn + GC — the table must drain once churn stops.
    let churn_cfg = ManyFlowConfig {
        flows: if quick { 1000 } else { 10_000 },
        offset: 0,
        rounds: 1,
        payload: 64,
        close: true,
        seed: SEED ^ 0xc3,
    };
    let workload = ManyFlowWorkload::generate(&churn_cfg, ManyFlowNet::default());
    let mut b = bridge(4, 65_536);
    let mut now = 0u64;
    for chunk in workload.into_batches(BATCH) {
        now += 1_000_000;
        let _ = b.process_batch(chunk, now, &exec);
    }
    let closed = b.stats.conns_closed;
    let resident_before_gc = b.flow_count();
    // Tick past the TimeWait TTL, then once per GC interval: a tick
    // reaps at most `max_reaps_per_tick` tombstones (the pause bound),
    // so draining takes ⌈flows / budget⌉ ticks; one spare is allowed.
    let max_ticks = churn_cfg
        .flows
        .div_ceil(GcPolicy::default().max_reaps_per_tick)
        + 1;
    let mut gc_ticks = 0;
    let mut tick_at = now + 120_000_000_000;
    while gc_ticks < max_ticks && b.flow_count() > 0 {
        b.on_tick(tick_at);
        tick_at += GC_INTERVAL_NANOS;
        gc_ticks += 1;
    }
    let resident_after_gc = b.flow_count();
    let gate_churn = closed == churn_cfg.flows as u64
        && resident_before_gc >= churn_cfg.flows
        && resident_after_gc == 0;
    eprintln!(
        "  churn: {} flows closed, {} resident before GC, {} after {} GC ticks",
        closed, resident_before_gc, resident_after_gc, gc_ticks
    );
    if !gate_churn {
        eprintln!("  churn FAILED: table must fully drain after the TimeWait TTL");
    }

    // Gate 4 (full runs): Fig. 5 parity against the frozen PR-3
    // figures — the refactor must not change end-to-end behaviour.
    let mut gate_parity = true;
    let (mut send_fo, mut recv_fo) = (0.0f64, 0.0f64);
    if quick {
        eprintln!("  PR3 parity: skipped (quick run uses a shorter stream)");
    } else {
        let stream_bytes = 20_000_000u64;
        let mut cfg = paper_testbed(Mode::Failover, 0xF5);
        cfg.audit = Some(false);
        send_fo = measure_send_rate_cfg(cfg.clone(), stream_bytes);
        recv_fo = measure_recv_rate_cfg(cfg, stream_bytes);
        match std::fs::read_to_string("BENCH_PR3.json") {
            Ok(json) => {
                for (name, got, want) in [
                    (
                        "send.failover",
                        send_fo,
                        json_figure(&json, "send_kbps", "failover"),
                    ),
                    (
                        "recv.failover",
                        recv_fo,
                        json_figure(&json, "recv_kbps", "failover"),
                    ),
                ] {
                    let Some(want) = want else {
                        eprintln!("  PR3 parity: {name} missing from BENCH_PR3.json");
                        gate_parity = false;
                        continue;
                    };
                    let ok = (got - want).abs() / want < 0.10;
                    if !ok {
                        eprintln!("  PR3 parity FAILED: {name} now {got:.2}, frozen {want:.2}");
                    }
                    gate_parity &= ok;
                }
            }
            Err(e) => {
                eprintln!("  PR3 parity: BENCH_PR3.json unreadable ({e}), skipping");
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"PR4 sharded flow table\",\n  \"quick\": {quick},\n  \
         \"determinism\": {{\n    \
         \"segments\": {segments},\n    \
         \"digest\": \"{ref_digest:#018x}\",\n    \
         \"seg_per_sec\": {{\"unsharded\": {seg_rate_base:.0}, \"sharded\": {seg_rate_sharded:.0}}}\n  }},\n  \
         \"capacity\": {{\n    \
         \"cap\": {cap},\n    \
         \"peak_occupancy\": {peak},\n    \
         \"evicted\": {evicted},\n    \
         \"evicted_rsts\": {evicted_rsts}\n  }},\n  \
         \"churn\": {{\n    \
         \"flows\": {},\n    \
         \"resident_before_gc\": {resident_before_gc},\n    \
         \"resident_after_gc\": {resident_after_gc},\n    \
         \"gc_ticks\": {gc_ticks}\n  }},\n  \
         \"fig5\": {{\n    \
         \"send_kbps_failover\": {send_fo:.2},\n    \
         \"recv_kbps_failover\": {recv_fo:.2}\n  }},\n  \
         \"gates\": {{\n    \
         \"shard_determinism\": {gate_determinism},\n    \
         \"capacity_bounded\": {gate_capacity},\n    \
         \"churn_drains\": {gate_churn},\n    \
         \"pr3_parity\": {gate_parity}\n  }}\n}}\n",
        churn_cfg.flows
    );
    let path = std::env::var("TCPFO_BENCH_JSON").unwrap_or_else(|_| "BENCH_PR4.json".to_string());
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("  wrote {path}");

    if !(gate_determinism && gate_capacity && gate_churn && gate_parity) {
        eprintln!("bench_pr4: GATE FAILURE");
        std::process::exit(1);
    }
    eprintln!("bench_pr4: all gates passed");
}
