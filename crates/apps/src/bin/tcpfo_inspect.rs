//! `tcpfo-inspect`: operator's view of the bridge — connection state
//! tables, invariant-auditor ledgers, failover timeline, Prometheus
//! text export, and flight-recorder bundle pretty-printing.
//!
//! ```text
//! tcpfo-inspect run [--failover]   audited canned run, print state tables
//! tcpfo-inspect prometheus         same run, Prometheus exposition only
//! tcpfo-inspect watch [--failover] [--frames N] [--plain]
//!                                  live one-screen refresher over the run
//! tcpfo-inspect underload [--flows N] [--mice N] [--frames N] [--plain] [--prom]
//!                                  open-loop load run, live lag/occupancy/corrected-tail view
//! tcpfo-inspect health [--frames N] [--plain] [--prom]
//!                                  staged-degradation run, live health/lag/alert dashboard
//! tcpfo-inspect chain [--replicas N] [--frames N] [--plain] [--prom]
//!                                  depth-N chain run: head failure, promotion,
//!                                  tail reprovisioning, per-link health and lag
//! tcpfo-inspect trace [--replicas N] [--out FILE]
//!                                  traced chain failover: render the §5 MTTR
//!                                  waterfall + control-plane spans, export
//!                                  Chrome trace-event JSON (Perfetto loadable)
//! tcpfo-inspect bundle <dir>       pretty-print a flight-recorder bundle
//! ```
//!
//! The `run` subcommands drive the deterministic simulated testbed (no
//! sockets, no privileges), so the output is reproducible and the tool
//! doubles as a smoke test of the audited datapath.

use tcpfo_apps::chain_ops;
use tcpfo_apps::driver::RequestReplyClient;
use tcpfo_apps::manyflow::{FlowScript, ManyFlowConfig, ManyFlowNet, Step};
use tcpfo_apps::stream::SourceServer;
use tcpfo_core::flow::FlowTableConfig;
use tcpfo_core::testbed::{addrs, Testbed, TestbedConfig};
use tcpfo_core::{
    ChainBridge, ChainController, FailoverConfig, PrimaryBridge, SecondaryBridge, TakeoverState,
};
use tcpfo_net::time::SimDuration;
use tcpfo_net::{OpenLoopInjector, ShardExecutor};
use tcpfo_tcp::filter::SegmentFilter;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;
use tcpfo_telemetry::table::render_snapshot;
use tcpfo_telemetry::{
    HostClock, LatencyObservatory, Observers, Registry, ShardSample, Stage, UnderLoadRecorder,
};
use tcpfo_wire::eth::{EtherType, EthernetFrame};
use tcpfo_wire::ipv4::Ipv4Packet;
use tcpfo_wire::pcapng::read_packets;
use tcpfo_wire::tcp::TcpView;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(args.iter().any(|a| a == "--failover"), false),
        Some("prometheus") => run(false, true),
        Some("watch") => watch(&args[1..]),
        Some("underload") => underload(&args[1..]),
        Some("health") => health(&args[1..]),
        Some("chain") => chain(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("bundle") => match args.get(1) {
            Some(dir) => bundle(dir),
            None => usage(),
        },
        _ => usage(),
    };
    std::process::exit(code);
}

fn usage() -> i32 {
    eprintln!(
        "tcpfo-inspect — bridge state tables and Prometheus export\n\n\
         USAGE:\n  tcpfo-inspect run [--failover]   audited canned run, print state tables\n  \
         tcpfo-inspect prometheus         same run, Prometheus exposition only\n  \
         tcpfo-inspect watch [--failover] [--frames N] [--plain]\n                                   \
         live one-screen refresher over the run\n  \
         tcpfo-inspect underload [--flows N] [--mice N] [--frames N] [--plain] [--prom]\n                                   \
         open-loop load run, live lag/occupancy/corrected-tail view\n  \
         tcpfo-inspect health [--frames N] [--plain] [--prom]\n                                   \
         staged-degradation run, live health/lag/alert dashboard\n  \
         tcpfo-inspect chain [--replicas N] [--frames N] [--plain] [--prom]\n                                   \
         chain failover + reprovisioning, per-link health/lag view\n  \
         tcpfo-inspect trace [--replicas N] [--out FILE]\n                                   \
         traced chain failover: MTTR waterfall + Chrome trace export\n  \
         tcpfo-inspect bundle <dir>       pretty-print a flight-recorder bundle"
    );
    2
}

/// Drives an audited canned transfer (optionally failing the primary
/// mid-way) and prints the operator tables — or, with `prom_only`, just
/// the Prometheus text exposition.
fn run(failover: bool, prom_only: bool) -> i32 {
    let mut tb = Testbed::new(TestbedConfig {
        audit: Some(true),
        latency: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 2000000\n".to_vec(),
            2_000_000,
        )));
    });
    tb.run_for(SimDuration::from_millis(120));
    // Snapshot the primary's connection table mid-transfer, while the
    // bridge still holds live per-connection state.
    let rows = tb.sim.with::<Host, _>(tb.replicas[0], |h, _| {
        h.filter_mut()
            .as_any_mut()
            .downcast_mut::<ChainBridge>()
            .map(|b| b.connection_rows())
            .unwrap_or_default()
    });
    if failover {
        tb.kill_replica(0);
    }
    tb.run_for(SimDuration::from_secs(20));

    let snap = tb.metrics_snapshot();
    if prom_only {
        print!("{}", snap.to_prometheus());
        return exit_code(&mut tb);
    }

    println!("=== connections (primary bridge, mid-transfer) ===");
    println!(
        "{:<22} {:>5} {:>10} {:>6} {:>10} {:>6} {:>6} {:>10} {:>7} {:>4}",
        "client", "port", "delta", "mss", "send_next", "pq_B", "sq_B", "min_ack", "min_win", "fin"
    );
    for r in &rows {
        println!(
            "{:<22} {:>5} {:>10} {:>6} {:>10} {:>6} {:>6} {:>10} {:>7} {:>4}",
            r.client.to_string(),
            r.server_port,
            r.delta.map_or("-".into(), |d| d.to_string()),
            r.mss,
            r.send_next,
            r.pq_bytes,
            r.sq_bytes,
            r.min_ack.map_or("-".into(), |a| a.to_string()),
            r.min_win,
            if r.fin_sent { "yes" } else { "no" }
        );
    }

    println!("\n=== invariant auditors ===");
    for node in tb.replicas.clone() {
        if let Some(report) = tb.with_observers(node, |o| o.audit().map(|a| a.report())) {
            println!("{report}");
        }
    }

    // S runs the takeover, so its hub carries the §5 timeline.
    println!("=== failover timeline ===");
    println!("{}", tb.hubs[1].timeline.breakdown());

    println!("=== metrics ===");
    println!("{}", render_snapshot(&snap));
    exit_code(&mut tb)
}

/// Live one-screen refresher: drives the canned transfer in fixed
/// sim-time slices and redraws a compact dashboard — per-stage latency
/// quantiles, flow-table shard occupancy, headline counters, and the
/// failover timeline — after every slice. `--failover` kills the
/// primary halfway through; `--plain` suppresses the ANSI
/// clear-screen so the frames stack (useful for logs and CI).
fn watch(args: &[String]) -> i32 {
    let failover = args.iter().any(|a| a == "--failover");
    let plain = args.iter().any(|a| a == "--plain");
    let frames: usize = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let frames = frames.max(1);

    let mut tb = Testbed::new(TestbedConfig {
        audit: Some(true),
        latency: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 4000000\n".to_vec(),
            4_000_000,
        )));
    });

    let slice = SimDuration::from_millis(250);
    for frame in 0..frames {
        // Kill the primary after the first frame so the takeover lands
        // mid-transfer and the remaining frames show the recovery.
        if failover && frame == 1 {
            tb.kill_replica(0);
        }
        tb.run_for(slice);
        let snap = tb.metrics_snapshot();
        if !plain {
            // Clear screen and home the cursor so the frame redraws in
            // place.
            print!("\x1b[2J\x1b[H");
        }
        render_watch_frame(
            &snap,
            frame,
            frames,
            &tb.hubs[1].timeline.breakdown(),
            tb.sim.now(),
        );
    }
    exit_code(&mut tb)
}

/// One dashboard frame: latency quantiles, shard gauges, counters, and
/// the timeline so far.
fn render_watch_frame(
    snap: &tcpfo_telemetry::MetricsSnapshot,
    frame: usize,
    frames: usize,
    timeline: &str,
    now: tcpfo_net::time::SimTime,
) {
    println!(
        "tcpfo-inspect watch — frame {}/{} — sim t = {} ms",
        frame + 1,
        frames,
        now.as_nanos() / 1_000_000
    );

    println!("\n── per-stage latency (host ns) ──");
    println!(
        "{:<36} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "histogram", "count", "p50", "p99", "p999", "max"
    );
    let mut any = false;
    for (name, h) in &snap.histograms {
        if !name.contains(".lat.") {
            continue;
        }
        any = true;
        println!(
            "{:<36} {:>9} {:>8} {:>8} {:>8} {:>8}",
            name,
            h.count,
            h.p50(),
            h.p99(),
            h.p999(),
            h.max
        );
    }
    if !any {
        println!("(no latency samples yet)");
    }

    println!("\n── flow-table shards ──");
    println!(
        "{:<30} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shard", "occupancy", "inserted", "evicted", "reaped", "lru"
    );
    let shard_prefixes: std::collections::BTreeSet<String> = snap
        .gauges
        .keys()
        .filter_map(|k| {
            let (prefix, _) = k.rsplit_once('.')?;
            prefix.contains(".shard").then(|| prefix.to_string())
        })
        .collect();
    let gauge = |prefix: &str, field: &str| {
        snap.gauges
            .get(&format!("{prefix}.{field}"))
            .map_or(0, |g| g.value)
    };
    for p in &shard_prefixes {
        println!(
            "{:<30} {:>9} {:>9} {:>9} {:>9} {:>9}",
            p,
            gauge(p, "occupancy"),
            gauge(p, "inserted"),
            gauge(p, "evicted"),
            gauge(p, "reaped"),
            gauge(p, "lru_depth"),
        );
    }
    if shard_prefixes.is_empty() {
        println!("(no shard gauges yet)");
    }

    println!("\n── headline counters ──");
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        let headline = name.ends_with(".merged_segments")
            || name.ends_with(".merged_bytes")
            || name.ends_with(".empty_acks")
            || name.ends_with(".retransmissions_forwarded")
            || name.ends_with(".acks_translated")
            || name.ends_with(".ingress_translated")
            || name.ends_with(".egress_diverted")
            || name.ends_with(".drops");
        if headline {
            println!("{name:<44} {v:>12}");
        }
    }

    println!("\n── failover timeline ──");
    print!("{timeline}");
}

/// Open-loop load view: schedules a mice/elephants flow mix at fixed
/// intended times, injects it through a sharded `PrimaryBridge`, and
/// redraws a compact under-load dashboard — injection lag, backlog,
/// occupancy, and coordinated-omission-corrected tails — as the run
/// progresses. `--flows` sets the resident (held-open) flow count,
/// `--mice` the churned full-lifecycle flows, `--frames` the number of
/// dashboard redraws; `--plain` stacks frames instead of clearing the
/// screen and `--prom` appends the Prometheus exposition at the end.
fn underload(args: &[String]) -> i32 {
    let plain = args.iter().any(|a| a == "--plain");
    let prom = args.iter().any(|a| a == "--prom");
    let flag = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let residents = flag("--flows", 20_000).max(1);
    let mice = flag("--mice", 4_000);
    let frames = flag("--frames", 8).max(1);

    // The run is paced so the whole schedule spans ~0.5 s per frame:
    // flows arrive Poisson-like via jittered spacing from the scripted
    // seed, steps of one flow 20 µs apart.
    let span_ns: u64 = frames as u64 * 500_000_000;
    let net = ManyFlowNet::default();
    let ecfg = ManyFlowConfig {
        flows: residents,
        offset: 0,
        rounds: 1,
        payload: 64,
        close: false,
        seed: 0xF6,
    };
    let mcfg = ManyFlowConfig {
        flows: mice,
        offset: residents,
        rounds: 1,
        payload: 64,
        close: true,
        seed: 0xF6,
    };
    let mut schedule: Vec<(u64, (u32, u32))> = Vec::new();
    let mut push_flows = |cfg: &ManyFlowConfig, base: u32| {
        if cfg.flows == 0 {
            return;
        }
        let len = FlowScript::new(cfg, net, 0).len();
        let gap = span_ns / cfg.flows as u64;
        for f in 0..cfg.flows {
            // Deterministic jitter stands in for an arrival process so
            // the view does not depend on the bench crate.
            let jitter = (f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % gap.max(1);
            let t0 = f as u64 * gap + jitter;
            for k in 0..len {
                schedule.push((t0 + k as u64 * 20_000, (base + f as u32, k as u32)));
            }
        }
    };
    push_flows(&ecfg, 0);
    push_flows(&mcfg, residents as u32);
    let scheduled = schedule.len();

    let mut bridge = PrimaryBridge::new(net.a_p, net.a_s, FailoverConfig::from_ports([80]));
    let capacity = (residents + mice).next_power_of_two() * 2;
    bridge.set_flow_config(FlowTableConfig::new(16, capacity));
    bridge.set_latency(Some(Box::new(LatencyObservatory::new())));
    let exec = ShardExecutor::new(1);
    let mut inj = OpenLoopInjector::new(schedule, 64);
    let mut rec = UnderLoadRecorder::new(250_000_000, 8, capacity as u64);

    let mut stages_before = *bridge.latency().expect("observatory").stages();
    let mut sim_now = 0u64;
    let mut injected = 0u64;
    let mut batches = 0usize;
    let mut frame = 0usize;
    let mut due: Vec<(u64, (u32, u32))> = Vec::new();
    let t0 = HostClock::now_ns();
    while inj.remaining() > 0 {
        let now = HostClock::now_ns().saturating_sub(t0);
        due.clear();
        due.extend_from_slice(inj.take_due(now));
        if due.is_empty() {
            if let Some(next) = inj.next_intended() {
                let wait = next.saturating_sub(now);
                if wait > 1_000 {
                    std::thread::sleep(std::time::Duration::from_nanos(wait.min(100_000)));
                }
            }
        } else {
            let mut batch: Vec<Step> = Vec::with_capacity(due.len());
            let mut batch_lag = 0u64;
            for &(intended, (flow, k)) in due.iter() {
                batch_lag = batch_lag.max(now.saturating_sub(intended));
                let flow = flow as usize;
                let script = if flow < residents {
                    FlowScript::new(&ecfg, net, flow)
                } else {
                    FlowScript::new(&mcfg, net, flow - residents)
                };
                batch.push(script.step_at(k as usize));
            }
            bridge.process_batch(batch, sim_now, &exec);
            sim_now += 1_000_000;
            let done = HostClock::now_ns().saturating_sub(t0);
            for &(intended, _) in due.iter() {
                rec.record_segment(intended, now, done);
            }
            injected += due.len() as u64;
            let stages_after = *bridge.latency().expect("observatory").stages();
            rec.absorb_stage_window(&stages_before, &stages_after, batch_lag);
            stages_before = stages_after;
            rec.set_backlog(inj.backlog(done));
            batches += 1;
            if batches.is_multiple_of(32) {
                let shards: Vec<ShardSample> = bridge
                    .flow_shard_stats()
                    .iter()
                    .map(|s| ShardSample {
                        occupancy: s.occupancy,
                        evicted: s.evicted,
                    })
                    .collect();
                rec.sample_shards(&shards);
            }
            if batches.is_multiple_of(512) {
                let g0 = HostClock::now_ns();
                bridge.on_tick(sim_now);
                rec.record_gc_pause(HostClock::now_ns().saturating_sub(g0));
            }
        }
        // Redraw on frame boundaries of the *intended* timeline so the
        // cadence stays fixed even when the injector lags.
        let now = HostClock::now_ns().saturating_sub(t0);
        while frame < frames && (now >= (frame as u64 + 1) * span_ns / frames as u64) {
            frame += 1;
            if !plain {
                print!("\x1b[2J\x1b[H");
            }
            render_underload_frame(&rec, &bridge, frame, frames, injected, scheduled, now);
        }
    }
    let end = HostClock::now_ns().saturating_sub(t0);
    rec.set_backlog(0);
    if !plain {
        print!("\x1b[2J\x1b[H");
    }
    render_underload_frame(&rec, &bridge, frames, frames, injected, scheduled, end);
    println!(
        "\ndone: {injected}/{scheduled} segments in {:.2}s, {} live flows",
        end as f64 / 1e9,
        bridge.conn_count()
    );
    if prom {
        let registry = Registry::new();
        rec.publish(&registry.scope("inspect"), end);
        println!("\n{}", registry.snapshot(end).to_prometheus());
    }
    0
}

/// One under-load dashboard frame.
fn render_underload_frame(
    rec: &UnderLoadRecorder,
    bridge: &PrimaryBridge,
    frame: usize,
    frames: usize,
    injected: u64,
    scheduled: usize,
    now_ns: u64,
) {
    println!(
        "tcpfo-inspect underload — frame {frame}/{frames} — t = {} ms — {injected}/{scheduled} injected",
        now_ns / 1_000_000
    );

    let lag = rec.lag();
    println!("\n── injection lag (intended → actual, ns) ──");
    println!(
        "p50 {:>10}  p99 {:>10}  max {:>10}  backlog {:>7}  backlog peak {:>7}",
        lag.histogram().p50(),
        lag.histogram().p99(),
        lag.histogram().max(),
        lag.backlog(),
        lag.max_backlog(),
    );

    let gc = rec.gc_pause();
    println!("\n── gc pause (per tick, ns) ──");
    println!(
        "p50 {:>10}  p99 {:>10}  max {:>10}  ticks {:>9}",
        gc.p50(),
        gc.p99(),
        gc.max(),
        gc.count(),
    );

    println!("\n── end-to-end latency (ns) ──");
    let win = rec.windowed_quantile(now_ns, 0.99);
    let win999 = rec.windowed_quantile(now_ns, 0.999);
    println!(
        "naive     p99 {:>12}  p999 {:>12}   (closed-loop view)",
        rec.naive().p99(),
        rec.naive().p999()
    );
    println!(
        "corrected p99 {:>12}  p999 {:>12}   (CO-corrected, whole run)",
        rec.corrected().p99(),
        rec.corrected().p999()
    );
    println!(
        "window    p99 {:>12}  p999 {:>12}   (CO-corrected, sliding)",
        win.fmt_ns(),
        win999.fmt_ns()
    );

    println!("\n── per-stage corrected p999 (ns) ──");
    for s in Stage::ALL {
        let service = rec.stages_service().stage(s);
        let corrected = rec.stage_corrected(s);
        println!(
            "{:<16} service {:>10}  corrected {:>12}  ({} samples)",
            s.name(),
            service.quantile_report(0.999).fmt_ns(),
            corrected.quantile_report(0.999).fmt_ns(),
            corrected.count(),
        );
    }

    let stats = bridge.flow_stats();
    println!("\n── flow table ──");
    println!(
        "occupancy {:>9} (peak {:>9} / cap {:>9})  inserted {:>9}  evicted {:>6}  reaped {:>7}",
        stats.occupancy,
        rec.occupancy_peak(),
        rec.capacity(),
        stats.inserted,
        stats.evicted,
        stats.reaped,
    );
}

/// Staged-degradation health dashboard: drives a replicated transfer
/// with the health observatory attached, progressively degrades the
/// primary's links (latency, jitter, loss), then fail-stops it — and
/// redraws the secondary's view of the primary after every slice:
/// score axes, raw signals, SLO burn rates, the replication-lag
/// ledger, and the alert journal. The point of the exercise is visible
/// live: the advisory score degrades and `Warn` fires while the binary
/// heartbeat detector still considers the primary alive. `--prom`
/// appends the Prometheus exposition (registry + labelled alert
/// series) at the end.
fn health(args: &[String]) -> i32 {
    let plain = args.iter().any(|a| a == "--plain");
    let prom = args.iter().any(|a| a == "--prom");
    let frames: usize = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let frames = frames.max(4);

    let mut tb = Testbed::new(TestbedConfig {
        health: Some(true),
        latency: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 4000000\n".to_vec(),
            4_000_000,
        )));
    });

    // Degradation script over the frame timeline: healthy for the
    // first quarter, then three escalating stages, then the kill at
    // three quarters — the remaining frames show takeover + recovery.
    let stage1 = frames / 4;
    let stage2 = frames * 2 / 4;
    let stage3 = frames * 5 / 8;
    let kill = frames * 3 / 4;
    let slice = SimDuration::from_millis(250);
    for frame in 0..frames {
        let p = tb.replicas[0];
        if frame == stage1 {
            tb.reshape_links(p, |l| {
                l.with_loss((l.loss + 0.05).min(1.0))
                    .with_propagation(SimDuration::from_millis(2))
            });
        } else if frame == stage2 {
            tb.reshape_links(p, |l| {
                l.with_loss(0.15)
                    .with_propagation(SimDuration::from_millis(8))
                    .with_jitter(SimDuration::from_millis(4))
            });
        } else if frame == stage3 {
            tb.reshape_links(p, |l| {
                l.with_loss(0.30)
                    .with_propagation(SimDuration::from_millis(12))
                    .with_jitter(SimDuration::from_millis(8))
            });
        } else if frame == kill {
            tb.kill_replica(0);
        }
        tb.run_for(slice);
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        render_health_frame(&mut tb, frame, frames, stage1, stage2, stage3, kill);
    }

    if prom {
        let snap = tb.metrics_snapshot();
        println!("\n{}", snap.to_prometheus());
        if let Some(alerts) = tb.with_health_monitor(1, |m| m.alerts_prometheus("core.chain.r1")) {
            print!("{alerts}");
        }
    }
    exit_code(&mut tb)
}

/// One health-dashboard frame: the secondary's scored view of the
/// primary, the primary's lag ledger (while it is still alive), and
/// the alert journal so far.
fn render_health_frame(
    tb: &mut Testbed,
    frame: usize,
    frames: usize,
    stage1: usize,
    stage2: usize,
    stage3: usize,
    kill: usize,
) {
    let phase = match frame {
        f if f >= kill => "primary KILLED — takeover",
        f if f >= stage3 => "degradation stage 3 (heavy loss + jitter)",
        f if f >= stage2 => "degradation stage 2 (loss + latency)",
        f if f >= stage1 => "degradation stage 1 (mild)",
        _ => "healthy baseline",
    };
    println!(
        "tcpfo-inspect health — frame {}/{} — sim t = {} ms — {phase}",
        frame + 1,
        frames,
        tb.sim.now().as_nanos() / 1_000_000
    );

    let view = tb.with_health_monitor(1, |m| {
        (
            m.score(),
            m.state(),
            m.first_warn_at(),
            m.journal()
                .events()
                .map(|e| (e.at_ns, e.from, e.to, e.score, e.reason))
                .collect::<Vec<_>>(),
        )
    });
    match view {
        Some((score, state, first_warn, journal)) => {
            println!("\n── replica health (secondary's view of the primary) ──");
            println!(
                "score {:>3}/100  [liveness {:>3}  rtt {:>3}  jitter {:>3}  loss {:>3}  backlog {:>3}]  alert: {}",
                score.total,
                score.liveness,
                score.rtt,
                score.jitter,
                score.loss,
                score.backlog,
                state.name(),
            );
            println!(
                "signals: rtt {:>9} ns  jitter {:>9} ns  misses {:>2}  loss {:>6} ppm  lag {:>8} B",
                score.rtt_ns, score.jitter_ns, score.misses, score.loss_ppm, score.lag_bytes,
            );
            if let Some(at) = first_warn {
                println!("first warn at sim t = {} ms", at / 1_000_000);
            }
            println!("\n── alert journal ──");
            if journal.is_empty() {
                println!("(no transitions yet)");
            }
            for (at_ns, from, to, score, reason) in &journal {
                println!(
                    "{:>8} ms  {:>8} → {:<8} score {:>3}  ({reason})",
                    at_ns / 1_000_000,
                    from.name(),
                    to.name(),
                    score,
                );
            }
        }
        None => println!("\n(no health monitor on the secondary)"),
    }

    println!("\n── replication lag (primary's ledger) ──");
    let lag = tb.with_observers(tb.replicas[0], |o| {
        o.health().map(|obs| {
            (
                obs.lag.unmatched_bytes(),
                obs.lag.unmatched_segments(),
                obs.lag.peak_bytes(),
                obs.lag.releases(),
            )
        })
    });
    match lag {
        Some((bytes, segments, peak, releases)) => println!(
            "unmatched {bytes:>8} B / {segments:>5} segs  peak {peak:>8} B  releases {releases:>7}",
        ),
        None => println!("(primary gone — ledger died with it)"),
    }
}

/// Chain dashboard: drives a depth-N chain serving a live download,
/// kills the head a quarter of the way in, re-provisions a standby
/// tail at the halfway mark, and redraws the whole control plane after
/// every slice — per-link role, takeover state and health score,
/// replication lag per hop, the reprovisioning phase clock, and the
/// recent chain journal (promotions, vetoes, kills, adoption). `--prom`
/// appends each replica's Prometheus exposition at the end.
fn chain(args: &[String]) -> i32 {
    let plain = args.iter().any(|a| a == "--plain");
    let prom = args.iter().any(|a| a == "--prom");
    let flag = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let replicas = flag("--replicas", 3).clamp(2, 8);
    let frames = flag("--frames", 8).max(4);

    let mut tb = Testbed::new(TestbedConfig {
        replicas,
        seed: 0x1C,
        audit: Some(true),
        health: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 16000000\n".to_vec(),
            16_000_000,
        )));
    });

    // Script over the frame timeline: healthy chain for the first
    // quarter, head killed at a quarter, standby reprovisioned as the
    // new tail at the halfway mark; the rest shows catch-up draining.
    let kill = (frames / 4).max(1);
    let reprovision = (frames / 2).max(kill + 1);
    let slice = SimDuration::from_millis(250);
    let mut standby = None;
    for frame in 0..frames {
        if frame == kill {
            tb.kill_replica(0);
        } else if frame == reprovision {
            standby = Some(chain_ops::reprovision_tail(&mut tb));
        }
        tb.run_for(slice);
        tb.poll_reprovision();
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        render_chain_frame(&mut tb, frame, frames, kill, reprovision, standby);
    }

    if prom {
        tb.sync_telemetry();
        let now = tb.sim.now().as_nanos();
        for i in 0..tb.replicas.len() {
            if tb.dead[i] {
                continue;
            }
            println!("\n# replica {i} ({})", tb.replica_addrs[i]);
            print!("{}", tb.hubs[i].registry.snapshot(now).to_prometheus());
        }
    }

    let violations = tb.audit_violations();
    if violations > 0 {
        eprintln!("tcpfo-inspect: {violations} invariant violation(s) recorded");
        1
    } else {
        0
    }
}

/// One chain-dashboard frame: topology + per-link control-plane state,
/// lag per hop, the reprovision clock, and the recent chain journal.
fn render_chain_frame(
    tb: &mut Testbed,
    frame: usize,
    frames: usize,
    kill: usize,
    reprovision: usize,
    standby: Option<usize>,
) {
    let phase = match frame {
        f if f >= reprovision => "standby reprovisioned — catch-up",
        f if f >= kill => "head KILLED — takeover",
        _ => "healthy chain",
    };
    println!(
        "tcpfo-inspect chain — frame {}/{} — sim t = {} ms — {phase}",
        frame + 1,
        frames,
        tb.sim.now().as_nanos() / 1_000_000
    );

    println!("\n── chain links (client-facing stream climbs tail → head) ──");
    println!(
        "{:<4} {:<12} {:<8} {:<10} {:>6} {:>12} {:>12} {:>9} {:>9}",
        "idx", "addr", "role", "state", "score", "promoted_ms", "lag_B", "releases", "peak_B"
    );
    for (i, &node) in tb.replicas.clone().iter().enumerate() {
        let addr = tb.replica_addrs[i];
        if tb.dead[i] {
            println!("{i:<4} {addr:<12} {:<8} {:<10}", "-", "DEAD");
            continue;
        }
        let (role, lag) = tb.sim.with::<Host, _>(node, |h, _| {
            let lag = h
                .filter_mut()
                .observers()
                .and_then(Observers::health)
                .map(|o| {
                    (
                        o.lag.unmatched_bytes(),
                        o.lag.releases(),
                        o.lag.peak_bytes(),
                    )
                });
            let f = h.filter_mut().as_any_mut();
            let tail = f.is::<SecondaryBridge>();
            let role = match f.downcast_mut::<ChainBridge>() {
                Some(b) if b.is_head() => "head",
                Some(_) => "middle",
                None if tail => "tail",
                None => "?",
            };
            (role, lag)
        });
        let (state, score, promoted) = tb.sim.with::<Host, _>(node, |h, _| {
            let c = h.controller_mut::<ChainController>();
            (c.takeover_state(), c.self_score().total, c.promoted_at)
        });
        let state = match state {
            TakeoverState::Following => "following",
            TakeoverState::Vetoed => "VETOED",
            TakeoverState::Promoted => "promoted",
        };
        let (lag_b, rel, peak) = lag.map_or(("-".into(), "-".into(), "-".into()), |(b, r, p)| {
            (b.to_string(), r.to_string(), p.to_string())
        });
        let role = if Some(i) == standby {
            format!("{role}+")
        } else {
            role.to_string()
        };
        println!(
            "{i:<4} {addr:<12} {role:<8} {state:<10} {score:>6} {:>12} {lag_b:>12} {rel:>9} {peak:>9}",
            promoted.map_or("-".to_string(), |t| (t.as_nanos() / 1_000_000).to_string()),
        );
    }
    println!("(+ marks the reprovisioned standby; lag is each link's unmatched downstream bytes)");

    println!("\n── redundancy restoration ──");
    let lag_now = tb.catchup_lag();
    println!(
        "{}  catch-up backlog now: {lag_now} B",
        tb.tracker.to_json()
    );

    println!("\n── recent chain events ──");
    let mut events: Vec<_> = Vec::new();
    for (i, hub) in tb.hubs.iter().enumerate() {
        if tb.dead.get(i).copied().unwrap_or(false) {
            continue;
        }
        for e in hub.journal.tail(16) {
            if e.scope.contains("chain") {
                events.push((e.at_ns, i, e.kind.clone(), e.fields.clone()));
            }
        }
    }
    events.sort();
    events.dedup();
    if events.is_empty() {
        println!("(none yet)");
    }
    for (at_ns, replica, kind, fields) in events.iter().rev().take(10).rev() {
        let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{:>8} ms  replica{replica}  {kind:<22} {}",
            at_ns / 1_000_000,
            fields.join(" ")
        );
    }
}

/// Drives the staged depth-N chain failover with span tracing armed on
/// every replica hub, renders the promoted backup's forensic view —
/// the §5 MTTR waterfall, the redundancy-restoration clock, and the
/// control-plane spans the takeover recorded — and exports the merged
/// Chrome trace-event JSON for Perfetto / `chrome://tracing`.
fn trace(args: &[String]) -> i32 {
    let replicas = args
        .iter()
        .position(|a| a == "--replicas")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .clamp(2, 8);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "FAILOVER_TRACE.json".to_string());

    let mut tb = Testbed::new(TestbedConfig {
        replicas,
        seed: 0x1C,
        audit: Some(true),
        health: Some(true),
        span_trace: Some(true),
        ..TestbedConfig::default()
    });
    tb.install_servers(|| SourceServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(RequestReplyClient::new(
            SocketAddr::new(addrs::A_P, 80),
            b"SEND 16000000\n".to_vec(),
            16_000_000,
        )));
    });

    // The rehearsal: healthy, head killed, takeover, tail
    // re-provisioned, catch-up drained.
    tb.run_for(SimDuration::from_millis(200));
    tb.kill_replica(0);
    tb.run_for(SimDuration::from_millis(300));
    chain_ops::reprovision_tail(&mut tb);
    tb.run_until_restored(SimDuration::from_millis(10), SimDuration::from_secs(30));
    tb.run_for(SimDuration::from_secs(2));

    // The promoted backup carries the complete timeline and the spans
    // of the takeover it performed.
    let hub = tb.hubs[1].clone();
    println!(
        "tcpfo-inspect trace — depth-{replicas} chain, head killed at 200 ms, sim t = {} ms",
        tb.sim.now().as_nanos() / 1_000_000
    );
    match hub.timeline.mttr() {
        Some(m) => {
            println!(
                "\n── §5 failover waterfall (MTTR {:.3} ms) ──",
                m.total_ns as f64 / 1e6
            );
            const PHASES: [&str; 5] = [
                "detection",
                "egress_hold",
                "translation_off",
                "arp_takeover",
                "first_client_byte",
            ];
            let deltas = m.deltas();
            let widest = deltas.into_iter().max().unwrap_or(1).max(1);
            for (name, dur) in PHASES.into_iter().zip(deltas) {
                let bar = (dur * 40).div_ceil(widest) as usize;
                println!(
                    "{name:<18} {:<40} {:>10.3} ms",
                    "█".repeat(bar),
                    dur as f64 / 1e6
                );
            }
        }
        None => println!("\n(timeline incomplete — no client byte crossed the new head yet)"),
    }

    println!("\n── redundancy restoration ──");
    match (
        tb.tracker.reprovision_ns(),
        tb.tracker.catchup_ns(),
        tb.tracker.total_ns(),
    ) {
        (Some(rep), Some(cat), Some(total)) => {
            let widest = rep.max(cat).max(1);
            for (name, dur) in [("reprovision", rep), ("catchup", cat)] {
                let bar = (dur * 40).div_ceil(widest) as usize;
                println!(
                    "{name:<18} {:<40} {:>10.3} ms",
                    "█".repeat(bar),
                    dur as f64 / 1e6
                );
            }
            println!(
                "{:<18} {:<40} {:>10.3} ms",
                "restored",
                "",
                total as f64 / 1e6
            );
        }
        _ => println!("(not restored within the rehearsal window)"),
    }

    let records = hub.trace.records();
    println!(
        "\n── control-plane spans (replica 1, the promoted backup; {} retained, {} dropped) ──",
        records.len(),
        hub.trace.dropped()
    );
    for r in records.iter().rev().take(24).rev() {
        println!("{}", r.summary());
    }

    let waterfall = tcpfo_telemetry::waterfall_records(&hub.timeline, &hub.redundancy);
    let chrome = hub.trace.chrome_trace(&waterfall);
    match std::fs::write(&out, &chrome) {
        Ok(()) => println!(
            "\nwrote {out} ({} bytes, {} synthetic waterfall spans) — load in Perfetto or chrome://tracing",
            chrome.len(),
            waterfall.len()
        ),
        Err(e) => {
            eprintln!("tcpfo-inspect: write to {out} failed: {e}");
            return 1;
        }
    }

    let violations = tb.audit_violations();
    if violations > 0 {
        eprintln!("tcpfo-inspect: {violations} invariant violation(s) recorded");
        1
    } else {
        0
    }
}

fn exit_code(tb: &mut Testbed) -> i32 {
    let violations = tb.audit_violations();
    if violations > 0 {
        eprintln!("tcpfo-inspect: {violations} invariant violation(s) recorded");
        1
    } else {
        0
    }
}

/// Pretty-prints a flight-recorder bundle directory: the rule ledger
/// and violations, the tail of the trace ring, a per-packet summary of
/// the capture, and the timeline, if present.
fn bundle(dir: &str) -> i32 {
    let dir = std::path::Path::new(dir);
    let ledger = dir.join("ledger.txt");
    if !ledger.exists() {
        eprintln!(
            "tcpfo-inspect: {} does not look like a bundle (no ledger.txt)",
            dir.display()
        );
        return 2;
    }
    println!("=== rule ledger + violations ===");
    match std::fs::read_to_string(&ledger) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("ledger.txt: {e}"),
    }
    println!("=== trace ring (last 40) ===");
    match std::fs::read_to_string(dir.join("trace_ring.txt")) {
        Ok(s) => {
            let lines: Vec<&str> = s.lines().collect();
            for line in lines.iter().skip(lines.len().saturating_sub(40)) {
                println!("{line}");
            }
        }
        Err(e) => eprintln!("trace_ring.txt: {e}"),
    }
    println!("\n=== capture.pcapng ===");
    match std::fs::read(dir.join("capture.pcapng")) {
        Ok(bytes) => match read_packets(&bytes) {
            Ok(pkts) => {
                println!("{} packet(s)", pkts.len());
                for p in &pkts {
                    println!(
                        "  {:>12} ns  {:>5} B  {}",
                        p.ts_ns,
                        p.frame.len(),
                        tcp_line(&p.frame)
                    );
                }
            }
            Err(e) => eprintln!("capture.pcapng does not parse: {e}"),
        },
        Err(e) => eprintln!("capture.pcapng: {e}"),
    }
    let timeline = dir.join("timeline.json");
    if let Ok(s) = std::fs::read_to_string(&timeline) {
        println!("\n=== timeline.json ===\n{s}");
    }
    // PR 10: the failover span dump, when the bundle's hub had tracing
    // armed. The sibling trace.chrome.json loads in Perfetto as-is.
    if let Ok(s) = std::fs::read_to_string(dir.join("spans.json")) {
        println!("\n=== spans.json ===\n{s}");
        if dir.join("trace.chrome.json").exists() {
            println!(
                "(trace.chrome.json present — load {} in Perfetto or chrome://tracing)",
                dir.join("trace.chrome.json").display()
            );
        }
    }
    0
}

/// One-line Ethernet/IPv4/TCP summary of a captured frame.
fn tcp_line(frame: &[u8]) -> String {
    let Ok(eth) = EthernetFrame::decode(&bytes::Bytes::copy_from_slice(frame)) else {
        return "non-ethernet".into();
    };
    if eth.ethertype != EtherType::Ipv4 {
        return format!("{:?}", eth.ethertype);
    }
    let Ok(ip) = Ipv4Packet::decode(&eth.payload) else {
        return "bad ipv4".into();
    };
    match TcpView::new(&ip.payload) {
        Ok(v) => format!(
            "{}:{} → {}:{} seq={} ack={} len={} [{}]",
            ip.src,
            v.src_port(),
            ip.dst,
            v.dst_port(),
            v.seq(),
            v.ack(),
            v.payload().len(),
            v.flags()
        ),
        Err(_) => format!("ip {} → {} proto={}", ip.src, ip.dst, ip.protocol),
    }
}
