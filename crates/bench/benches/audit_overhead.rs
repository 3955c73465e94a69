//! E10 — invariant-auditor overhead (wall-clock, via Criterion).
//!
//! Runs the same short failover upload with the auditor detached and
//! attached; the two distributions bound the per-run cost of the
//! online checks (shadow streams, rule ledger, trace/pcap rings). The
//! `bench_pr3` binary gates the ratio at ≤ 10%; this bench gives the
//! full distributions for EXPERIMENTS.md E10.

use criterion::{criterion_group, criterion_main, Criterion};
use tcpfo_apps::driver::BulkSendClient;
use tcpfo_apps::stream::SinkServer;
use tcpfo_bench::{paper_testbed, run_until, Mode};
use tcpfo_core::testbed::{addrs, Testbed};
use tcpfo_net::time::SimDuration;
use tcpfo_tcp::host::Host;
use tcpfo_tcp::types::SocketAddr;

/// One complete audited (or not) upload through the failover testbed.
fn upload(audit: bool, bytes: u64) {
    let mut cfg = paper_testbed(Mode::Failover, 0xE10);
    cfg.audit = Some(audit);
    let mut tb = Testbed::new(cfg);
    tb.install_servers(|| SinkServer::new(80));
    tb.sim.with::<Host, _>(tb.client, |h, _| {
        h.add_app(Box::new(BulkSendClient::new(
            SocketAddr::new(addrs::A_P, 80),
            bytes,
        )));
    });
    let ok = run_until(&mut tb, SimDuration::from_secs(30), |tb| {
        tb.sim
            .with::<Host, _>(tb.client, |h, _| h.app_mut::<BulkSendClient>(0).is_done())
    });
    assert!(ok, "bench upload did not finish");
    assert_eq!(tb.audit_violations(), 0);
}

fn bench_audit_overhead(c: &mut Criterion) {
    let bytes = 200_000u64;
    let mut group = c.benchmark_group("audit_overhead");
    group.bench_function("upload_200k_detached", |b| b.iter(|| upload(false, bytes)));
    group.bench_function("upload_200k_attached", |b| b.iter(|| upload(true, bytes)));
    group.finish();
}

criterion_group!(benches, bench_audit_overhead);
criterion_main!(benches);
