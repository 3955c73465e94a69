//! The repository benchmark: saturated bridge capacity, fixed-rate
//! latency and client-visible failover MTTR, measured from outside the
//! program.
//!
//! Every workload runs the same parts on its own traffic shape:
//!
//! 1. **Capacity** — unpaced passes of the whole schedule through a
//!    detached `PrimaryBridge` on one datapath thread; host time inside
//!    `process_batch` and `on_tick` only, best of the passes window by
//!    window.
//! 2. **Failover** — K head kills of a depth-2 chain mid-download,
//!    spread evenly over the heartbeat and RTO phases; simulated time.
//!    The trials are interleaved with the capacity passes.
//! 3. **Reference** — the schedule fed one segment per call; its output
//!    digest must equal the batched one.
//!
//! Every end-to-end metric is defined on every workload, so the
//! failover experiment rides along in each, with its own kill seeds.
//!
//! A traced run (`--trace 1`) repeats the capacity pass with the
//! latency observatory attached and allocations counted, adds a paced
//! open-loop pass at a fixed offered rate (each segment timed from its
//! due instant to the return of the call that carried it), runs the
//! failover trials with the auditor, health observatory and span
//! tracer attached, and reports the per-layer figures.

pub mod alloc;
pub mod datapath;
pub mod failover;
pub mod stats;

use std::path::Path;
use std::time::Instant;

use tcpfo_telemetry::span::chrome_trace_json;
use tcpfo_telemetry::{Stage, Tracer};

use datapath::{
    best_of_windows_ns, paced_pass, schedule_seed, unpaced_pass, BenchSpans, DatapathSpec, Mode,
    PacedResult, PassResult, Schedule,
};
use failover::{FailoverSpec, Trial};
use stats::{highest_supported, median_f64, percentile, Digest};

/// Fewest unpaced passes per end-to-end run. Capacity takes their best
/// window by window: the host shares its cores, and its speed drifts
/// by tens of percent over seconds.
const MIN_PASSES: usize = 6;

/// Span ring size for a traced run: every timed call of one capacity
/// pass plus the failover trials fit without eviction.
const TRACE_CAPACITY: usize = 1 << 17;

/// A named workload: a datapath traffic shape plus the failover
/// experiment.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Datapath traffic.
    pub datapath: DatapathSpec,
    /// Failover experiment.
    pub failover: FailoverSpec,
}

/// The benchmark's workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "churn_small",
            why: "64 B segments over 327,680 flows with SYN..FIN churn: per-segment cost, \
                  flow-table inserts and TTL reaps dominate; the working set exceeds the caches",
            datapath: DatapathSpec::churn_small(),
            failover: FailoverSpec::depth2(),
        },
        Workload {
            name: "bulk_large",
            why: "256 long-lived flows of 1,460 B segments: queue match, checksum fixup and \
                  egress dominate; the flow table is cache-resident and GC idles",
            datapath: DatapathSpec::bulk_large(),
            failover: FailoverSpec::depth2(),
        },
    ]
}

impl Workload {
    /// Seed of the failover plan: the workload seed mixed with the
    /// workload name, so two workloads never replay the same kills.
    pub fn failover_seed(&self, seed: u64) -> u64 {
        let mut d = Digest::default();
        d.update(self.name.as_bytes());
        seed ^ d.value()
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: datapath segments plus failover trials.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sample counts, modes, digests,
    /// failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Checks the datapath counters of a pass that fed the whole schedule.
fn check_pass(out: &mut Outcome, spec: &DatapathSpec, label: &str, p: &PassResult) {
    let s = &p.stats;
    out.check(
        s.drops == 0 && s.mismatched_bytes == 0 && s.evicted_rsts == 0,
        format!(
            "{label}: drops {} mismatched_bytes {} evicted_rsts {}",
            s.drops, s.mismatched_bytes, s.evicted_rsts
        ),
    );
    out.check(
        s.merged_segments == spec.expected_merged(),
        format!(
            "{label}: merged_segments {} != flows x rounds {}",
            s.merged_segments,
            spec.expected_merged()
        ),
    );
}

fn check_digest(out: &mut Outcome, label: &str, got: Digest, want: Digest) {
    out.check(
        got == want,
        format!(
            "{label}: output digest {:016x} != {:016x}",
            got.value(),
            want.value()
        ),
    );
}

/// Builds the schedule three times (set-up is reported as a median)
/// and returns the last build with the median build time.
fn build_schedule_timed(spec: &DatapathSpec, seed: u64) -> (Schedule, f64) {
    let mut times = Vec::new();
    let mut sched = None;
    for _ in 0..3 {
        drop(sched.take());
        let t0 = Instant::now();
        sched = Some(Schedule::build(spec, schedule_seed(seed)));
        times.push(t0.elapsed().as_secs_f64());
    }
    (sched.expect("built three times"), median_f64(&times))
}

fn check_paced(out: &mut Outcome, spec: &DatapathSpec, r: &PacedResult) {
    let s = &r.stats;
    out.check(
        s.drops == 0 && s.mismatched_bytes == 0 && s.evicted_rsts == 0,
        format!(
            "paced pass: drops {} mismatched_bytes {} evicted_rsts {}",
            s.drops, s.mismatched_bytes, s.evicted_rsts
        ),
    );
    out.attempted += r.segments;
    out.failed += s.drops + s.evicted_rsts + s.mismatched_bytes.div_ceil(spec.payload as u64);
}

fn trial_checks(out: &mut Outcome, trials: &[Trial]) {
    let bad: Vec<u64> = trials
        .iter()
        .filter(|t| !t.ok())
        .map(|t| t.kill_ns / 1_000_000)
        .collect();
    out.check(
        bad.is_empty(),
        format!(
            "failover: {} trials without promotion or byte-exact stream (kill ms {bad:?})",
            bad.len()
        ),
    );
    out.attempted += trials.len() as u64;
    out.failed += bad.len() as u64;
}

fn mean<T>(items: &[T], f: impl Fn(&T) -> u64) -> f64 {
    items.iter().map(&f).sum::<u64>() as f64 / items.len().max(1) as f64
}

fn sorted_mttr(trials: &[Trial]) -> Vec<u64> {
    let mut v: Vec<u64> = trials
        .iter()
        .filter_map(|t| t.mttr.map(|m| m.total_ns))
        .collect();
    v.sort_unstable();
    v
}

/// Runs workload `w`.
pub fn run(w: &Workload, args: RunArgs, trace_dir: Option<&Path>) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let spec = &w.datapath;
    let (sched, schedule_s) = build_schedule_timed(spec, args.seed);
    out.notes.push(format!(
        "workload {}: {}; schedule {} segments, seed {}, nproc {}, datapath threads 1, build {}",
        w.name,
        w.why,
        sched.tokens.len(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    ));
    if args.trace {
        run_traced(w, &sched, args, trace_dir, start, &mut out);
    } else {
        run_end_to_end(w, &sched, schedule_s, args, &mut out);
    }
    out
}

fn run_end_to_end(
    w: &Workload,
    sched: &Schedule,
    schedule_s: f64,
    args: RunArgs,
    out: &mut Outcome,
) {
    let spec = &w.datapath;
    // At least MIN_PASSES rounds of one capacity pass and a share of the
    // failover trials, more capacity passes until the timed calls have
    // used their share of the budget. Interleaving spreads the capacity
    // passes over the whole run, so their window-by-window best sees the
    // host at many moments.
    let t_part = Instant::now();
    let budget_ns = (args.seconds * datapath::CAPACITY_SHARE * 1e9) as u64;
    let plan = w.failover.plan(w.failover_seed(args.seed));
    let mut kills = plan.chunks(plan.len().div_ceil(MIN_PASSES).max(1));
    let mut trials: Vec<Trial> = Vec::new();
    let mut passes: Vec<PassResult> = Vec::new();
    while passes.len() < MIN_PASSES
        || passes.iter().map(PassResult::timed_ns).sum::<u64>() < budget_ns
    {
        let p = unpaced_pass(spec, sched, Mode::Detached);
        check_pass(out, spec, "capacity pass", &p);
        if let Some(first) = passes.first() {
            check_digest(out, "capacity pass repeat", p.digest, first.digest);
        }
        out.attempted += p.segments;
        out.failed += p.failed(spec.payload);
        passes.push(p);
        for &(at, seed) in kills.next().unwrap_or_default() {
            trials.push(failover::run_trial(&w.failover, at, seed, None));
        }
    }
    for &(at, seed) in kills.flatten() {
        trials.push(failover::run_trial(&w.failover, at, seed, None));
    }
    trial_checks(out, &trials);
    let rss_mb = stats::peak_rss_mb();
    let segments = passes[0].segments;
    let merged_bytes = passes[0].stats.merged_bytes;
    let best_ns = best_of_windows_ns(&passes);
    let all_ns: u64 = passes.iter().map(PassResult::timed_ns).sum();
    let t_interleaved = t_part.elapsed().as_secs_f64();

    let t_part = Instant::now();
    let reference = unpaced_pass(spec, sched, Mode::Reference);
    check_pass(out, spec, "reference pass", &reference);
    check_digest(
        out,
        "batched vs one-per-batch",
        passes[0].digest,
        reference.digest,
    );
    let t_ref = t_part.elapsed().as_secs_f64();

    out.notes.push(format!(
        "wall time: capacity and failover {t_interleaved:.1} s, reference {t_ref:.1} s"
    ));

    let build_s = median_f64(
        &passes
            .iter()
            .map(|p| p.build_ns)
            .chain([reference.build_ns])
            .map(|ns| ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let testbed_s = median_f64(
        &trials
            .iter()
            .map(|t| t.build_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    out.metric("setup_s", schedule_s + build_s + testbed_s, "s");
    out.notes.push(format!(
        "setup: schedule {:.1} ms + bridge {:.1} ms + testbed {:.1} ms (medians)",
        schedule_s * 1e3,
        build_s * 1e3,
        testbed_s * 1e3
    ));
    let secs = best_ns as f64 / 1e9;
    out.metric("capacity_seg_per_s", segments as f64 / secs, "seg/s");
    out.metric("goodput_mb_per_s", merged_bytes as f64 / 1e6 / secs, "MB/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    let mttr = sorted_mttr(&trials);
    let mttr_mean = mttr.iter().sum::<u64>() as f64 / mttr.len().max(1) as f64 / 1e6;
    out.metric("mttr_mean_ms", mttr_mean, "ms");
    let p90 = if mttr.is_empty() {
        f64::NAN
    } else {
        percentile(&mttr, 90.0) as f64 / 1e6
    };
    out.metric("mttr_p90_ms", p90, "ms");
    let rates: Vec<f64> = trials
        .iter()
        .filter_map(|t| t.transfer_ns)
        .map(|ns| w.failover.download as f64 / 1e3 / (ns as f64 / 1e9))
        .collect();
    out.metric("stream_kb_per_s", median_f64(&rates), "KB/s");

    out.notes.push(format!(
        "capacity: {} passes of {segments} segments; best-of-passes per window {:.3} s, all passes {:.3} s in process_batch+on_tick ({:.0} seg/s overall); digest {:016x}",
        passes.len(),
        secs,
        all_ns as f64 / 1e9,
        (segments * passes.len() as u64) as f64 / (all_ns as f64 / 1e9),
        passes[0].digest.value()
    ));
    mttr_notes(out, &w.failover, &trials, &mttr);
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "failed_share {failed_share} ({} of {} operations)",
        out.failed, out.attempted
    ));
}

fn mttr_notes(out: &mut Outcome, spec: &FailoverSpec, trials: &[Trial], mttr: &[u64]) {
    let modes: Vec<String> = failover::modes(mttr)
        .iter()
        .map(|(ms, n)| format!("{ms:.1} ms x{n}"))
        .collect();
    out.notes.push(format!(
        "failover: K={} kills over a {} ms window from {} ms, depth {}, {} B download; \
         MTTR modes [{}]; p90 of {} samples ({} beyond)",
        trials.len(),
        spec.window().as_millis(),
        spec.window_start.as_millis(),
        spec.replicas,
        spec.download,
        modes.join(", "),
        mttr.len(),
        stats::beyond(mttr.len(), 90.0),
    ));
}

fn run_traced(
    w: &Workload,
    sched: &Schedule,
    args: RunArgs,
    trace_dir: Option<&Path>,
    origin: Instant,
    out: &mut Outcome,
) {
    let spec = &w.datapath;
    let tracer = Tracer::attached(TRACE_CAPACITY);
    let spans = BenchSpans::new(&tracer, origin);

    let detached = spans.around("capacity_pass.detached", || {
        unpaced_pass(spec, sched, Mode::Detached)
    });
    check_pass(out, spec, "detached pass", &detached);
    let traced = spans.around("capacity_pass.traced", || {
        unpaced_pass(spec, sched, Mode::Traced(&spans))
    });
    check_pass(out, spec, "traced pass", &traced);
    check_digest(out, "traced vs detached", traced.digest, detached.digest);
    let paced = spans.around("paced_pass", || paced_pass(spec, sched, args.seconds));
    let reference = spans.around("reference_pass", || {
        unpaced_pass(spec, sched, Mode::Reference)
    });
    check_pass(out, spec, "reference pass", &reference);
    check_digest(
        out,
        "batched vs one-per-batch",
        detached.digest,
        reference.digest,
    );
    for p in [&detached, &traced] {
        out.attempted += p.segments;
        out.failed += p.failed(spec.payload);
    }
    check_paced(out, spec, &paced);

    let trials = spans.around("failover_trials", || {
        failover::run(&w.failover, w.failover_seed(args.seed), Some(&spans))
    });
    trial_checks(out, &trials);
    let audit: u64 = trials.iter().map(|t| t.audit_violations).sum();
    out.check(audit == 0, format!("audit violations {audit}"));

    let seg = traced.segments as f64;
    let stage_ns = traced.stage_ns.unwrap_or([0; Stage::COUNT]);
    out.metric(
        "harness.synth_ns_per_seg",
        detached.synth_ns as f64 / detached.segments as f64,
        "ns",
    );
    out.metric(
        "harness.late_p99_us",
        percentile(&paced.late_ns, 99.0) as f64 / 1e3,
        "us",
    );
    let lat = &paced.latency_ns;
    out.metric("latency_p50_us", percentile(lat, 50.0) as f64 / 1e3, "us");
    out.metric("latency_p99_us", percentile(lat, 99.0) as f64 / 1e3, "us");
    let top = highest_supported(lat.len()).unwrap_or(50.0);
    out.notes.push(format!(
        "latency: {} samples at {:.0} seg/s offered; p50 {:.2} us, p99 {:.2} us, p{top} {:.2} us ({} beyond), max {:.2} us",
        lat.len(),
        spec.paced_rate,
        percentile(lat, 50.0) as f64 / 1e3,
        percentile(lat, 99.0) as f64 / 1e3,
        percentile(lat, top) as f64 / 1e3,
        stats::beyond(lat.len(), top),
        lat.last().copied().unwrap_or(0) as f64 / 1e3,
    ));
    out.metric(
        "primary.batch_ns_per_seg",
        traced.batch_ns as f64 / seg,
        "ns",
    );
    out.metric(
        "primary.released_per_seg",
        traced.stats.merged_segments as f64 / seg,
        "ratio",
    );
    out.metric(
        "primary.outputs_per_seg",
        traced.outputs as f64 / seg,
        "ratio",
    );
    out.metric(
        "primary.allocs_per_seg",
        traced.allocs as f64 / seg,
        "count",
    );
    let staged: u64 = stage_ns.iter().sum();
    out.metric(
        "primary.unattributed_ns_per_seg",
        (traced.batch_ns as f64 - staged as f64) / seg,
        "ns",
    );
    for (s, ns) in Stage::ALL.iter().zip(stage_ns) {
        out.metric(
            &format!("stage.{}_ns_per_seg", s.name()),
            ns as f64 / seg,
            "ns",
        );
    }
    let f = &detached.flow;
    out.metric(
        "flow.lookups_per_seg",
        f.lookups as f64 / detached.segments as f64,
        "ratio",
    );
    out.metric("flow.inserted", f.inserted as f64, "count");
    out.metric("flow.reaped", f.reaped as f64, "count");
    out.metric("flow.evicted", f.evicted as f64, "count");
    out.metric(
        "flow.occupancy_peak",
        detached.occupancy_peak as f64,
        "count",
    );
    let mut ticks = detached.tick_ns.clone();
    ticks.sort_unstable();
    out.metric(
        "gc.tick_us_p50",
        percentile(&ticks, 50.0) as f64 / 1e3,
        "us",
    );
    out.metric(
        "gc.tick_us_max",
        ticks.last().copied().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    out.metric(
        "trace.overhead_ratio",
        (traced.batch_ns as f64 / seg) / (detached.batch_ns as f64 / detached.segments as f64),
        "ratio",
    );

    let ok: Vec<&Trial> = trials.iter().filter(|t| t.mttr.is_some()).collect();
    let phase = |f: fn(&tcpfo_telemetry::MttrBreakdown) -> u64| {
        mean(&ok, |t| t.mttr.as_ref().map_or(0, f)) / 1e6
    };
    out.metric("failover.detection_ms", phase(|m| m.detection_ns), "ms");
    out.metric(
        "failover.promotion_ms",
        mean(&trials, |t| t.promotion_ns.unwrap_or(0)) / 1e6,
        "ms",
    );
    out.metric("failover.egress_hold_ms", phase(|m| m.hold_ns), "ms");
    out.metric(
        "failover.translation_off_ms",
        phase(|m| m.translation_ns),
        "ms",
    );
    out.metric("failover.arp_takeover_ms", phase(|m| m.arp_ns), "ms");
    out.metric(
        "failover.first_client_byte_ms",
        phase(|m| m.first_byte_ns),
        "ms",
    );
    out.metric("failover.kills", trials.len() as f64, "count");
    out.metric(
        "tcp.client_rto_expiries",
        mean(&trials, |t| t.client_rto_expiries),
        "count",
    );
    out.metric(
        "tcp.server_retransmits",
        mean(&trials, |t| t.server_retransmits),
        "count",
    );
    out.metric(
        "chain.promotions_vetoed",
        trials.iter().map(|t| t.vetoes).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "health.alerts_before_kill",
        trials.iter().map(|t| t.alerts_before_kill).sum::<u64>() as f64,
        "count",
    );
    out.metric("audit.violations", audit as f64, "count");

    let mttr = sorted_mttr(&trials);
    let mttr_mean = mttr.iter().sum::<u64>() as f64 / mttr.len().max(1) as f64 / 1e6;
    let phase_sum = phase(|m| m.detection_ns)
        + phase(|m| m.hold_ns)
        + phase(|m| m.translation_ns)
        + phase(|m| m.arp_ns)
        + phase(|m| m.first_byte_ns);
    out.notes.push(format!(
        "traced MTTR mean {mttr_mean:.3} ms = sum of mean phases {phase_sum:.3} ms"
    ));
    mttr_notes(out, &w.failover, &trials, &mttr);
    out.notes.push(format!(
        "stage sum {:.1} + unattributed {:.1} = traced batch {:.1} ns/seg; allocations counted {}",
        staged as f64 / seg,
        (traced.batch_ns as f64 - staged as f64) / seg,
        traced.batch_ns as f64 / seg,
        traced.allocs
    ));
    if let Some(dir) = trace_dir {
        let path = dir.join(format!("{}-seed{}.trace.json", w.name, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(&tracer.records())));
        out.notes.push(match written {
            Ok(()) => format!(
                "chrome trace: {} ({} spans, {} dropped)",
                path.display(),
                tracer.len(),
                tracer.dropped()
            ),
            Err(e) => format!("chrome trace not written to {}: {e}", path.display()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcpfo_apps::manyflow::Step;
    use tcpfo_net::time::SimDuration;
    use tcpfo_net::ShardExecutor;

    /// Every part of a workload, shrunk to run in a debug build.
    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            why: "smoke test",
            datapath: DatapathSpec {
                residents: 96,
                resident_rounds: 2,
                mice: 32,
                mice_burst: 8,
                payload: 64,
                intra_flow_gap_ns: 20_000,
                shards: 4,
                capacity: 1_024,
                paced_rate: 50_000.0,
            },
            failover: FailoverSpec {
                replicas: 2,
                download: 2 << 20,
                kills: 2,
                window_start: SimDuration::from_millis(20),
            },
        }
    }

    fn args(trace: bool) -> RunArgs {
        RunArgs {
            seed: 7,
            seconds: 0.05,
            trace,
        }
    }

    fn names(o: &Outcome) -> Vec<&str> {
        o.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn shrunken_end_to_end_run_is_correct_and_complete() {
        let o = run(&tiny(), args(false), None);
        assert!(o.correct, "{:#?}", o.notes);
        assert_eq!(o.failed, 0);
        assert_eq!(
            names(&o),
            [
                "setup_s",
                "capacity_seg_per_s",
                "goodput_mb_per_s",
                "peak_rss_mb",
                "mttr_mean_ms",
                "mttr_p90_ms",
                "stream_kb_per_s"
            ]
        );
        assert!(
            o.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{:?}",
            o.metrics
        );
    }

    #[test]
    fn shrunken_traced_run_is_correct_and_stages_sum_to_batch_time() {
        let o = run(&tiny(), args(true), None);
        assert!(o.correct, "{:#?}", o.notes);
        let get = |name: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} reported"))
                .value
        };
        let stages: f64 = Stage::ALL
            .iter()
            .map(|s| get(&format!("stage.{}_ns_per_seg", s.name())))
            .sum();
        let total = stages + get("primary.unattributed_ns_per_seg");
        assert!((total - get("primary.batch_ns_per_seg")).abs() < 1e-6);
        assert_eq!(get("audit.violations"), 0.0);
        assert_eq!(get("failover.kills"), 2.0);
        assert!(
            get("primary.allocs_per_seg") > 0.0,
            "counting allocator ran"
        );
    }

    #[test]
    fn corrupted_output_byte_trips_the_digest_check() {
        let spec = tiny().datapath;
        let sched = Schedule::build(&spec, 1);
        let steps: Vec<Step> = sched.tokens.iter().map(|&(_, t)| sched.step(t)).collect();
        let mut outs = spec
            .new_bridge()
            .process_batch(steps, 0, &ShardExecutor::new(1));
        let mut good = Digest::default();
        datapath::fold_outputs(&mut good, &outs);

        let seg = outs
            .iter_mut()
            .flat_map(|o| o.to_wire.iter_mut())
            .find(|s| s.bytes.len() > 20)
            .expect("a data segment was released");
        let mut bytes = seg.bytes.to_vec();
        *bytes.last_mut().expect("payload") ^= 0x01;
        seg.bytes = bytes.into();
        let mut bad = Digest::default();
        datapath::fold_outputs(&mut bad, &outs);

        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        check_digest(&mut o, "same", good, good);
        assert!(o.correct);
        check_digest(&mut o, "corrupted", bad, good);
        assert!(!o.correct, "one flipped byte must fail the gate");
    }

    #[test]
    fn kill_plan_spreads_evenly_and_follows_the_seed() {
        let spec = FailoverSpec::depth2();
        let plan = spec.plan(3);
        assert_eq!(plan.len(), spec.kills);
        let step = spec.window().as_nanos() / spec.kills as u64;
        for w in plan.windows(2) {
            let gap = w[1].0.as_nanos() - w[0].0.as_nanos();
            assert!(gap.abs_diff(step) <= 1, "gap {gap} vs {step}");
        }
        let first = plan[0].0.as_nanos() - spec.window_start.as_nanos();
        assert!(first < step, "offset within one step");
        assert_eq!(plan, spec.plan(3));
        assert_ne!(plan, spec.plan(4));
    }
}
