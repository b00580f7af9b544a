//! The encoder-driven workloads: `sweep_replay` and `observed_export`.
//!
//! The untraced path calls only the library's stable entry points
//! (`EncoderWorkload::generate`, `SweepRunner::run`,
//! `simulate_observed_planned`). The traced path re-runs the same work
//! through the forwarding wrappers of [`crate::timed`] and checks that it
//! produced the same trace and the same statistics.

use std::hint::black_box;
use std::thread::ThreadId;
use std::time::Instant;

use rispp_core::{PlanCacheHandle, PlanCacheStats};
use rispp_h264::{h264_si_library, Encoder, EncoderConfig, EncoderWorkload, SyntheticVideo};
use rispp_model::SiLibrary;
use rispp_sim::{
    simulate_observed_planned, FlightRecorder, MetricsObserver, PerfettoTraceObserver, RunStats,
    SimConfig, SimObserver, SweepRunner, Trace, TraceLogObserver,
};

use crate::check::{
    burst_count, check_pin, check_quick_pin, check_sampled_jobs, cif_config, fig7_jobs,
    sweep_cycles, trace_digest,
};
use crate::report::Report;
use crate::spans::{Layer, SpanTree};
use crate::stats::{max, median, min, nearest_rank, sorted};
use crate::timed::{simulate_timed, EngineTimes, TimedObserver};
use crate::{Ctx, Rng};

/// Measured iterations a run makes at the least, however long they take.
const MIN_ITERS: usize = 3;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs `setup` `repeats` times and returns the last result with the
/// median duration in seconds. An earlier result is dropped after the next
/// set-up's time is taken.
///
/// # Errors
///
/// Passes on the first failing set-up.
pub fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one setup"), median(&times)))
}

/// The SI library, after the default-seed pin check that every set-up
/// ends with.
fn checked_library(ctx: &Ctx<'_>) -> Result<SiLibrary, String> {
    let library = h264_si_library();
    check_quick_pin(ctx.spec, &library, ctx.spec.sweep_threads)?;
    Ok(library)
}

/// Set-ups a run makes: several for a stable `setup_s` median, one in a
/// traced run, which does not report it.
fn setup_repeats(ctx: &Ctx<'_>, repeats: usize) -> usize {
    if ctx.trace {
        1
    } else {
        repeats
    }
}

/// Whether a measuring loop that started at `start` should run another
/// iteration.
fn more(start: Instant, done: usize, seconds: f64) -> bool {
    done < MIN_ITERS || start.elapsed().as_secs_f64() < seconds
}

/// The seconds untraced iterations get: all of them, or half in a traced
/// run (the other half goes to traced iterations).
fn untraced_seconds(ctx: &Ctx<'_>) -> f64 {
    if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    }
}

/// A generated trace with the per-frame encoder spans that produced it.
struct TracedGeneration {
    workload: EncoderWorkload,
    frame_ms: Vec<f64>,
    build_ms: f64,
}

/// `EncoderWorkload::generate`, one span per `encode_next_frame` call and
/// one around `from_reports`.
fn generate_traced(config: &EncoderConfig, tree: &mut SpanTree) -> TracedGeneration {
    let mut encoder = Encoder::new(*config);
    let mut reports = Vec::with_capacity(config.frames as usize);
    let mut frame_ms = Vec::with_capacity(config.frames as usize);
    for _ in 0..config.frames {
        let span = tree.begin("h264.encode_frame", Layer::H264);
        reports.push(encoder.encode_next_frame());
        frame_ms.push(ms(tree.end(span)));
    }
    let span = tree.begin("h264.trace_build", Layer::H264);
    let workload = EncoderWorkload::from_reports(config, &reports);
    drop(reports);
    let build_ns = tree.end(span);
    TracedGeneration {
        workload,
        frame_ms,
        build_ms: ms(build_ns),
    }
}

/// Milliseconds per `SyntheticVideo::next_frame` on a side instance with
/// the workload's seed.
fn video_frame_ms(config: &EncoderConfig) -> Vec<f64> {
    let mut video = SyntheticVideo::new(config.width, config.height, config.seed);
    (0..config.frames)
        .map(|_| {
            let t = Instant::now();
            black_box(video.next_frame());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn h264_metrics(
    report: &mut Report,
    frame_ms: &[f64],
    build_ms: &[f64],
    video_ms: &[f64],
    trace: &Trace,
) {
    let frames = sorted(frame_ms);
    report.set("h264.encode_frame_ms", median(frame_ms));
    report.set("h264.encode_frame_p90_ms", nearest_rank(&frames, 90.0));
    report.set(
        "h264.frames_per_s",
        1e3 * frames.len() as f64 / frames.iter().sum::<f64>(),
    );
    report.set("h264.video_frame_ms", median(video_ms));
    report.set("h264.trace_build_ms", median(build_ms));
    report.set("h264.si_executions", trace.total_si_executions() as f64);
    report.set("h264.bursts", burst_count(trace) as f64);
}

/// One traced fig7 sweep.
struct SweepTrace {
    results: Vec<RunStats>,
    plan: PlanCacheStats,
    times: EngineTimes,
    job_ms: Vec<f64>,
    job_total_ns: u64,
    wall_ns: u64,
    tail_idle_ns: u64,
    workers: u64,
}

/// The fig7 sweep with a fresh cross-job plan cache, each job run through
/// [`simulate_timed`] inside `SweepRunner::run_map` with the arguments
/// `SweepRunner::run` passes to `simulate_observed_planned`. Worker time is
/// attributed to the enclosing `sim.sweep` span as wall shares: planning,
/// replay, and the workers' idle tail, which no layer owns. The span tree's
/// audit fails when these shares exceed the sweep's wall time.
fn traced_sweep(
    library: &SiLibrary,
    trace: &Trace,
    threads: usize,
    tree: &mut SpanTree,
) -> SweepTrace {
    let jobs = fig7_jobs(trace);
    let runner = SweepRunner::with_threads(threads).with_plan_cache(PlanCacheHandle::default());
    let span = tree.begin("sim.sweep", Layer::Sim);
    let t0 = Instant::now();
    let since = |t: Instant| u64::try_from(t.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
    let per_job = runner.run_map(jobs.len(), |i| {
        let start = since(Instant::now());
        let (stats, plan, times) = simulate_timed(
            library,
            jobs[i].trace,
            &jobs[i].config,
            runner.plan_cache(),
            &mut [],
        );
        let end = since(Instant::now());
        (stats, plan, times, start, end, std::thread::current().id())
    });
    let wall_ns = since(Instant::now());
    let workers = threads.min(jobs.len()).max(1) as u64;

    let mut results = Vec::with_capacity(per_job.len());
    let mut plan = PlanCacheStats::default();
    let mut times = EngineTimes::default();
    let mut job_ms = Vec::with_capacity(per_job.len());
    let mut job_total_ns = 0;
    let mut last_end: Vec<(ThreadId, u64)> = Vec::new();
    for (stats, p, t, start, end, thread) in per_job {
        results.push(stats);
        plan.merge(&p);
        times.add(&t);
        job_ms.push(ms(end - start));
        job_total_ns += end - start;
        match last_end.iter_mut().find(|(id, _)| *id == thread) {
            Some(slot) => slot.1 = slot.1.max(end),
            None => last_end.push((thread, end)),
        }
    }
    let idle_threads = workers.saturating_sub(last_end.len() as u64);
    let tail_idle_ns =
        last_end.iter().map(|&(_, end)| wall_ns - end).sum::<u64>() + idle_threads * wall_ns;

    tree.attribute("core.plan", Layer::Core, times.enter_ns / workers);
    tree.attribute(
        "sim.replay",
        Layer::Sim,
        (job_total_ns - times.enter_ns) / workers,
    );
    tree.attribute("sweep.tail_idle", Layer::Bench, tail_idle_ns / workers);
    tree.end(span);
    SweepTrace {
        results,
        plan,
        times,
        job_ms,
        job_total_ns,
        wall_ns,
        tail_idle_ns,
        workers,
    }
}

fn engine_metrics(
    report: &mut Report,
    times: &[EngineTimes],
    engine_self_ns: &[u64],
    plans: &[PlanCacheStats],
    reconfigurations: &[u64],
) {
    let per = |f: &dyn Fn(&EngineTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.set("core.plan_s", per(&|t| s(t.enter_ns)));
    report.set(
        "core.enter_us",
        per(&|t| t.enter_ns as f64 / 1e3 / t.enters.max(1) as f64),
    );
    report.set("core.enters", per(&|t| t.enters as f64));
    report.set("sim.burst_s", per(&|t| s(t.burst_ns)));
    report.set(
        "sim.burst_ns_per_burst",
        per(&|t| t.burst_ns as f64 / t.bursts().max(1) as f64),
    );
    report.set("sim.exit_s", per(&|t| s(t.exit_ns)));
    report.set("sim.batched_calls", per(&|t| t.batched_calls as f64));
    report.set("sim.single_calls", per(&|t| t.single_calls as f64));
    report.set("sim.bursts", per(&|t| t.bursts() as f64));
    report.set(
        "sim.batch_ratio",
        per(&|t| t.batched_bursts as f64 / t.bursts().max(1) as f64),
    );
    report.set("sim.segments", per(&|t| t.segments as f64));
    report.set(
        "sim.engine_self_s",
        median(&engine_self_ns.iter().map(|&ns| s(ns)).collect::<Vec<_>>()),
    );
    let plan =
        |f: &dyn Fn(&PlanCacheStats) -> f64| median(&plans.iter().map(f).collect::<Vec<_>>());
    report.set("core.plan_cache_hits", plan(&|p| p.hits as f64));
    report.set("core.plan_cache_misses", plan(&|p| p.misses as f64));
    report.set("core.plan_cache_hit_ratio", plan(&|p| p.hit_rate()));
    report.set(
        "core.plan_cache_epoch_bumps",
        plan(&|p| p.epoch_bumps as f64),
    );
    report.set(
        "fabric.reconfigurations",
        median(
            &reconfigurations
                .iter()
                .map(|&r| r as f64)
                .collect::<Vec<_>>(),
        ),
    );
}

fn sweep_metrics(report: &mut Report, sweeps: &[SweepTrace]) {
    let times: Vec<EngineTimes> = sweeps.iter().map(|w| w.times).collect();
    let engine_self: Vec<u64> = sweeps
        .iter()
        .map(|w| {
            w.job_total_ns
                .saturating_sub(w.times.enter_ns + w.times.burst_ns + w.times.exit_ns)
        })
        .collect();
    let plans: Vec<PlanCacheStats> = sweeps.iter().map(|w| w.plan).collect();
    let reconfigurations: Vec<u64> = sweeps
        .iter()
        .map(|w| w.results.iter().map(|r| r.reconfigurations).sum())
        .collect();
    engine_metrics(report, &times, &engine_self, &plans, &reconfigurations);
    let all_jobs: Vec<f64> = sweeps
        .iter()
        .flat_map(|w| w.job_ms.iter().copied())
        .collect();
    report.set("sim.sweep.job_ms", median(&all_jobs));
    report.set(
        "sim.sweep.job_max_ms",
        median(
            &sweeps
                .iter()
                .map(|w| w.job_ms.iter().copied().fold(0.0, f64::max))
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "sim.sweep.parallel_efficiency",
        median(
            &sweeps
                .iter()
                .map(|w| w.job_total_ns as f64 / (w.workers * w.wall_ns) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "sim.sweep.tail_idle_s",
        median(&sweeps.iter().map(|w| s(w.tail_idle_ns)).collect::<Vec<_>>()),
    );
}

/// Records the traced-run audit: overhead against the untraced median and
/// the time no layer span covered.
fn audit_metrics(
    report: &mut Report,
    traced_walls: &[f64],
    untraced_walls: &[f64],
    unattributed_s: &[f64],
) {
    report.set(
        "bench.trace_overhead_ratio",
        median(traced_walls) / median(untraced_walls),
    );
    report.set("bench.unattributed_s", median(unattributed_s));
}

/// Common end-to-end metrics of the encoder workloads. The time metrics
/// come from the run's fastest iteration: every iteration does the same
/// work, and on a shared host other tenants only ever slow one down, so the
/// fastest is the steadiest reading of the code's own speed.
fn e2e_metrics(
    report: &mut Report,
    setup_s: f64,
    walls: &[f64],
    mcycles_per_s: &[f64],
) -> Result<(), String> {
    report.set("setup_s", setup_s);
    report.set("wall_s", min(walls));
    report.set("sim_mcycles_per_s", max(mcycles_per_s));
    report.set("peak_rss_mb", crate::peak_rss_mb()?);
    Ok(())
}

/// A fig7 sweep's reference result within a run: every later iteration
/// (untraced or traced) must reproduce it exactly.
struct Reference {
    digest: u64,
    results: Vec<RunStats>,
}

impl Reference {
    fn check(&self, what: &str, digest: u64, results: &[RunStats]) -> Result<(), String> {
        if digest != self.digest {
            return Err(format!(
                "{what}: trace digest {digest:016x} != {:016x}",
                self.digest
            ));
        }
        if results != self.results.as_slice() {
            return Err(format!(
                "{what}: sweep statistics differ from the first iteration"
            ));
        }
        Ok(())
    }
}

/// Post-measurement checks shared by the sweep workloads.
fn check_sweep(
    ctx: &Ctx<'_>,
    library: &SiLibrary,
    frames: u32,
    trace: &Trace,
    reference: &Reference,
) -> Result<(), String> {
    let spec = ctx.spec;
    check_pin(
        spec,
        ctx.seed,
        frames,
        reference.digest,
        sweep_cycles(&reference.results),
    )?;
    let mut rng = Rng::new(ctx.seed ^ 0x5a17_c0de);
    check_sampled_jobs(
        library,
        &fig7_jobs(trace),
        &reference.results,
        spec.sample_jobs,
        &mut rng,
    )
}

/// Set-up of the replay workloads: the library and the generated trace.
/// A traced run generates once more through [`generate_traced`] and checks
/// that it produced the same trace.
fn replay_setup(
    ctx: &Ctx<'_>,
    frames: u32,
    repeats: usize,
    report: &mut Report,
) -> Result<(SiLibrary, EncoderWorkload, f64), String> {
    let config = cif_config(frames, ctx.seed);
    let ((library, workload), setup_s) = timed_setup(setup_repeats(ctx, repeats), || {
        Ok((checked_library(ctx)?, EncoderWorkload::generate(&config)))
    })?;
    if ctx.trace {
        let mut tree = SpanTree::new();
        let root = tree.begin("setup", Layer::Bench);
        let gen = generate_traced(&config, &mut tree);
        tree.end(root);
        tree.layer_self_ns(root)?;
        if trace_digest(gen.workload.trace()) != trace_digest(workload.trace()) {
            return Err("traced generation produced a different trace".into());
        }
        h264_metrics(
            report,
            &gen.frame_ms,
            &[gen.build_ms],
            &video_frame_ms(&config),
            workload.trace(),
        );
    }
    Ok((library, workload, setup_s))
}

/// `sweep_replay`: the same 101-job sweep over a set-up trace.
pub fn sweep_replay(ctx: &Ctx<'_>, report: &mut Report) -> Result<(), String> {
    let spec = ctx.spec;
    let threads = spec.sweep_threads;
    let (library, workload, setup_s) =
        replay_setup(ctx, spec.replay_frames, spec.replay_setup_repeats, report)?;
    let trace = workload.trace();
    let digest = trace_digest(trace);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut reference: Option<Reference> = None;
    let start = Instant::now();
    while more(start, walls.len(), untraced_seconds(ctx)) {
        let t = Instant::now();
        let results = SweepRunner::with_threads(threads)
            .with_plan_cache(PlanCacheHandle::default())
            .run(&library, &fig7_jobs(trace));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(sweep_cycles(&results) as f64 / 1e6 / wall);
        match &reference {
            None => reference = Some(Reference { digest, results }),
            Some(r) => r.check("sweep_replay iteration", digest, &results)?,
        }
    }
    let reference = reference.expect("at least one iteration");
    report.attempted = (walls.len() * 101) as u64;

    if ctx.trace {
        let mut tree = SpanTree::new();
        let mut traced_walls = Vec::new();
        let mut unattributed = Vec::new();
        let mut sweeps = Vec::new();
        let start = Instant::now();
        while more(start, traced_walls.len(), ctx.seconds / 2.0) {
            let root = tree.begin("iteration", Layer::Bench);
            let sweep = traced_sweep(&library, trace, threads, &mut tree);
            let iter_ns = tree.end(root);
            let layers = tree.layer_self_ns(root)?;
            reference.check("traced iteration", digest, &sweep.results)?;
            traced_walls.push(s(iter_ns));
            unattributed.push(s(layers[0]));
            sweeps.push(sweep);
        }
        report.attempted += (traced_walls.len() * 101) as u64;
        sweep_metrics(report, &sweeps);
        audit_metrics(report, &traced_walls, &walls, &unattributed);
        tree.write("sweep_replay");
    } else {
        e2e_metrics(report, setup_s, &walls, &rates)?;
    }
    check_sweep(ctx, &library, spec.replay_frames, trace, &reference)
}

/// One untraced `observed_export` iteration: the observed simulation and
/// what the export layer renders for a user — the metrics snapshot (JSON
/// and Prometheus text), the Perfetto trace and the JSONL event log.
/// Everything it allocates is freed before it returns. Returns the
/// statistics and the bytes rendered.
fn observed_iteration(library: &SiLibrary, trace: &Trace, config: &SimConfig) -> (RunStats, usize) {
    let mut metrics = MetricsObserver::new();
    let mut perfetto = PerfettoTraceObserver::new();
    let mut log = TraceLogObserver::new();
    let mut flight = FlightRecorder::new();
    let (stats, _) = {
        let mut extra: [&mut dyn SimObserver; 4] =
            [&mut metrics, &mut perfetto, &mut log, &mut flight];
        simulate_observed_planned(library, trace, config, None, &mut extra)
    };
    let snapshot = metrics.into_snapshot();
    let parts = [
        snapshot.to_json(),
        snapshot.to_prometheus_text(),
        perfetto.into_json(),
        log.to_jsonl(),
    ];
    black_box(&flight);
    (stats, black_box(&parts).iter().map(String::len).sum())
}

/// `observed_export`: one observed simulation plus the renders.
pub fn observed_export(ctx: &Ctx<'_>, report: &mut Report) -> Result<(), String> {
    let spec = ctx.spec;
    let (library, workload, setup_s) = replay_setup(
        ctx,
        spec.observed_frames,
        spec.observed_setup_repeats,
        report,
    )?;
    let trace = workload.trace();
    let config = SimConfig::rispp(spec.observed_containers, spec.observed_scheduler)
        .with_explain(true)
        .with_journal(true);

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut reference: Option<(RunStats, usize)> = None;
    let start = Instant::now();
    while more(start, walls.len(), untraced_seconds(ctx)) {
        let t = Instant::now();
        let (stats, bytes) = observed_iteration(&library, trace, &config);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(stats.total_cycles as f64 / 1e6 / wall);
        match &reference {
            None => reference = Some((stats, bytes)),
            Some((r, b)) => {
                if *r != stats || *b != bytes {
                    return Err("observed_export iterations disagree".into());
                }
            }
        }
    }
    let (reference, bytes) = reference.expect("at least one iteration");
    report.attempted = walls.len() as u64;

    if ctx.trace {
        let mut tree = SpanTree::new();
        let mut traced_walls = Vec::new();
        let mut unattributed = Vec::new();
        let mut times = Vec::new();
        let mut engine_self = Vec::new();
        let mut plans = Vec::new();
        let mut observe: [Vec<f64>; 4] = Default::default();
        let mut render_s = Vec::new();
        let start = Instant::now();
        while more(start, traced_walls.len(), ctx.seconds / 2.0) {
            let root = tree.begin("iteration", Layer::Bench);
            let mut metrics = TimedObserver::new(MetricsObserver::new());
            let mut perfetto = TimedObserver::new(PerfettoTraceObserver::new());
            let mut log = TimedObserver::new(TraceLogObserver::new());
            let mut flight = TimedObserver::new(FlightRecorder::new());
            let run = tree.begin("sim.run", Layer::Sim);
            let (stats, plan, t) = {
                let mut extra: [&mut dyn SimObserver; 4] =
                    [&mut metrics, &mut perfetto, &mut log, &mut flight];
                simulate_timed(&library, trace, &config, None, &mut extra)
            };
            let observers_ns = [metrics.ns, perfetto.ns, log.ns, flight.ns];
            tree.attribute("core.plan", Layer::Core, t.enter_ns);
            tree.attribute(
                "telemetry.observe",
                Layer::Telemetry,
                observers_ns.iter().sum(),
            );
            let run_ns = tree.end(run);
            let render = tree.begin("telemetry.render", Layer::Telemetry);
            let snapshot = metrics.inner.into_snapshot();
            let parts = [
                snapshot.to_json(),
                snapshot.to_prometheus_text(),
                perfetto.inner.into_json(),
                log.inner.to_jsonl(),
            ];
            let traced_bytes: usize = black_box(&parts).iter().map(String::len).sum();
            let render_ns = tree.end(render);
            black_box(&flight);
            let iter_ns = tree.end(root);
            let layers = tree.layer_self_ns(root)?;
            if stats != reference || traced_bytes != bytes {
                return Err(
                    "traced observed_export iteration differs from the untraced one".into(),
                );
            }
            traced_walls.push(s(iter_ns));
            unattributed.push(s(layers[0]));
            engine_self.push(
                run_ns
                    .saturating_sub(t.enter_ns + t.burst_ns + t.exit_ns)
                    .saturating_sub(observers_ns.iter().sum()),
            );
            times.push(t);
            plans.push(plan);
            for (slot, ns) in observe.iter_mut().zip(observers_ns) {
                slot.push(s(ns));
            }
            render_s.push(s(render_ns));
        }
        report.attempted += traced_walls.len() as u64;
        let reconfigurations = vec![reference.reconfigurations; times.len()];
        engine_metrics(report, &times, &engine_self, &plans, &reconfigurations);
        report.set("telemetry.observe.metrics_s", median(&observe[0]));
        report.set("telemetry.observe.perfetto_s", median(&observe[1]));
        report.set("telemetry.observe.eventlog_s", median(&observe[2]));
        report.set("telemetry.observe.flight_s", median(&observe[3]));
        report.set("telemetry.export.render_s", median(&render_s));
        report.set("telemetry.export.bytes", bytes as f64);
        audit_metrics(report, &traced_walls, &walls, &unattributed);
        tree.write("observed_export");
    } else {
        e2e_metrics(report, setup_s, &walls, &rates)?;
    }

    // Observers must not change the simulation.
    let (plain, _) = simulate_observed_planned(&library, trace, &config, None, &mut []);
    if plain != reference {
        return Err("observed run statistics differ from a run with no observers".into());
    }
    let digest = trace_digest(trace);
    check_pin(
        ctx.spec,
        ctx.seed,
        spec.observed_frames,
        digest,
        pin_cycles_of(ctx, &library, spec.observed_frames, trace),
    )
}

/// The fig7 sweep cycles of `trace`, computed only when a pin applies.
fn pin_cycles_of(ctx: &Ctx<'_>, library: &SiLibrary, frames: u32, trace: &Trace) -> u64 {
    if ctx.seed != ctx.spec.default_seed || ctx.spec.pin(frames).is_none() {
        return 0;
    }
    sweep_cycles(&SweepRunner::with_threads(ctx.spec.sweep_threads).run(library, &fig7_jobs(trace)))
}
