//! The benchmark's fixed constants, and the metric list read from
//! `BENCHMARK.json`.
//!
//! Nothing here is derived from the code under test: the sizes are fixed for
//! a 2-core host, the serve rates from the repository's committed serve
//! throughput (`BENCH_serve.json`), and the pins from the default-seed
//! outputs of the paper's encoder configuration.

use rispp_core::SchedulerKind;
use rispp_telemetry::JsonValue;

use crate::report::MetricDecl;

/// `BENCHMARK.json` at the repository root, embedded at build time: the
/// single list of workloads, metric names and units.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A pinned result at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// CIF frames encoded.
    pub frames: u32,
    /// FNV-1a digest of the generated trace.
    pub trace_fnv: u64,
    /// Summed `total_cycles` of the 101-job fig7 sweep over that trace.
    pub sweep_cycles: u64,
}

/// Serve throughput the rates are fixed against: the committed
/// `BENCH_serve.json` measured 3751 jobs/s on one worker; the benchmark's
/// server has two.
pub const SERVE_REFERENCE_JOBS_S: f64 = 2.0 * 3751.0;

/// Serve-workload constants.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Server start-ups timed per run for `setup_s`.
    pub setup_repeats: usize,
    /// Built-in `fig7:F` traces the mix uses (the first also for faults).
    pub builtin_frames: &'static [u32],
    /// Rate `lo`: well below capacity.
    pub lo_jobs_s: f64,
    /// Rate `hi`: loaded, below capacity.
    pub hi_jobs_s: f64,
    /// The rate ladder, crossing capacity.
    pub ladder_jobs_s: &'static [f64],
    /// Saturating batches run first to fill the server's caches.
    pub saturation_warmup_batches: usize,
    /// Fewest saturating batches measured for the end-to-end metrics; more
    /// run until the run's time is used up.
    pub saturation_batches: usize,
    /// Jobs per saturating batch.
    pub saturation_jobs: usize,
    /// Offered rate of a saturating batch.
    pub saturation_jobs_s: f64,
    /// Tail latency a ladder rung must meet.
    pub latency_limit_ms: f64,
    /// Share of the run's time at rate `lo`.
    pub share_lo: f64,
    /// Share of the run's time at rate `hi`.
    pub share_hi: f64,
    /// Share of the run's time on the ladder. The rest goes to saturating
    /// batches.
    pub share_ladder: f64,
    /// Share of jobs with a distinct inline trace.
    pub mix_inline: f64,
    /// Share of fault-injected jobs.
    pub mix_fault: f64,
    /// Invocations of an inline trace.
    pub inline_invocations: usize,
    /// Bursts per inline invocation.
    pub inline_bursts: usize,
    /// Fault rate of a fault-injected job.
    pub fault_rate_ppm: u32,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Warm trace cache capacity.
    pub trace_cache_capacity: usize,
    /// One job in this many is compared against a direct simulation.
    pub verify_every: usize,
}

/// Every constant of the benchmark.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The paper's encoder seed, at which the pins apply.
    pub default_seed: u64,
    /// Host cores the load is sized for.
    pub nproc: usize,
    /// Threads of every fig7 sweep.
    pub sweep_threads: usize,
    /// Server worker threads.
    pub serve_workers: usize,
    /// Client connections (one generator thread each).
    pub connections: usize,
    /// CIF frames of the `sweep_replay` trace.
    pub replay_frames: u32,
    /// Set-ups timed per `sweep_replay` run.
    pub replay_setup_repeats: usize,
    /// CIF frames of the `observed_export` trace.
    pub observed_frames: u32,
    /// Set-ups timed per `observed_export` run.
    pub observed_setup_repeats: usize,
    /// Atom Containers of the observed run.
    pub observed_containers: u16,
    /// Scheduler of the observed run.
    pub observed_scheduler: SchedulerKind,
    /// The serve workload.
    pub serve: ServeSpec,
    /// Sweep jobs re-run on one thread with the plan cache off.
    pub sample_jobs: usize,
    /// Default-seed pins; the smallest is checked in every run.
    pub pins: &'static [Pin],
}

/// The constants.
pub const SPEC: Spec = Spec {
    default_seed: 2008,
    nproc: 2,
    sweep_threads: 2,
    serve_workers: 2,
    connections: 2,
    replay_frames: 8,
    replay_setup_repeats: 5,
    observed_frames: 8,
    observed_setup_repeats: 5,
    observed_containers: 14,
    observed_scheduler: SchedulerKind::Hef,
    serve: ServeSpec {
        setup_repeats: 5,
        builtin_frames: &[2, 3],
        lo_jobs_s: 0.1 * SERVE_REFERENCE_JOBS_S,
        // One worker's committed throughput: half the reference capacity
        // of two workers, and still below capacity on a host that runs
        // the server well under the reference speed.
        hi_jobs_s: 0.5 * SERVE_REFERENCE_JOBS_S,
        ladder_jobs_s: &[
            0.25 * SERVE_REFERENCE_JOBS_S,
            0.5 * SERVE_REFERENCE_JOBS_S,
            0.75 * SERVE_REFERENCE_JOBS_S,
            1.0 * SERVE_REFERENCE_JOBS_S,
            1.25 * SERVE_REFERENCE_JOBS_S,
            1.5 * SERVE_REFERENCE_JOBS_S,
        ],
        saturation_warmup_batches: 5,
        saturation_batches: 12,
        saturation_jobs: 2000,
        saturation_jobs_s: 20_000.0,
        // The p99 limit `BENCH_serve.json` holds the daemon to.
        latency_limit_ms: 500.0,
        // Phases hold their submit lines and overload the server, so they
        // set the peak RSS; kept short, the saturating batches that fill
        // the rest of the run (about 28 at 30 s) steady the time metrics.
        share_lo: 0.2,
        share_hi: 0.1,
        share_ladder: 0.2,
        mix_inline: 0.15,
        mix_fault: 0.05,
        inline_invocations: 12,
        inline_bursts: 100,
        fault_rate_ppm: 50_000,
        queue_capacity: 65_536,
        trace_cache_capacity: 32,
        verify_every: 16,
    },
    sample_jobs: 6,
    pins: &[
        Pin {
            frames: 2,
            trace_fnv: 0x8ec0_4c96_9a99_0004,
            sweep_cycles: 1_227_965_249,
        },
        Pin {
            frames: 8,
            trace_fnv: 0x8ceb_4855_8553_d2ac,
            sweep_cycles: 5_583_424_442,
        },
        Pin {
            frames: 140,
            trace_fnv: 0x5134_ae81_447c_8c3d,
            sweep_cycles: 100_396_507_017,
        },
    ],
};

impl Spec {
    /// The pin for `frames` frames at the default seed, if one is recorded.
    #[must_use]
    pub fn pin(&self, frames: u32) -> Option<Pin> {
        self.pins.iter().copied().find(|p| p.frames == frames)
    }
}

fn benchmark_json() -> JsonValue {
    JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn entries(list: &JsonValue) -> impl Iterator<Item = &JsonValue> {
    list.as_array().expect("BENCHMARK.json: a list").iter()
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
}

/// The metrics a run prints, in `BENCHMARK.json` order: `end_to_end` for an
/// untraced run, `per_layer` for a traced one.
#[must_use]
pub fn metric_decls(trace: bool) -> Vec<MetricDecl> {
    let bench = benchmark_json();
    let key = if trace { "per_layer" } else { "end_to_end" };
    entries(bench.get(key).expect("BENCHMARK.json: metric list"))
        .map(|m| MetricDecl {
            name: text(m, "name").to_owned(),
            unit: text(m, "unit").to_owned(),
        })
        .collect()
}

/// The workload names, in `BENCHMARK.json` order.
#[must_use]
pub fn workloads() -> Vec<String> {
    let bench = benchmark_json();
    entries(bench.get("workloads").expect("BENCHMARK.json: workloads"))
        .map(|w| text(w, "name").to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        let spec = &SPEC;
        assert!(spec.sweep_threads >= 1 && spec.sweep_threads <= spec.nproc);
        assert!(spec.serve_workers >= 1 && spec.connections <= spec.nproc);
        let s = &spec.serve;
        // lo well below the reference capacity, hi near it, and a ladder
        // that crosses it.
        assert!(s.lo_jobs_s <= 0.25 * SERVE_REFERENCE_JOBS_S);
        assert!(s.hi_jobs_s > s.lo_jobs_s && s.hi_jobs_s < SERVE_REFERENCE_JOBS_S);
        assert!(s.ladder_jobs_s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.ladder_jobs_s[0] < SERVE_REFERENCE_JOBS_S);
        assert!(s.ladder_jobs_s[s.ladder_jobs_s.len() - 1] > SERVE_REFERENCE_JOBS_S);
        assert!(s.saturation_jobs_s > s.ladder_jobs_s[s.ladder_jobs_s.len() - 1]);
        assert!(s.share_lo + s.share_hi + s.share_ladder <= 0.5);
        assert!(s.mix_inline + s.mix_fault < 1.0);
        // The paper's full 140-frame pin is always recorded.
        assert_eq!(spec.pin(140).map(|p| p.sweep_cycles), Some(100_396_507_017));
    }

    #[test]
    fn spec_json_gives_every_metric_a_layer() {
        let doc = JsonValue::parse(include_str!("../spec.json")).expect("spec.json parses");
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let documented: Vec<&JsonValue> = entries(doc.get(key).expect("metric list")).collect();
            for decl in metric_decls(trace) {
                let entry = documented
                    .iter()
                    .find(|m| text(m, "name") == decl.name)
                    .unwrap_or_else(|| panic!("spec.json does not document `{}`", decl.name));
                assert!(!text(entry, "layer").is_empty());
                if trace {
                    assert!(!text(entry, "moves").is_empty(), "`{}`", decl.name);
                }
            }
            assert_eq!(documented.len(), metric_decls(trace).len(), "{key}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics() {
        assert_eq!(
            workloads(),
            ["sweep_replay", "observed_export", "serve_mixed"]
        );
        assert_eq!(metric_decls(false)[0].name, "setup_s");
        assert!(metric_decls(true).iter().all(|d| !d.unit.is_empty()));
    }
}
