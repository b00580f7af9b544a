//! The RISPP workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --pins <frames,...>
//! ```
//!
//! Workloads: `sweep_replay`, `observed_export`, `serve_mixed`. With
//! `--trace 0` the last stdout line carries the
//! end-to-end metrics, measured untraced; with `--trace 1` it carries the
//! per-layer metrics of a traced run. Every run checks the simulated
//! outputs and exits 1, without a result line, on any mismatch.
//! `--pins` prints the default-seed digests and sweep cycles that
//! `src/spec.rs` pins.

mod check;
mod pipeline;
mod report;
mod serve;
mod spans;
mod spec;
mod stats;
mod timed;

use std::process::ExitCode;

use report::Report;
use spec::{Spec, SPEC};

/// What one run measures.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The fixed constants.
    pub spec: &'a Spec,
    /// The workload seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line")?;
    Ok(kb / 1024.0)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = spec::workloads();
    if !known.contains(&workload) {
        return Err(format!("unknown workload `{workload}` (one of {known:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a over the workspace sources (`crates/**` and the lock file), so a
/// result names the code it measured even where no git metadata exists.
fn source_digest() -> Option<u64> {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = check::Fnv::default();
    for f in files {
        h.word(f.to_string_lossy().len() as u64);
        for b in std::fs::read(&f).unwrap_or_default() {
            h.word(u64::from(b));
        }
    }
    Some(h.finish())
}

fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Milliseconds a fixed, repository-independent probe takes (median of
/// five): a pseudo-random walk over a 16 MB table. The provenance record
/// carries it, so runs taken while the host itself was slower can be told
/// apart from runs of slower code.
fn host_probe_ms() -> f64 {
    const WORDS: usize = 1 << 21;
    let mut table = vec![0u64; WORDS];
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for (i, slot) in table.iter_mut().enumerate() {
            x = x.rotate_left(7).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i as u64;
            *slot = x;
        }
        let (mut at, mut acc) = (0usize, 0u64);
        for _ in 0..WORDS / 2 {
            acc = acc.wrapping_add(table[at]);
            at = (acc as usize ^ at.wrapping_mul(31)) & (WORDS - 1);
        }
        std::hint::black_box(acc);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times)
}

fn provenance(args: &Args, spec: &Spec) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        r#"{{"provenance": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "commit": "{}", "source_fnv": "{}", "cpu_model": "{}", "nproc": {nproc}, "host_probe_ms": {:.3}, "sized_for_nproc": {}, "sweep_threads": {}, "serve_workers": {}}}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        source_digest().map_or_else(|| "unknown".into(), |d| format!("{d:016x}")),
        rispp_serve::job::json_escape(&cpu_model()),
        host_probe_ms(),
        spec.nproc,
        spec.sweep_threads,
        spec.serve_workers,
    )
}

/// `--pins`: the default-seed trace digest and fig7 sweep cycles for each
/// frame count, as `src/spec.rs` records them.
fn print_pins(spec: &Spec, frames: &str) -> Result<(), String> {
    let library = rispp_h264::h264_si_library();
    for f in frames.split(',') {
        let f: u32 = f
            .trim()
            .parse()
            .map_err(|_| format!("bad frame count `{f}`"))?;
        let workload =
            rispp_h264::EncoderWorkload::generate(&check::cif_config(f, spec.default_seed));
        let results = rispp_sim::SweepRunner::with_threads(spec.sweep_threads)
            .run(&library, &check::fig7_jobs(workload.trace()));
        println!(
            r#"{{"frames": {f}, "trace_fnv": "{:016x}", "sweep_cycles": {}}}"#,
            check::trace_digest(workload.trace()),
            check::sweep_cycles(&results)
        );
    }
    Ok(())
}

fn run(args: &Args, spec: &Spec) -> Result<String, String> {
    let ctx = Ctx {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    // A traced run reports 0 for a layer the workload does not exercise.
    let mut report = Report::new(&spec::metric_decls(args.trace), args.trace.then_some(0.0));
    match args.workload.as_str() {
        "sweep_replay" => pipeline::sweep_replay(&ctx, &mut report)?,
        "observed_export" => pipeline::observed_export(&ctx, &mut report)?,
        "serve_mixed" => serve::serve_mixed(&ctx, &mut report)?,
        other => unreachable!("workload `{other}` passed validation"),
    }
    report.render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = &SPEC;
    if argv.first().map(String::as_str) == Some("--pins") {
        let Some(frames) = argv.get(1) else {
            eprintln!("usage: perfbench --pins <frames,...>");
            return ExitCode::from(2);
        };
        return match print_pins(spec, frames) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                spec::workloads().join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the default user path: no kernel-tier or
    // plan-cache override may leak in from the environment.
    for var in ["RISPP_KERNEL_TIER", "RISPP_PLAN_CACHE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: unset {var}; the benchmark measures the default path");
            return ExitCode::from(2);
        }
    }
    match run(&args, spec) {
        Ok(line) => {
            // Taken after the run, so the probe's table stays out of the
            // run's peak RSS.
            println!("{}", provenance(&args, spec));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_validate() {
        let a = parse_args(&argv(
            "--workload sweep_replay --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep_replay", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload sweep_replay --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload sweep_replay --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload sweep_replay --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload sweep_replay --seed 1")).is_err());
    }

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mean = (0..10_000).map(|_| a.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
        assert!((0..1000).all(|_| a.below(7) < 7));
    }
}
