//! Correctness gates: trace digests, the pinned default-seed results, and
//! bit-for-bit re-runs of sampled sweep jobs.

use rispp_core::SchedulerKind;
use rispp_h264::{EncoderConfig, EncoderWorkload};
use rispp_model::SiLibrary;
use rispp_sim::{simulate_observed_planned, RunStats, SimConfig, SweepJob, SweepRunner, Trace};

use crate::spec::Spec;
use crate::Rng;

/// The Atom Container counts of the Figure 7 sweep.
pub const AC_SWEEP: std::ops::RangeInclusive<u16> = 5..=24;

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the hash.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a trace: every invocation's hot spot, prologue,
/// bursts and hints, in order.
#[must_use]
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::default();
    h.word(trace.len() as u64);
    for inv in trace.invocations() {
        h.word(u64::from(inv.hot_spot.0));
        h.word(inv.prologue_cycles);
        h.word(inv.bursts.len() as u64);
        for b in &inv.bursts {
            h.word(b.si.index() as u64);
            h.word(u64::from(b.count));
            h.word(u64::from(b.overhead));
        }
        h.word(inv.hints.len() as u64);
        for &(si, executions) in &inv.hints {
            h.word(si.index() as u64);
            h.word(executions);
        }
    }
    h.finish()
}

/// Bursts in a trace.
#[must_use]
pub fn burst_count(trace: &Trace) -> u64 {
    trace
        .invocations()
        .iter()
        .map(|inv| inv.bursts.len() as u64)
        .sum()
}

/// The paper's CIF encoder configuration at `frames` frames and `seed`.
#[must_use]
pub fn cif_config(frames: u32, seed: u64) -> EncoderConfig {
    let mut config = EncoderConfig::paper_cif();
    config.frames = frames;
    config.seed = seed;
    config
}

/// The Figure 7 job list, in the `fig7` binary's order: software, then per
/// AC count the four schedulers followed by Molen (1 + 5 x 20 = 101 jobs).
#[must_use]
pub fn fig7_jobs(trace: &Trace) -> Vec<SweepJob<'_>> {
    let mut jobs = vec![SweepJob::new(SimConfig::software_only(), trace)];
    for ac in AC_SWEEP {
        for &kind in &SchedulerKind::ALL {
            jobs.push(SweepJob::new(SimConfig::rispp(ac, kind), trace));
        }
        jobs.push(SweepJob::new(SimConfig::molen(ac), trace));
    }
    jobs
}

/// Summed simulated cycles of a sweep.
#[must_use]
pub fn sweep_cycles(results: &[RunStats]) -> u64 {
    results.iter().map(|s| s.total_cycles).sum()
}

/// Checks a generated trace and its sweep against the pin for `frames`,
/// when the run uses the default seed and a pin is recorded.
///
/// # Errors
///
/// Names the mismatching value.
pub fn check_pin(
    spec: &Spec,
    seed: u64,
    frames: u32,
    digest: u64,
    cycles: u64,
) -> Result<(), String> {
    if seed != spec.default_seed {
        return Ok(());
    }
    let Some(pin) = spec.pin(frames) else {
        return Ok(());
    };
    if pin.trace_fnv != digest {
        return Err(format!(
            "{frames}-frame trace digest {digest:016x} != pinned {:016x}",
            pin.trace_fnv
        ));
    }
    if pin.sweep_cycles != cycles {
        return Err(format!(
            "{frames}-frame sweep cycles {cycles} != pinned {}",
            pin.sweep_cycles
        ));
    }
    Ok(())
}

/// Generates the default-seed trace at the smallest pinned frame count,
/// sweeps it and checks both against the pin. Every set-up ends with it,
/// whatever the seed, so a change to generation or replay fails before
/// anything is measured.
///
/// # Errors
///
/// Names the mismatching value.
pub fn check_quick_pin(spec: &Spec, library: &SiLibrary, threads: usize) -> Result<(), String> {
    let pin = spec
        .pins
        .iter()
        .min_by_key(|p| p.frames)
        .ok_or("no pins are recorded")?;
    let workload = EncoderWorkload::generate(&cif_config(pin.frames, spec.default_seed));
    let results = SweepRunner::with_threads(threads).run(library, &fig7_jobs(workload.trace()));
    check_pin(
        spec,
        spec.default_seed,
        pin.frames,
        trace_digest(workload.trace()),
        sweep_cycles(&results),
    )
}

/// Re-runs `sample` seeded jobs of `jobs` on one thread with the plan
/// cache off and compares them bit-for-bit with `results`.
///
/// # Errors
///
/// Names the first job whose statistics differ.
pub fn check_sampled_jobs(
    library: &SiLibrary,
    jobs: &[SweepJob<'_>],
    results: &[RunStats],
    sample: usize,
    rng: &mut Rng,
) -> Result<(), String> {
    if results.len() != jobs.len() {
        return Err(format!("{} results for {} jobs", results.len(), jobs.len()));
    }
    for _ in 0..sample.min(jobs.len()) {
        let i = rng.below(jobs.len() as u64) as usize;
        let config = jobs[i].config.with_plan_cache(false);
        let (reference, _) =
            simulate_observed_planned(library, jobs[i].trace, &config, None, &mut []);
        if reference != results[i] {
            return Err(format!(
                "sweep job {i} ({}, {} ACs) differs from its single-thread, cache-off re-run",
                results[i].system, jobs[i].config.containers
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of the eight bytes of 0u64.
        let mut h = Fnv::default();
        h.word(0);
        let mut reference = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            reference = reference.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), reference);
    }

    #[test]
    fn fig7_job_list_has_101_jobs() {
        let trace = Trace::default();
        let jobs = fig7_jobs(&trace);
        assert_eq!(jobs.len(), 101);
        assert_eq!(jobs[0].config, SimConfig::software_only());
        assert_eq!(jobs[5].config, SimConfig::molen(5));
    }

    #[test]
    fn digest_sees_every_field() {
        let w = EncoderWorkload::generate(&EncoderConfig::tiny(2));
        let base = trace_digest(w.trace());
        let mut invocations = w.trace().invocations().to_vec();
        invocations[1].hints[0].1 += 1;
        assert_ne!(trace_digest(&Trace::from_invocations(invocations)), base);
        assert_eq!(trace_digest(&w.trace().clone()), base);
    }
}
