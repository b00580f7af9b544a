//! Forwarding wrappers that time the engine's calls into a backend and
//! into observers. Only the traced run uses them; the untraced run calls
//! the library's own entry points.

use std::borrow::Cow;
use std::time::Instant;

use rispp_core::{BurstSegment, DecisionExplain, PlanCacheHandle, PlanCacheStats, RecoveryStats};
use rispp_fabric::FabricJournalEntry;
use rispp_model::{SiId, SiLibrary};
use rispp_sim::{
    simulate_with, Burst, ExecutionSystem, Invocation, RunStats, SimConfig, SimEvent, SimObserver,
    Trace, TraceContext,
};

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Time and call counts of one or more replays, split by engine call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineTimes {
    /// Time in `enter_hot_spot` (planning: selection and scheduling).
    pub enter_ns: u64,
    /// `enter_hot_spot` calls.
    pub enters: u64,
    /// Time in the burst calls, batched and single.
    pub burst_ns: u64,
    /// Batched calls that advanced at least one burst.
    pub batched_calls: u64,
    /// Single-burst calls (`execute_burst` / `execute_burst_into`).
    pub single_calls: u64,
    /// Bursts advanced by batched calls.
    pub batched_bursts: u64,
    /// Segments returned by all burst calls.
    pub segments: u64,
    /// Time in `exit_hot_spot`.
    pub exit_ns: u64,
}

impl EngineTimes {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &EngineTimes) {
        self.enter_ns += other.enter_ns;
        self.enters += other.enters;
        self.burst_ns += other.burst_ns;
        self.batched_calls += other.batched_calls;
        self.single_calls += other.single_calls;
        self.batched_bursts += other.batched_bursts;
        self.segments += other.segments;
        self.exit_ns += other.exit_ns;
    }

    /// Bursts advanced, batched and single.
    #[must_use]
    pub fn bursts(&self) -> u64 {
        self.batched_bursts + self.single_calls
    }
}

/// An [`ExecutionSystem`] that forwards every call to `inner` and times
/// the hot-spot entry, burst and exit calls.
pub struct TimedSystem<'a> {
    inner: Box<dyn ExecutionSystem + 'a>,
    /// Accumulated times and counts.
    pub times: EngineTimes,
}

impl<'a> TimedSystem<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn ExecutionSystem + 'a>) -> Self {
        TimedSystem {
            inner,
            times: EngineTimes::default(),
        }
    }
}

impl ExecutionSystem for TimedSystem<'_> {
    fn label(&self) -> Cow<'static, str> {
        self.inner.label()
    }

    fn enter_hot_spot(&mut self, invocation: &Invocation, now: u64) {
        let t = Instant::now();
        self.inner.enter_hot_spot(invocation, now);
        self.times.enter_ns += ns_since(t);
        self.times.enters += 1;
    }

    fn execute_burst(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
    ) -> Vec<BurstSegment> {
        let t = Instant::now();
        let out = self.inner.execute_burst(si, count, overhead, start);
        self.times.burst_ns += ns_since(t);
        self.times.single_calls += 1;
        self.times.segments += out.len() as u64;
        out
    }

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        let t = Instant::now();
        self.inner
            .execute_burst_into(si, count, overhead, start, out);
        self.times.burst_ns += ns_since(t);
        self.times.single_calls += 1;
        self.times.segments += out.len() as u64;
    }

    fn execute_bursts_batched(
        &mut self,
        bursts: &[Burst],
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) -> usize {
        let t = Instant::now();
        let consumed = self.inner.execute_bursts_batched(bursts, start, out);
        self.times.burst_ns += ns_since(t);
        if consumed > 0 {
            self.times.batched_calls += 1;
            self.times.batched_bursts += consumed as u64;
            self.times.segments += out.len() as u64;
        }
        consumed
    }

    fn exit_hot_spot(&mut self, now: u64) {
        let t = Instant::now();
        self.inner.exit_hot_spot(now);
        self.times.exit_ns += ns_since(t);
    }

    fn reconfiguration_stats(&self) -> (u64, u64) {
        self.inner.reconfiguration_stats()
    }

    fn recovery_stats(&self) -> RecoveryStats {
        self.inner.recovery_stats()
    }

    fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache_stats()
    }

    fn has_pending_activity(&self) -> bool {
        self.inner.has_pending_activity()
    }

    fn recovery_active(&self) -> bool {
        self.inner.recovery_active()
    }

    fn telemetry_active(&self) -> bool {
        self.inner.telemetry_active()
    }

    fn drain_decisions(&mut self, out: &mut Vec<DecisionExplain>) {
        self.inner.drain_decisions(out);
    }

    fn drain_fabric_journal(&mut self, out: &mut Vec<FabricJournalEntry>) {
        self.inner.drain_fabric_journal(out);
    }
}

/// A [`SimObserver`] that forwards to `inner` and times its event
/// handling.
#[derive(Debug)]
pub struct TimedObserver<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Time spent in `inner.on_event`.
    pub ns: u64,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TimedObserver { inner, ns: 0 }
    }
}

impl<O: SimObserver> SimObserver for TimedObserver<O> {
    fn on_event(&mut self, event: &SimEvent) {
        let t = Instant::now();
        self.inner.on_event(event);
        self.ns += ns_since(t);
    }

    fn set_trace_context(&mut self, context: TraceContext) {
        self.inner.set_trace_context(context);
    }

    fn wants_segments(&self) -> bool {
        self.inner.wants_segments()
    }
}

/// One replay through [`TimedSystem`], built and driven the way
/// `rispp_sim::simulate_observed_planned` builds and drives its system:
/// the same factory, a [`RunStats`] collector first, then `extra`.
pub fn simulate_timed(
    library: &SiLibrary,
    trace: &Trace,
    config: &SimConfig,
    shared: Option<&PlanCacheHandle>,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> (RunStats, PlanCacheStats, EngineTimes) {
    let mut system = TimedSystem::new(config.build_system_shared(library, shared));
    let mut stats = RunStats::new(
        system.label(),
        library.len(),
        config.bucket_cycles,
        config.detail,
    );
    {
        let mut observers: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(1 + extra.len());
        observers.push(&mut stats);
        for obs in extra.iter_mut() {
            observers.push(&mut **obs);
        }
        if let Some(ctx) = config.trace {
            for obs in observers.iter_mut() {
                obs.set_trace_context(ctx);
            }
        }
        simulate_with(&mut system, trace, &mut observers);
    }
    let plan = system.plan_cache_stats();
    (stats, plan, system.times)
}
