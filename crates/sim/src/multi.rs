//! Multi-application simulation: K traces contending for one
//! reconfigurable substrate through the [`rispp_core::FabricArbiter`].
//!
//! [`simulate_multi`] replays one trace per tenant, interleaving
//! invocations under a [`TenantArbitration`] and mapping the
//! [`TenancyConfig`] policy onto the arbiter's
//! [`ContentionPolicy`]:
//!
//! * [`TenantPolicy::Shared`] — one fabric, one serialized clock. Tenants
//!   alternate on the substrate; atoms loaded by one accelerate another
//!   ([`SimEvent::AtomShared`]) and evictions of a co-tenant's atoms are
//!   counted as contested ([`SimEvent::EvictionContested`]).
//! * [`TenantPolicy::Partitioned`] — each tenant gets a private fabric of
//!   `containers / K` containers with its own clock starting at 0. Tenants
//!   are perfectly cycle-isolated: each one's [`RunStats`] is bit-identical
//!   to a solo run on a fabric of its partition's size.
//!
//! A 1-tenant run (any policy) is bit-identical to [`crate::simulate`]:
//! both build their arbiter through the same `SimConfig` mapping and
//! replay it through the same [`RisppBackend`] and replay loop — a solo
//! run *is* the K=1 tenant path.
//!
//! The non-RISPP [`SystemKind`]s have no shared substrate to arbitrate:
//! each tenant simply gets its own independent baseline system
//! (`containers / K` slots under `Partitioned`, the full pool — an
//! idealized duplicated substrate — under `Shared`) and replays solo.

use std::borrow::Cow;
use std::rc::Rc;

use rispp_core::ContentionPolicy;
use rispp_model::SiLibrary;

use crate::backend::{ExecutionSystem, RisppBackend};
use crate::engine::{
    emit, finish_replay, replay_invocation, simulate_observed, ReplayState, SimConfig, SystemKind,
};
use crate::observer::{SimEvent, SimObserver};
use crate::stats::RunStats;
use crate::trace::Trace;

/// How the substrate is shared between the applications of a
/// multi-tenant run (the simulation-level mirror of [`ContentionPolicy`],
/// which needs the tenant count to be materialised).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TenantPolicy {
    /// Full sharing with owner tags, cross-app atom reuse and
    /// contention-aware scheduling.
    #[default]
    Shared,
    /// Static split: `containers / K` private containers per tenant,
    /// perfect cycle isolation.
    Partitioned,
}

/// How the multi-tenant engine picks the next tenant to run an
/// invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TenantArbitration {
    /// Strict rotation over the tenants that still have invocations left.
    #[default]
    RoundRobin,
    /// Always run the tenant with the fewest consumed cycles so far
    /// (lowest index on ties) — keeps the tenants' own clocks as close
    /// together as invocation granularity allows.
    CycleInterleaved,
}

/// Multi-application tenancy parameters of a [`SimConfig`].
///
/// `count` is advisory — [`simulate_multi`] derives the tenant count from
/// the number of traces it is given; the field exists so sweeps can carry
/// the intended K in the `Copy` config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenancyConfig {
    /// Intended number of tenants (1 = classic single-owner simulation).
    pub count: u16,
    /// How the substrate is shared.
    pub policy: TenantPolicy,
    /// How tenants are interleaved.
    pub arbitration: TenantArbitration,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            count: 1,
            policy: TenantPolicy::Shared,
            arbitration: TenantArbitration::RoundRobin,
        }
    }
}

/// Aggregated results of one multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRunStats {
    /// Per-tenant statistics, indexed by tenant.
    pub per_tenant: Vec<RunStats>,
    /// Total cycles *consumed* across tenants (Σ of each tenant's share of
    /// the serialized clock under `Shared`; Σ of the private clocks under
    /// `Partitioned`). The throughput metric: lower is better for a fixed
    /// workload.
    pub aggregate_cycles: u64,
    /// Wall-clock span of the run: the final serialized clock under
    /// `Shared`, the slowest tenant's clock under `Partitioned`.
    pub makespan_cycles: u64,
    /// Foreign atoms found already loaded by co-tenants across all plans
    /// (cross-app reuse; zero outside `Shared` multi-tenancy).
    pub atoms_shared: u64,
    /// Loads that evicted an atom owned by a different application (zero
    /// outside `Shared` multi-tenancy).
    pub evictions_contested: u64,
}

/// Containers each tenant gets under a partitioned split of `total`.
fn partition_size(total: u16, tenants: usize) -> u16 {
    let k = u16::try_from(tenants.max(1)).expect("tenant count fits u16");
    total / k
}

/// Picks the next tenant with invocations left, or `None` when all traces
/// are drained.
fn pick_next(
    arbitration: TenantArbitration,
    prev: Option<usize>,
    next_inv: &[usize],
    traces: &[Trace],
    consumed: &[u64],
) -> Option<usize> {
    let k = traces.len();
    let remaining = |i: usize| next_inv[i] < traces[i].invocations().len();
    match arbitration {
        TenantArbitration::RoundRobin => {
            let first = prev.map_or(0, |p| (p + 1) % k);
            (0..k).map(|off| (first + off) % k).find(|&i| remaining(i))
        }
        TenantArbitration::CycleInterleaved => {
            (0..k).filter(|&i| remaining(i)).min_by_key(|&i| (consumed[i], i))
        }
    }
}

/// Replays one trace per tenant on the configured system under the
/// config's [`TenancyConfig`], returning per-tenant and aggregate
/// statistics. See [`simulate_multi_observed`] for extra observers.
///
/// # Panics
///
/// Panics if a trace references SIs outside `library`.
#[must_use]
pub fn simulate_multi(library: &SiLibrary, traces: &[Trace], config: &SimConfig) -> MultiRunStats {
    simulate_multi_observed(library, traces, config, &mut [])
}

/// [`simulate_multi`] with extra observers: `extra` is either empty or
/// holds exactly one observer per trace, attached to that tenant's event
/// stream alongside its [`RunStats`] collector.
///
/// Tenant event streams are interleaved at invocation granularity; the
/// switched-to tenant receives a [`SimEvent::TenantSwitched`] at the start
/// of each of its slices (only when more than one tenant runs).
///
/// # Panics
///
/// Panics if `extra` is non-empty with a length different from `traces`,
/// or if a trace references SIs outside `library`.
#[must_use]
pub fn simulate_multi_observed(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    assert!(
        extra.is_empty() || extra.len() == traces.len(),
        "extra observers must be empty or one per trace"
    );
    let k = traces.len();
    if k == 0 {
        return MultiRunStats {
            per_tenant: Vec::new(),
            aggregate_cycles: 0,
            makespan_cycles: 0,
            atoms_shared: 0,
            evictions_contested: 0,
        };
    }
    match config.system {
        SystemKind::Rispp(_) => simulate_multi_rispp(library, traces, config, extra),
        _ => simulate_multi_independent(library, traces, config, extra),
    }
}

/// The arbitrated RISPP path: one [`rispp_core::FabricArbiter`], K
/// [`RisppBackend`]s over it, invocation-sliced interleaving.
fn simulate_multi_rispp(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    let k = traces.len();
    let policy = match config.tenants.policy {
        TenantPolicy::Shared => ContentionPolicy::Shared,
        TenantPolicy::Partitioned => ContentionPolicy::Partitioned {
            containers_per_app: partition_size(config.containers, k),
        },
    };
    let arbiter = config.build_arbiter(
        library,
        u16::try_from(k).expect("tenant count fits u16"),
        policy,
        // One private cache per multi-tenant run: the application index
        // and tenant count are plan-key words, so K tenants share the
        // cache without ever sharing a decision across apps.
        None,
    );
    let base = config.system.label();
    let mut handles: Vec<RisppBackend<'_>> = (0..k)
        .map(|i| {
            // With one tenant the label is the plain scheduler
            // abbreviation, keeping RunStats comparable (and equal) to a
            // single-tenant run.
            let label = if k == 1 {
                Cow::Borrowed(base)
            } else {
                Cow::Owned(format!("{base}[t{i}]"))
            };
            let app = u16::try_from(i).expect("tenant index fits u16");
            RisppBackend::new(Rc::clone(&arbiter), app, label, config.oracle)
        })
        .collect();
    let mut stats: Vec<RunStats> = handles
        .iter()
        .map(|h| RunStats::new(h.label(), library.len(), config.bucket_cycles, config.detail))
        .collect();
    let mut states: Vec<ReplayState> = Vec::with_capacity(k);
    for i in 0..k {
        let mut obs: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(2);
        obs.push(&mut stats[i]);
        if !extra.is_empty() {
            obs.push(&mut *extra[i]);
        }
        states.push(ReplayState::new(&handles[i], &obs));
    }

    // Shared tenants serialize on one global clock; partitioned tenants
    // each run their private fabric's clock from 0, so their results are
    // independent of the interleaving order.
    let shared_clock = matches!(policy, ContentionPolicy::Shared);
    let mut global_now = 0u64;
    let mut clocks = vec![0u64; k];
    let mut consumed = vec![0u64; k];
    let mut next_inv = vec![0usize; k];
    let mut prev: Option<usize> = None;
    // Contention counters already surfaced as events: per-tenant reuse
    // totals, and the substrate-global contested counter with its
    // per-tenant attribution (each delta goes to the tenant whose slice
    // uncovered it).
    let mut shared_seen = vec![0u64; k];
    let mut contested_seen = 0u64;
    let mut contested_totals = vec![0u64; k];

    while let Some(i) = pick_next(config.tenants.arbitration, prev, &next_inv, traces, &consumed) {
        let inv = &traces[i].invocations()[next_inv[i]];
        let start = if shared_clock { global_now } else { clocks[i] };
        let end;
        {
            let mut obs: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(2);
            obs.push(&mut stats[i]);
            if !extra.is_empty() {
                obs.push(&mut *extra[i]);
            }
            if k > 1 && prev != Some(i) {
                emit(
                    &mut obs,
                    SimEvent::TenantSwitched {
                        tenant: handles[i].app(),
                        now: start,
                    },
                );
            }
            end = replay_invocation(&mut handles[i], inv, start, &mut states[i], &mut obs);
            let contested = arbiter.borrow().contested_evictions();
            if contested > contested_seen {
                let delta = contested - contested_seen;
                contested_seen = contested;
                contested_totals[i] += delta;
                emit(
                    &mut obs,
                    SimEvent::EvictionContested {
                        tenant: handles[i].app(),
                        count: delta,
                        total: contested_totals[i],
                        now: end,
                    },
                );
            }
        }
        consumed[i] += end - start;
        if shared_clock {
            global_now = end;
        } else {
            clocks[i] = end;
        }
        // Cross-app reuse can advance for *any* tenant during this slice
        // (a fault-triggered re-plan replans co-tenants too), so poll all
        // of them.
        for j in 0..k {
            let cur = arbiter.borrow().atoms_shared(handles[j].app());
            if cur > shared_seen[j] {
                let mut obs: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(2);
                obs.push(&mut stats[j]);
                if !extra.is_empty() {
                    obs.push(&mut *extra[j]);
                }
                emit(
                    &mut obs,
                    SimEvent::AtomShared {
                        tenant: handles[j].app(),
                        count: cur - shared_seen[j],
                        total: cur,
                        now: if shared_clock { global_now } else { clocks[j] },
                    },
                );
                shared_seen[j] = cur;
            }
        }
        next_inv[i] += 1;
        prev = Some(i);
    }

    for i in 0..k {
        let now = if shared_clock { global_now } else { clocks[i] };
        let mut obs: Vec<&mut (dyn SimObserver + '_)> = Vec::with_capacity(2);
        obs.push(&mut stats[i]);
        if !extra.is_empty() {
            obs.push(&mut *extra[i]);
        }
        finish_replay(&mut handles[i], now, consumed[i], &mut states[i], &mut obs);
    }

    MultiRunStats {
        aggregate_cycles: consumed.iter().sum(),
        makespan_cycles: if shared_clock {
            global_now
        } else {
            clocks.iter().copied().max().unwrap_or(0)
        },
        atoms_shared: shared_seen.iter().sum(),
        evictions_contested: contested_seen,
        per_tenant: stats,
    }
}

/// The baseline path: no shared substrate, so every tenant replays solo on
/// its own system (its partition's size under `Partitioned`, the full —
/// idealized, duplicated — pool under `Shared`).
fn simulate_multi_independent(
    library: &SiLibrary,
    traces: &[Trace],
    config: &SimConfig,
    extra: &mut [&mut (dyn SimObserver + '_)],
) -> MultiRunStats {
    let k = traces.len();
    let containers = match config.tenants.policy {
        TenantPolicy::Shared => config.containers,
        TenantPolicy::Partitioned => partition_size(config.containers, k),
    };
    let solo = SimConfig {
        containers,
        tenants: TenancyConfig::default(),
        ..*config
    };
    let mut per_tenant = Vec::with_capacity(k);
    for (i, trace) in traces.iter().enumerate() {
        let stats = if extra.is_empty() {
            simulate_observed(library, trace, &solo, &mut [])
        } else {
            simulate_observed(library, trace, &solo, &mut [&mut *extra[i]])
        };
        per_tenant.push(stats);
    }
    MultiRunStats {
        aggregate_cycles: per_tenant.iter().map(|s| s.total_cycles).sum(),
        makespan_cycles: per_tenant.iter().map(|s| s.total_cycles).max().unwrap_or(0),
        atoms_shared: 0,
        evictions_contested: 0,
        per_tenant,
    }
}
