//! Serve's plan-cache totals count the fabric-epoch bumps of the runs it
//! executes. A bump (quarantine or permanent tile failure) happens inside
//! one run's arbiter, so the shared cache never sees it; the server sums
//! each run's own count instead. A fault-injected job that quarantines a
//! container must report the same bumps through `plan_cache_totals` and
//! the metrics snapshot as a direct run of the same config.

use std::time::Duration;

use rispp_core::SchedulerKind;
use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_serve::{
    encode_trace, materialise_trace, JobSpec, JobStatus, Server, ServerConfig, SubmitResult,
};
use rispp_sim::{simulate_observed_planned, Burst, FaultConfig, Invocation, SimConfig, Trace};

fn library() -> SiLibrary {
    let universe =
        AtomUniverse::from_types([AtomTypeInfo::new("A1"), AtomTypeInfo::new("A2")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1, 0]), 100)
        .unwrap()
        .molecule(Molecule::from_counts([2, 1]), 30)
        .unwrap();
    b.special_instruction("Y", 800)
        .unwrap()
        .molecule(Molecule::from_counts([0, 1]), 90)
        .unwrap();
    b.build().unwrap()
}

fn trace() -> Trace {
    Trace::from_invocations(
        (0..40)
            .map(|_| Invocation {
                hot_spot: HotSpotId(0),
                prologue_cycles: 1_000,
                bursts: vec![
                    Burst {
                        si: SiId(0),
                        count: 500,
                        overhead: 20,
                    },
                    Burst {
                        si: SiId(1),
                        count: 200,
                        overhead: 20,
                    },
                ],
                hints: vec![(SiId(0), 500), (SiId(1), 200)],
            })
            .collect(),
    )
}

#[test]
fn fault_job_reports_the_epoch_bumps_of_a_direct_run() {
    let mut fault = FaultConfig::uniform(0.3);
    fault.max_retries = 1;
    let config = SimConfig::rispp(4, SchedulerKind::Hef).with_fault(fault);
    let payload = encode_trace(&trace());

    // The server replays the decoded payload; so does the direct run.
    let decoded = materialise_trace(&payload).unwrap();
    let (direct_stats, direct) =
        simulate_observed_planned(&library(), &decoded, &config, None, &mut []);
    assert!(
        direct.epoch_bumps > 0,
        "the config must quarantine or fail a container: {direct:?}"
    );

    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    assert_eq!(server.plan_cache_totals().epoch_bumps, 0);
    let ticket = match server.submit(JobSpec {
        id: "faulty".to_owned(),
        config,
        trace_payload: payload,
        deadline_ms: None,
        chaos_panics: 0,
    }) {
        SubmitResult::Enqueued(ticket) => ticket,
        SubmitResult::Refused(outcome) => panic!("refused: {:?}", outcome.status),
    };
    let outcome = ticket
        .outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("job outcome");
    assert_eq!(outcome.status, JobStatus::Completed);
    assert_eq!(outcome.stats.as_ref(), Some(&direct_stats));

    assert_eq!(server.plan_cache_totals().epoch_bumps, direct.epoch_bumps);
    let prometheus = server.metrics_snapshot().to_prometheus_text();
    let gauge = format!("rispp_serve_plan_cache_epoch_bumps {}\n", direct.epoch_bumps);
    assert!(prometheus.contains(&gauge), "{prometheus}");

    server.drain();
    server.await_drained();
}
