//! Custom execution backend: plug a third-party system into the replay
//! engine without touching `rispp-sim`.
//!
//! The engine only talks to the `ExecutionSystem` trait, so a comparator
//! the paper never measured — here an idealised quarter-latency ASIC with
//! per-SI warm-up — drops in next to RISPP, Molen and software-only, and
//! the same observers (`RunStats`, `TraceLogObserver`) work unchanged.
//!
//! Run with: `cargo run --release --example custom_backend`

use std::borrow::Cow;

use rispp::core::{BurstSegment, SchedulerKind};
use rispp::h264::{h264_si_library, EncoderConfig, EncoderWorkload};
use rispp::model::{SiId, SiLibrary};
use rispp::sim::{
    simulate, simulate_with, ExecutionSystem, Invocation, RunStats, SimConfig, SimObserver,
    TraceLogObserver, DEFAULT_BUCKET_CYCLES,
};

/// An idealised hard-wired accelerator: every SI runs at a quarter of its
/// software latency, but the first burst of each SI pays a one-off warm-up
/// execution at full software latency (pipeline fill, table priming).
/// Nothing here exists in `rispp-sim` — it is a user-defined comparator.
struct QuarterLatencyAsic<'a> {
    library: &'a SiLibrary,
    warmed: Vec<bool>,
    warmups: u64,
}

impl<'a> QuarterLatencyAsic<'a> {
    fn new(library: &'a SiLibrary) -> Self {
        QuarterLatencyAsic {
            library,
            warmed: vec![false; library.len()],
            warmups: 0,
        }
    }

    fn hardware_latency(&self, si: SiId) -> u32 {
        let software = self
            .library
            .si(si)
            .expect("si within library")
            .software_latency();
        (software / 4).max(1)
    }
}

impl ExecutionSystem for QuarterLatencyAsic<'_> {
    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed("ASIC/4")
    }

    fn enter_hot_spot(&mut self, _invocation: &Invocation, _now: u64) {}

    fn execute_burst_into(
        &mut self,
        si: SiId,
        count: u32,
        overhead: u32,
        start: u64,
        out: &mut Vec<BurstSegment>,
    ) {
        out.clear();
        let fast = self.hardware_latency(si);
        if self.warmed[si.index()] {
            out.push(BurstSegment::hardware(start, u64::from(count), fast, 0));
            return;
        }
        self.warmed[si.index()] = true;
        self.warmups += 1;
        let slow = self
            .library
            .si(si)
            .expect("si within library")
            .software_latency();
        out.push(BurstSegment::software(start, 1, slow));
        if count > 1 {
            let after_warmup = start + u64::from(slow) + u64::from(overhead);
            out.push(BurstSegment::hardware(
                after_warmup,
                u64::from(count - 1),
                fast,
                0,
            ));
        }
    }

    fn exit_hot_spot(&mut self, _now: u64) {}

    fn reconfiguration_stats(&self) -> (u64, u64) {
        // Report warm-ups through the engine's reconfiguration channel so
        // observers see them as LoadCompleted events.
        (self.warmups, 0)
    }
}

fn main() {
    let library = h264_si_library();
    let workload = EncoderWorkload::generate(&EncoderConfig::tiny(6));
    let trace = workload.trace();

    // Built-in comparators through the ordinary enum-configured path.
    let software = simulate(&library, trace, &SimConfig::software_only());
    let hef = simulate(&library, trace, &SimConfig::rispp(10, SchedulerKind::Hef));

    // The custom backend through `simulate_with`, with the stock RunStats
    // observer plus a JSONL event log attached.
    let mut asic = QuarterLatencyAsic::new(&library);
    let mut stats = RunStats::new(asic.label(), library.len(), DEFAULT_BUCKET_CYCLES, false);
    let mut log = TraceLogObserver::new();
    {
        let mut observers: [&mut dyn SimObserver; 2] = [&mut stats, &mut log];
        simulate_with(&mut asic, trace, &mut observers);
    }

    println!("system      total cycles   hw fraction   reconfigs/warm-ups");
    for s in [&software, &hef, &stats] {
        println!(
            "{:<10} {:>13} {:>12.1}% {:>20}",
            s.system,
            s.total_cycles,
            s.hardware_fraction() * 100.0,
            s.reconfigurations
        );
    }
    println!(
        "\nevent log: {} events; first lines of the JSONL export:",
        log.events().len()
    );
    for line in log.to_jsonl().lines().take(4) {
        println!("  {line}");
    }

    assert!(stats.total_cycles < software.total_cycles);
}
