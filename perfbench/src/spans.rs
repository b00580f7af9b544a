//! In-memory span tree of one traced iteration and its self-time audit.
//!
//! Spans are recorded by the benchmark around the calls it makes into each
//! layer. A span's self time is its duration minus the durations of its
//! direct children. Work that ran on other threads (sweep workers) is added
//! as *attributed* children whose durations are wall shares computed by the
//! caller; the audit fails when the children of a span claim more time than
//! the span lasted. Time charged to [`Layer::Bench`] — the root's own self
//! time and any attributed idle share — is the part of the iteration that
//! no layer covers.

use std::time::Instant;

use rispp_telemetry::TraceBuilder;

/// The workspace layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// No layer: benchmark glue between layer calls and idle workers.
    Bench,
    /// `rispp-h264`: workload generation.
    H264,
    /// `rispp-core`: planning.
    Core,
    /// `rispp-sim`: replay engine and sweep fan-out.
    Sim,
    /// `rispp-telemetry` and the observers: export.
    Telemetry,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::H264,
        Layer::Core,
        Layer::Sim,
        Layer::Telemetry,
    ];
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `h264.encode_frame`.
    pub name: &'static str,
    /// Layer the span's self time is charged to.
    pub layer: Layer,
    /// Enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tree's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A tree of spans recorded on one thread.
#[derive(Debug)]
pub struct SpanTree {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanTree {
    fn default() -> Self {
        SpanTree::new()
    }
}

impl SpanTree {
    /// An empty tree whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanTree {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span. Returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let dur = self.now_ns().saturating_sub(self.spans[id].start_ns);
        self.spans[id].dur_ns = dur;
        dur
    }

    /// Adds a child of the innermost open span whose duration `dur_ns` was
    /// measured elsewhere (another thread's work, as a wall share).
    pub fn attribute(&mut self, name: &'static str, layer: Layer, dur_ns: u64) {
        let parent = self.open.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            dur_ns,
        });
    }

    /// The spans as a Chrome trace-event document (loadable in Perfetto),
    /// one track, microsecond timestamps.
    #[must_use]
    pub fn to_trace_json(&self, title: &str) -> String {
        let mut trace = TraceBuilder::new();
        trace.process_name(1, title);
        for s in &self.spans {
            trace.complete(1, 1, s.name, s.start_ns / 1_000, s.dur_ns / 1_000);
        }
        trace.finish()
    }

    /// Writes [`SpanTree::to_trace_json`] next to the build output
    /// (`$CARGO_TARGET_DIR`, else `perfbench/target`) as
    /// `perfbench-spans-<workload>.json`. A failed write is reported on
    /// stderr and otherwise ignored: the spans are a by-product of the run.
    pub fn write(&self, workload: &str) {
        let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
            || std::path::PathBuf::from("perfbench/target"),
            std::path::PathBuf::from,
        );
        let path = dir.join(format!("perfbench-spans-{workload}.json"));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, self.to_trace_json(&format!("perfbench {workload}")))
        });
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    /// Self time of every span: its duration minus its direct children's.
    /// Negative when children claim more time than their parent had.
    #[must_use]
    pub fn self_ns(&self) -> Vec<i128> {
        let mut out: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= i128::from(s.dur_ns);
            }
        }
        out
    }

    fn in_subtree(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Self time per layer over the subtree of `root`, in
    /// [`Layer::ALL`] order. The root's own self time is charged to its
    /// layer (normally [`Layer::Bench`]: unattributed time).
    ///
    /// # Errors
    ///
    /// Fails the audit when a span's children claim more time than it
    /// lasted — for a sweep, when the attributed worker time exceeds the
    /// workers times the sweep's wall time.
    pub fn layer_self_ns(&self, root: usize) -> Result<[u64; 5], String> {
        let selfs = self.self_ns();
        let mut layers = [0i128; 5];
        for (i, s) in self.spans.iter().enumerate() {
            if !self.in_subtree(i, root) {
                continue;
            }
            if selfs[i] < 0 {
                return Err(format!(
                    "span `{}` has {} ns of children beyond its own duration",
                    s.name, -selfs[i]
                ));
            }
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("known layer");
            layers[slot] += selfs[i];
        }
        Ok(layers.map(|ns| u64::try_from(ns).expect("non-negative by the check above")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(
        tree: &mut SpanTree,
        name: &'static str,
        layer: Layer,
        parent: Option<usize>,
        dur: u64,
    ) -> usize {
        tree.spans.push(Span {
            name,
            layer,
            parent,
            start_ns: 0,
            dur_ns: dur,
        });
        tree.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = SpanTree::new();
        let root = push(&mut t, "iteration", Layer::Bench, None, 100);
        let gen = push(&mut t, "gen", Layer::H264, Some(root), 60);
        push(&mut t, "frame", Layer::H264, Some(gen), 25);
        push(&mut t, "frame", Layer::H264, Some(gen), 30);
        let sweep = push(&mut t, "sweep", Layer::Sim, Some(root), 30);
        push(&mut t, "plan", Layer::Core, Some(sweep), 12);
        assert_eq!(t.self_ns(), vec![10, 5, 25, 30, 18, 12]);
        let layers = t.layer_self_ns(root).unwrap();
        // Bench 10, H264 5+25+30, Core 12, Sim 18, Telemetry 0.
        assert_eq!(layers, [10, 60, 12, 18, 0]);
        assert_eq!(layers.iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_beyond_the_parent_fail_the_audit() {
        let mut t = SpanTree::new();
        let root = push(&mut t, "iteration", Layer::Bench, None, 10);
        push(&mut t, "sweep", Layer::Sim, Some(root), 11);
        assert!(t.layer_self_ns(root).is_err());
    }

    #[test]
    fn worker_shares_beyond_the_sweep_wall_fail_the_audit() {
        // Two workers over a 100 ns sweep: shares of 60 + 30 + 10 fit,
        // 60 + 30 + 11 claim more worker time than two threads had.
        for (idle, fits) in [(10, true), (11, false)] {
            let mut t = SpanTree::new();
            let root = push(&mut t, "iteration", Layer::Bench, None, 120);
            let sweep = push(&mut t, "sim.sweep", Layer::Sim, Some(root), 100);
            push(&mut t, "sim.replay", Layer::Sim, Some(sweep), 60);
            push(&mut t, "core.plan", Layer::Core, Some(sweep), 30);
            push(&mut t, "sweep.tail_idle", Layer::Bench, Some(sweep), idle);
            let layers = t.layer_self_ns(root);
            assert_eq!(layers.is_ok(), fits);
            if fits {
                // Bench: 20 ns of root glue plus the 10 ns idle share.
                assert_eq!(layers.unwrap(), [30, 0, 30, 60, 0]);
            }
        }
    }

    #[test]
    fn subtree_excludes_other_roots() {
        let mut t = SpanTree::new();
        let a = push(&mut t, "a", Layer::Bench, None, 10);
        push(&mut t, "x", Layer::Core, Some(a), 4);
        let b = push(&mut t, "b", Layer::Bench, None, 50);
        push(&mut t, "y", Layer::Sim, Some(b), 20);
        assert_eq!(t.layer_self_ns(a).unwrap(), [6, 0, 4, 0, 0]);
        assert_eq!(t.layer_self_ns(b).unwrap(), [30, 0, 0, 20, 0]);
    }

    #[test]
    fn trace_json_lists_every_span() {
        let mut t = SpanTree::new();
        let root = push(&mut t, "iteration", Layer::Bench, None, 5_000);
        push(&mut t, "sweep", Layer::Sim, Some(root), 2_000);
        let json = t.to_trace_json("perfbench test");
        assert!(rispp_telemetry::JsonValue::parse(&json).is_ok(), "{json}");
        assert!(json.contains(r#""name":"sweep""#), "{json}");
        assert!(json.contains(r#""dur":2"#), "{json}");
    }

    #[test]
    fn recorded_spans_nest_and_sum() {
        let mut t = SpanTree::new();
        let root = t.begin("iteration", Layer::Bench);
        let work = t.begin("work", Layer::H264);
        std::hint::black_box((0..1000u64).sum::<u64>());
        let work_ns = t.end(work);
        t.attribute("remote", Layer::Core, 0);
        let root_ns = t.end(root);
        let layers = t.layer_self_ns(root).unwrap();
        assert_eq!(layers.iter().sum::<u64>(), root_ns);
        assert_eq!(layers[1], work_ns);
    }
}
