//! The `serve_mixed` workload: an in-process `rispp-serve` server behind a
//! loopback TCP listener, driven by a seeded open-loop Poisson generator.
//!
//! Every latency is taken on the client from the job's *due* time, so a
//! stall that delays later sends is charged to those jobs too. The
//! generator's own lateness is reported separately.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rispp_core::SchedulerKind;
use rispp_h264::{EncoderWorkload, SiKind};
use rispp_model::SiLibrary;
use rispp_monitor::HotSpotId;
use rispp_serve::{
    encode_stats, encode_submit, encode_trace, handle_connection, parse_request, JobSpec,
    JobStatus, Request, Server, ServerConfig, SubmitResult,
};
use rispp_sim::{simulate_observed_planned, Burst, FaultConfig, Invocation, SimConfig, Trace};

use crate::check::{check_quick_pin, cif_config, trace_digest};
use crate::spec::Spec;
use crate::stats::{median, tail};
use crate::Rng;

/// Longest a phase may run past its last due time before the run fails.
const PHASE_GRACE: Duration = Duration::from_secs(30);

/// A server plus the accept loop that hands each connection to
/// `handle_connection`.
pub struct Harness {
    /// The in-process server.
    pub server: Server,
    /// Loopback address of the listener.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

fn accept_loop(server: &Server, listener: &TcpListener, stop: &AtomicBool) {
    let trigger = Arc::new(AtomicBool::new(false));
    let mut handlers = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = server.clone();
                let trigger = Arc::clone(&trigger);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(&server, stream, &trigger);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

impl Harness {
    /// Starts a server with the spec's worker count and caches, and a
    /// loopback listener.
    ///
    /// # Errors
    ///
    /// Reports listener failures.
    pub fn start(spec: &Spec, library: SiLibrary) -> Result<Harness, String> {
        let server = Server::start(
            library,
            ServerConfig {
                workers: spec.serve_workers,
                queue_capacity: spec.serve.queue_capacity,
                trace_cache_capacity: spec.serve.trace_cache_capacity,
                ..ServerConfig::default()
            },
        );
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let server = server.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&server, &listener, &stop))
        };
        Ok(Harness {
            server,
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Materialises every built-in trace into the server's warm cache.
    ///
    /// # Errors
    ///
    /// Fails when a warm-up job does not complete.
    pub fn warm(&self, builtin_frames: &[u32]) -> Result<(), String> {
        for &frames in builtin_frames {
            let spec = JobSpec {
                id: format!("warm-{frames}"),
                config: SimConfig::rispp(15, SchedulerKind::Hef),
                trace_payload: format!("fig7:{frames}"),
                deadline_ms: None,
                chaos_panics: 0,
            };
            match self.server.submit(spec) {
                SubmitResult::Enqueued(ticket) => {
                    let outcome = ticket.outcome.recv().map_err(|e| format!("warm-up: {e}"))?;
                    if outcome.status != JobStatus::Completed {
                        return Err(format!("warm-up job ended {}", outcome.status.name()));
                    }
                }
                SubmitResult::Refused(outcome) => {
                    return Err(format!("warm-up job refused: {}", outcome.status.name()));
                }
            }
        }
        Ok(())
    }
}

impl Drop for Harness {
    /// Drains the server and joins the pool, the accept loop and every
    /// connection handler. Clients must have closed their connections.
    fn drop(&mut self) {
        self.server.drain();
        self.server.await_drained();
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// What a job's trace is, for verification on the client.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A built-in `fig7:F` trace.
    Builtin(u32),
    /// An inline trace.
    Inline(Trace),
}

/// One generated job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The NDJSON submit line, newline included. Emptied once the job's
    /// phase has run, unless the line is needed again.
    pub line: String,
    /// The job id.
    pub id: String,
    /// For jobs whose completion is compared against a direct simulation:
    /// the configuration as the server decodes it from the wire, and the
    /// trace.
    pub verify: Option<(SimConfig, Payload)>,
}

/// Decodes a submit line the way the server does.
fn decode(line: &str) -> JobSpec {
    match parse_request(line) {
        Ok(Request::Submit(spec)) => *spec,
        other => panic!("generated submit line does not parse as a submit: {other:?}"),
    }
}

/// One open-loop phase: jobs with due offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered rate in jobs per second.
    pub rate: f64,
    /// Due offsets in nanoseconds, ascending.
    pub due_ns: Vec<u64>,
    /// The jobs, one per due offset.
    pub jobs: Vec<Job>,
}

impl Phase {
    /// Frees the submit lines once the phase has run over TCP.
    pub fn drop_lines(&mut self) {
        for job in &mut self.jobs {
            job.line = String::new();
        }
    }
}

fn inline_trace(rng: &mut Rng, invocations: usize, bursts: usize) -> Trace {
    const SETS: [&[SiKind]; 3] = [
        &[SiKind::Sad, SiKind::Satd],
        &[
            SiKind::Dct,
            SiKind::Ht2x2,
            SiKind::Ht4x4,
            SiKind::Mc,
            SiKind::IPredHdc,
            SiKind::IPredVdc,
        ],
        &[SiKind::LfBs4],
    ];
    const PROLOGUE: [u64; 3] = [40_000, 90_000, 25_000];
    let mut out = Vec::with_capacity(invocations);
    for i in 0..invocations {
        let hs = i % 3;
        let set = SETS[hs];
        let mut totals = vec![0u64; set.len()];
        let bursts: Vec<Burst> = (0..bursts)
            .map(|_| {
                let k = rng.below(set.len() as u64) as usize;
                let count = 1 + rng.below(64) as u32;
                totals[k] += u64::from(count);
                Burst {
                    si: set[k].id(),
                    count,
                    overhead: 10,
                }
            })
            .collect();
        let hints = set
            .iter()
            .zip(&totals)
            .filter(|&(_, &n)| n > 0)
            .map(|(kind, &n)| (kind.id(), n))
            .collect();
        out.push(Invocation {
            hot_spot: HotSpotId(hs as u16),
            prologue_cycles: PROLOGUE[hs],
            bursts,
            hints,
        });
    }
    Trace::from_invocations(out)
}

fn random_config(rng: &mut Rng, rispp_only: bool) -> SimConfig {
    let ac = 5 + rng.below(20) as u16;
    let choices = if rispp_only { 4 } else { 5 };
    match rng.below(choices) as usize {
        4 => SimConfig::molen(ac),
        k => SimConfig::rispp(ac, SchedulerKind::ALL[k]),
    }
}

fn make_job(spec: &Spec, rng: &mut Rng, index: usize) -> Job {
    let s = &spec.serve;
    let r = rng.unit();
    let (config, trace_payload, payload) = if r < s.mix_inline {
        let trace = inline_trace(rng, s.inline_invocations, s.inline_bursts);
        (
            random_config(rng, false),
            encode_trace(&trace),
            Payload::Inline(trace),
        )
    } else if r < s.mix_inline + s.mix_fault {
        let frames = s.builtin_frames[0];
        let fault = FaultConfig {
            rate_ppm: s.fault_rate_ppm,
            seed: rng.next_u64(),
            max_retries: FaultConfig::uniform(0.0).max_retries,
        };
        let config = random_config(rng, true).with_fault(fault);
        (config, format!("fig7:{frames}"), Payload::Builtin(frames))
    } else {
        let frames = s.builtin_frames[rng.below(s.builtin_frames.len() as u64) as usize];
        (
            random_config(rng, false),
            format!("fig7:{frames}"),
            Payload::Builtin(frames),
        )
    };
    let spec_in = JobSpec {
        id: format!("j{index}"),
        config,
        trace_payload,
        deadline_ms: None,
        chaos_panics: 0,
    };
    let mut line = encode_submit(&spec_in);
    let verify = (rng.below(s.verify_every as u64) == 0).then(|| (decode(&line).config, payload));
    line.push('\n');
    Job {
        line,
        id: spec_in.id,
        verify,
    }
}

/// Generates a phase of Poisson arrivals at `rate` over `seconds`.
pub fn make_phase(
    spec: &Spec,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    next_index: &mut usize,
) -> Phase {
    let mut due_ns = Vec::new();
    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            break;
        }
        due_ns.push((t * 1e9) as u64);
        jobs.push(make_job(spec, rng, *next_index));
        *next_index += 1;
    }
    Phase { rate, due_ns, jobs }
}

/// A client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Reports socket failures.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { reader, writer })
    }
}

/// Client-side record of one job of a phase.
#[derive(Debug, Clone, Default)]
pub struct Got {
    /// Index of the job within its phase.
    pub job: usize,
    /// Send time minus due time, in nanoseconds.
    pub late_ns: u64,
    /// Response time minus due time, in nanoseconds.
    pub latency_ns: u64,
    /// Whether the job completed.
    pub ok: bool,
    /// Simulated cycles reported by the response.
    pub cycles: u64,
    /// The response line, kept for jobs marked for verification.
    pub response: Option<String>,
}

/// Result of one phase over TCP.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Per-job records, in job order.
    pub got: Vec<Got>,
    /// Whether some connection's backlog kept growing.
    pub growing: bool,
    /// From phase start to the last response, in nanoseconds.
    pub wall_ns: u64,
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `(time ns, outstanding jobs)` samples a connection takes at each send.
type Backlog = Vec<(u64, usize)>;

fn run_conn(
    conn: &mut Conn,
    start: Instant,
    phase: &Phase,
    mine: &[usize],
) -> Result<(Vec<Got>, Backlog), String> {
    let elapsed = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let n = mine.len();
    let last_due = mine.last().map_or(0, |&i| phase.due_ns[i]);
    let give_up = last_due + u64::try_from(PHASE_GRACE.as_nanos()).unwrap_or(u64::MAX);
    let mut got: Vec<Got> = mine
        .iter()
        .map(|&job| Got {
            job,
            ..Got::default()
        })
        .collect();
    let mut backlog = Vec::with_capacity(n);
    let (mut sent, mut received) = (0, 0);
    let mut line = String::new();
    while received < n {
        if elapsed() > give_up {
            return Err(format!(
                "{} of {n} responses missing {}s after the last due time",
                n - received,
                PHASE_GRACE.as_secs()
            ));
        }
        while sent < n && phase.due_ns[mine[sent]] <= elapsed() {
            let at = elapsed();
            conn.writer
                .write_all(phase.jobs[mine[sent]].line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            got[sent].late_ns = at.saturating_sub(phase.due_ns[mine[sent]]);
            sent += 1;
            backlog.push((at, sent - received));
        }
        let wait_ns = if sent < n {
            phase.due_ns[mine[sent]].saturating_sub(elapsed())
        } else {
            100_000_000
        };
        if wait_ns == 0 {
            continue;
        }
        if received == sent {
            std::thread::sleep(Duration::from_nanos(wait_ns));
            continue;
        }
        conn.writer
            .set_read_timeout(Some(Duration::from_nanos(wait_ns.max(20_000))))
            .map_err(|e| format!("read timeout: {e}"))?;
        match conn.reader.read_line(&mut line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {
                let at = elapsed();
                let g = &mut got[received];
                let job = &phase.jobs[g.job];
                g.latency_ns = at.saturating_sub(phase.due_ns[g.job]);
                g.ok = line.starts_with(&format!(r#"{{"ok":true,"id":"{}","#, job.id));
                g.cycles = field_u64(&line, r#""total_cycles":"#).unwrap_or(0);
                if job.verify.is_some() {
                    g.response = Some(line.trim_end().to_owned());
                }
                line.clear();
                received += 1;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok((got, backlog))
}

/// One stderr line describing a finished phase.
fn log_phase(name: &str, phase: &Phase, result: &PhaseResult, limit_ms: f64) {
    let lat = result.latencies_ms();
    let t = tail(&lat);
    eprintln!(
        "serve_mixed: {name} {:.0} jobs/s: {} jobs in {:.3} s, {:.0} Mcycles/s, p50 {:.3} ms, p{:.1} {:.3} ms, {} failed, backlog {}, {}",
        phase.rate,
        phase.jobs.len(),
        result.wall_ns as f64 / 1e9,
        result.sim_mcycles_per_s(),
        median(&lat),
        t.map_or(0.0, |t| t.percentile),
        t.map_or(0.0, |t| t.value),
        result.failed(),
        if result.growing { "growing" } else { "steady" },
        if result.meets(limit_ms) { "meets the limit" } else { "misses the limit" },
    );
}

/// Runs `phase` open-loop over `conns`, jobs dealt round-robin, one
/// thread per connection.
///
/// # Errors
///
/// Fails on socket errors or when responses stop arriving.
pub fn run_phase(conns: &mut [Conn], phase: &Phase) -> Result<PhaseResult, String> {
    let k = conns.len();
    let assignments: Vec<Vec<usize>> = (0..k)
        .map(|c| (c..phase.jobs.len()).step_by(k).collect())
        .collect();
    let start = Instant::now();
    let outs: Vec<Result<_, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&assignments)
            .map(|(conn, mine)| s.spawn(move || run_conn(conn, start, phase, mine)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut got = Vec::with_capacity(phase.jobs.len());
    let mut backlog = Vec::new();
    for out in outs {
        let (g, b) = out?;
        got.extend(g);
        backlog.push(b);
    }
    got.sort_by_key(|g| g.job);
    let growing = backlog
        .iter()
        .any(|b| backlog_grows(b, phase.due_ns.last().copied().unwrap_or(0)));
    Ok(PhaseResult {
        got,
        growing,
        wall_ns,
    })
}

/// Whether a connection's outstanding-job count kept growing: its mean
/// over the last third of the phase is more than twice (plus two jobs)
/// its mean over the first third.
#[must_use]
pub fn backlog_grows(samples: &[(u64, usize)], span_ns: u64) -> bool {
    let third = span_ns / 3;
    let mean = |lo: u64, hi: u64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, n)| n as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let first = mean(0, third);
    let last = mean(span_ns - third, u64::MAX);
    last > 2.0 * first + 2.0
}

impl PhaseResult {
    /// Latencies in milliseconds; a job that did not complete counts as
    /// missing the limit, with the phase's whole duration.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.got
            .iter()
            .map(|g| {
                if g.ok {
                    g.latency_ns as f64 / 1e6
                } else {
                    self.wall_ns as f64 / 1e6
                }
            })
            .collect()
    }

    /// Jobs that did not complete.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.got.iter().filter(|g| !g.ok).count() as u64
    }

    /// Whether the phase meets the latency limit without a growing queue
    /// and without failures.
    #[must_use]
    pub fn meets(&self, limit_ms: f64) -> bool {
        let within = tail(&self.latencies_ms()).is_some_and(|t| t.value <= limit_ms);
        within && !self.growing && self.failed() == 0
    }

    /// Simulated Mcycles completed per host second of the phase.
    #[must_use]
    pub fn sim_mcycles_per_s(&self) -> f64 {
        let cycles: u64 = self.got.iter().map(|g| g.cycles).sum();
        cycles as f64 / 1e6 / (self.wall_ns as f64 / 1e9)
    }
}

/// In-process submission of a phase through `Server::submit`.
#[derive(Debug, Default)]
pub struct InProc {
    /// Due time to outcome, in milliseconds.
    pub turnaround_ms: Vec<f64>,
    /// Duration of each `submit` call, in microseconds (traced only).
    pub admit_us: Vec<f64>,
    /// Largest sampled queue depth (traced only).
    pub depth_max: usize,
    /// Jobs refused at admission.
    pub refused: u64,
    /// Jobs that ended in a timeout.
    pub timeouts: u64,
    /// Jobs that did not complete.
    pub failed: u64,
}

/// Submits `phase` open-loop to `server` in-process, collecting outcomes on
/// one thread. `traced` times each `submit` and samples the queue depth.
///
/// # Errors
///
/// Fails when an outcome channel closes without an outcome.
pub fn run_inproc(server: &Server, phase: &Phase, traced: bool) -> Result<InProc, String> {
    let (tx, rx) = mpsc::channel::<(Instant, Option<rispp_serve::JobTicket>)>();
    let mut out = InProc::default();
    let specs: Vec<JobSpec> = phase.jobs.iter().map(|j| decode(&j.line)).collect();
    let start = Instant::now();
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut results = Vec::new();
            for (due, ticket) in rx {
                let Some(ticket) = ticket else {
                    results.push(None);
                    continue;
                };
                let outcome = ticket.outcome.recv().map_err(|e| format!("outcome: {e}"))?;
                results.push(Some((due.elapsed().as_secs_f64() * 1e3, outcome.status)));
            }
            Ok::<_, String>(results)
        });
        for (i, spec) in specs.into_iter().enumerate() {
            let due = start + Duration::from_nanos(phase.due_ns[i]);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            let submitted = server.submit(spec);
            let admit = t.elapsed();
            if traced {
                out.admit_us.push(admit.as_secs_f64() * 1e6);
                out.depth_max = out.depth_max.max(server.queue_depth());
            }
            let ticket = match submitted {
                SubmitResult::Enqueued(ticket) => Some(ticket),
                SubmitResult::Refused(_) => None,
            };
            if tx.send((due, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("outcome collector panicked")
    })?;
    for result in collected {
        match result {
            None => {
                out.refused += 1;
                out.failed += 1;
            }
            Some((ms, status)) => {
                if status == JobStatus::Timeout {
                    out.timeouts += 1;
                }
                if status == JobStatus::Completed {
                    out.turnaround_ms.push(ms);
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    Ok(out)
}

/// What [`verify`] checked.
#[derive(Debug, Default)]
pub struct Verified {
    /// Responses compared.
    pub responses: usize,
    /// The built-in traces, generated on the client, with their frames.
    pub builtin: Vec<(u32, Trace)>,
    /// Plan-cache epoch bumps of the direct re-runs (the server's lifetime
    /// plan-cache totals do not count bumps).
    pub epoch_bumps: u64,
}

/// Compares every kept response with a direct simulation of the same job,
/// and each built-in trace the client generated for it with its pin.
///
/// # Errors
///
/// Names the first job whose response differs, or the built-in trace whose
/// digest differs from the pin.
pub fn verify(
    spec: &Spec,
    library: &SiLibrary,
    checked: &[(&Phase, &PhaseResult)],
) -> Result<Verified, String> {
    let seed = rispp_h264::EncoderConfig::paper_cif().seed;
    let mut builtin: Vec<(u32, Trace)> = Vec::new();
    let mut out = Verified::default();
    for (phase, result) in checked {
        for g in &result.got {
            let Some(response) = &g.response else {
                continue;
            };
            let job = &phase.jobs[g.job];
            let (config, payload) = job
                .verify
                .as_ref()
                .expect("responses are kept for verified jobs");
            let trace = match payload {
                Payload::Inline(trace) => trace,
                Payload::Builtin(frames) => {
                    if !builtin.iter().any(|(f, _)| f == frames) {
                        let w = EncoderWorkload::generate(&cif_config(*frames, seed));
                        builtin.push((*frames, w.trace().clone()));
                    }
                    &builtin
                        .iter()
                        .find(|(f, _)| f == frames)
                        .expect("inserted above")
                        .1
                }
            };
            let (stats, plan) = simulate_observed_planned(library, trace, config, None, &mut []);
            out.epoch_bumps += plan.epoch_bumps;
            let expected = format!(r#","stats":{}}}"#, encode_stats(&stats));
            if !response.ends_with(&expected) {
                return Err(format!(
                    "serve job {} differs from a direct simulation of the same job",
                    job.id
                ));
            }
            out.responses += 1;
        }
    }
    if seed == spec.default_seed {
        for (frames, trace) in &builtin {
            if let Some(pin) = spec.pin(*frames) {
                let digest = trace_digest(trace);
                if digest != pin.trace_fnv {
                    return Err(format!(
                        "built-in fig7:{frames} trace digest {digest:016x} != pinned {:016x}",
                        pin.trace_fnv
                    ));
                }
            }
        }
    }
    out.builtin = builtin;
    Ok(out)
}

/// Salt mixed into the run seed for the serve job mix, so it draws a
/// stream independent of the encoder's.
const MIX_SALT: u64 = 0x5e7e_d0b5;

/// `serve_mixed`: lo and hi phases, the rate ladder and saturating batches
/// over TCP; in a traced run also the lo and hi schedules submitted
/// in-process.
///
/// # Errors
///
/// Fails on a verification mismatch or when the harness breaks.
pub fn serve_mixed(ctx: &crate::Ctx<'_>, report: &mut crate::report::Report) -> Result<(), String> {
    let spec = ctx.spec;
    let s = &spec.serve;
    let mut rng = Rng::new(ctx.seed ^ MIX_SALT);
    let mut index = 0;
    // A traced run gives the TCP phases half the time; the in-process
    // schedules replay the lo and hi phases in the other half.
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let rung_s = seconds * s.share_ladder / s.ladder_jobs_s.len() as f64;
    let batch_s = s.saturation_jobs as f64 / s.saturation_jobs_s;
    let fewest = s.saturation_warmup_batches + s.saturation_batches.max(1);

    // Each set-up starts a server, warms its built-in traces and ends with
    // the default-seed pin check; the last server is kept, and each earlier
    // one shut down when the next replaces it.
    let repeats = if ctx.trace { 1 } else { s.setup_repeats };
    let (harness, setup_s) = crate::pipeline::timed_setup(repeats, || {
        let h = Harness::start(spec, rispp_h264::h264_si_library())?;
        h.warm(s.builtin_frames)?;
        check_quick_pin(spec, &rispp_h264::h264_si_library(), spec.sweep_threads)?;
        Ok(h)
    })?;
    let server = harness.server.clone();
    let (cache_hits0, cache_misses0) = server.cache_stats();
    let plans0 = server.plan_cache_totals();

    let measured = (|| {
        let mut conns = (0..spec.connections)
            .map(|_| Conn::open(harness.addr))
            .collect::<Result<Vec<_>, _>>()?;
        // Every phase is generated just before it runs. Its submit lines
        // are dropped after it, so the client's own inputs stay small next
        // to the server's memory; a traced run keeps the lo and hi lines to
        // replay them in-process.
        let mut run = |name: &str, rate: f64, phase_s: f64, keep: bool| {
            let mut phase = make_phase(spec, &mut rng, rate, phase_s, &mut index);
            let result = run_phase(&mut conns, &phase)?;
            log_phase(name, &phase, &result, s.latency_limit_ms);
            if !keep {
                phase.drop_lines();
            }
            Ok::<_, String>((phase, result))
        };
        // Warm-up batches fill the server's caches first. The measured
        // batches then follow each phase, and the rest fill the run's
        // remaining time, so they sample the host across the whole run
        // rather than one stretch.
        let start = Instant::now();
        let mut saturated = Vec::new();
        let batch = |saturated: &mut Vec<_>, run: &mut dyn FnMut(&str, f64, f64, bool) -> _| {
            saturated.push(run("saturation", s.saturation_jobs_s, batch_s, false)?);
            Ok::<_, String>(())
        };
        for _ in 0..s.saturation_warmup_batches {
            batch(&mut saturated, &mut run)?;
        }
        let (lo, lo_result) = run("lo", s.lo_jobs_s, seconds * s.share_lo, ctx.trace)?;
        batch(&mut saturated, &mut run)?;
        let (hi, hi_result) = run("hi", s.hi_jobs_s, seconds * s.share_hi, ctx.trace)?;
        batch(&mut saturated, &mut run)?;
        let mut rungs = Vec::new();
        for &rate in s.ladder_jobs_s {
            let (phase, result) = run("ladder", rate, rung_s, false)?;
            let meets = result.meets(s.latency_limit_ms);
            rungs.push((phase, result));
            batch(&mut saturated, &mut run)?;
            if !meets {
                break;
            }
        }
        while saturated.len() < fewest || start.elapsed().as_secs_f64() < seconds {
            batch(&mut saturated, &mut run)?;
        }
        drop(conns);
        let inproc = if ctx.trace {
            let plain = run_inproc(&server, &lo, false)?;
            let traced_lo = run_inproc(&server, &lo, true)?;
            let traced_hi = run_inproc(&server, &hi, true)?;
            Some((plain, traced_lo, traced_hi))
        } else {
            None
        };
        Ok::<_, String>((lo, lo_result, hi, hi_result, rungs, saturated, inproc))
    })();
    let (cache_hits1, cache_misses1) = server.cache_stats();
    let plans1 = server.plan_cache_totals();
    drop(harness);
    let (lo, lo_result, hi, hi_result, rungs, saturated, inproc) = measured?;

    let mut checked: Vec<(&Phase, &PhaseResult)> = vec![(&lo, &lo_result), (&hi, &hi_result)];
    checked.extend(rungs.iter().map(|(p, r)| (p, r)));
    checked.extend(saturated.iter().map(|(p, r)| (p, r)));
    let library = rispp_h264::h264_si_library();
    let verified = verify(spec, &library, &checked)?;
    eprintln!(
        "serve_mixed: {} sampled completions match direct simulation",
        verified.responses
    );

    let tcp_jobs: usize = checked.iter().map(|(p, _)| p.jobs.len()).sum();
    let tcp_failed: u64 = checked.iter().map(|(_, r)| r.failed()).sum();
    report.attempted = tcp_jobs as u64;
    report.failed = tcp_failed;

    let passing = rungs
        .iter()
        .rev()
        .find(|(_, r)| r.meets(s.latency_limit_ms));
    let lo_ms = lo_result.latencies_ms();
    // Warm-up batches fill the plan and trace caches; only the batches
    // after them measure the saturated server.
    let per_batch = |f: &dyn Fn(&PhaseResult) -> f64| {
        let measured = &saturated[s.saturation_warmup_batches..];
        measured.iter().map(|(_, r)| f(r)).collect::<Vec<_>>()
    };
    if let Some((plain, traced_lo, traced_hi)) = inproc {
        report.attempted += (2 * lo.jobs.len() + hi.jobs.len()) as u64;
        report.failed += plain.failed + traced_lo.failed + traced_hi.failed;
        let lo_tail = tail(&lo_ms).ok_or("too few lo-rate samples for a tail")?;
        let hi_ms = hi_result.latencies_ms();
        let hi_tail = tail(&hi_ms).ok_or("too few hi-rate samples for a tail")?;
        report.set("serve.lo.p50_ms", median(&lo_ms));
        report.set("serve.lo.p99_ms", lo_tail.value);
        report.set("serve.lo.samples", lo_tail.samples as f64);
        report.set("serve.hi.p50_ms", median(&hi_ms));
        report.set("serve.hi.p99_ms", hi_tail.value);
        report.set("serve.hi.samples", hi_tail.samples as f64);
        report.set(
            "serve.max_rate_jobs_s",
            passing.map_or(0.0, |(p, _)| p.rate),
        );
        report.set(
            "serve.saturated_jobs_s",
            median(&per_batch(&|r| {
                r.got.len() as f64 / (r.wall_ns as f64 / 1e9)
            })),
        );
        let late: Vec<f64> = checked
            .iter()
            .flat_map(|(_, r)| r.got.iter().map(|g| g.late_ns as f64 / 1e6))
            .collect();
        report.set("loadgen.late_p99_ms", tail(&late).map_or(0.0, |t| t.value));

        let mut turnaround = traced_lo.turnaround_ms.clone();
        turnaround.extend(&traced_hi.turnaround_ms);
        let mut admit = traced_lo.admit_us.clone();
        admit.extend(&traced_hi.admit_us);
        report.set("serve.admit_us", median(&admit));
        report.set("serve.turnaround_ms", median(&turnaround));
        report.set(
            "serve.turnaround_p99_ms",
            tail(&turnaround)
                .ok_or("too few in-process samples for a tail")?
                .value,
        );
        let hits = cache_hits1 - cache_hits0;
        let lookups = hits + cache_misses1 - cache_misses0;
        report.set(
            "serve.trace_cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        report.set(
            "serve.queue_depth_max",
            traced_lo.depth_max.max(traced_hi.depth_max) as f64,
        );
        report.set(
            "serve.refused",
            (traced_lo.refused + traced_hi.refused) as f64,
        );
        report.set(
            "serve.timeouts",
            (traced_lo.timeouts + traced_hi.timeouts) as f64,
        );
        report.set(
            "serve.net.overhead_us",
            (median(&lo_ms) - median(&plain.turnaround_ms)) * 1e3,
        );
        report.set(
            "bench.trace_overhead_ratio",
            median(&traced_lo.turnaround_ms) / median(&plain.turnaround_ms),
        );
        let hits = plans1.hits - plans0.hits;
        let misses = plans1.misses - plans0.misses;
        report.set("core.plan_cache_hits", hits as f64);
        report.set("core.plan_cache_misses", misses as f64);
        report.set(
            "core.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set("core.plan_cache_epoch_bumps", verified.epoch_bumps as f64);
        report.set(
            "h264.si_executions",
            verified
                .builtin
                .iter()
                .map(|(_, t)| t.total_si_executions())
                .sum::<u64>() as f64,
        );
        report.set(
            "h264.bursts",
            verified
                .builtin
                .iter()
                .map(|(_, t)| crate::check::burst_count(t))
                .sum::<u64>() as f64,
        );
    } else {
        // The time metrics are the median over the measured batches. Each
        // batch is a fresh draw from the mix and lasts well under a second,
        // so unlike a replay iteration the fastest one is an outlier, not a
        // reading of the code's speed.
        report.set("setup_s", setup_s);
        report.set(
            "wall_s",
            median(&per_batch(&|r| r.wall_ns as f64 / 1e9 / r.got.len() as f64)),
        );
        report.set(
            "sim_mcycles_per_s",
            median(&per_batch(&PhaseResult::sim_mcycles_per_s)),
        );
        report.set("peak_rss_mb", crate::peak_rss_mb()?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_backlog_is_detected() {
        let span = 3_000;
        let steady: Vec<(u64, usize)> = (0..span)
            .step_by(10)
            .map(|t| (t, 1 + (t as usize / 10) % 2))
            .collect();
        assert!(!backlog_grows(&steady, span));
        let growing: Vec<(u64, usize)> = (0..span)
            .step_by(10)
            .map(|t| (t, 1 + t as usize / 100))
            .collect();
        assert!(backlog_grows(&growing, span));
    }

    #[test]
    fn inline_traces_are_valid_h264_workloads() {
        let mut rng = Rng::new(3);
        let trace = inline_trace(&mut rng, 6, 40);
        assert_eq!(trace.len(), 6);
        let library = rispp_h264::h264_si_library();
        for inv in trace.invocations() {
            assert_eq!(inv.bursts.len(), 40);
            for b in &inv.bursts {
                assert!(b.si.index() < library.len());
                assert!(inv.hints.iter().any(|&(si, _)| si == b.si));
            }
        }
        // The wire round trip the server performs keeps the trace.
        let payload = encode_trace(&trace);
        assert_eq!(rispp_serve::materialise_trace(&payload).unwrap(), trace);
    }
}
