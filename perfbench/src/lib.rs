//! # distctr-perfbench
//!
//! The repository's benchmark: two serving workloads, each reporting
//! the same seven end-to-end metrics, plus a traced run that reports
//! per-layer metrics. Every layer is measured from outside the program:
//! the benchmark times its own calls into public functions and reads
//! procfs at phase boundaries.
//!
//! * `serve_hot` — one unkeyed counter on `ShmTreeCounter` (n = 81)
//!   behind the readiness server with flat combining. The backend
//!   costs about a microsecond, so reactor, codec, sessions and
//!   combiner do most of the work.
//! * `keyed_zipf` — the same server hosting `Keyspace::sim` (n = 81);
//!   keys drawn Zipf(s = 1.2) over 64 keys, three `KeyInc` per `Read`.
//!   Keyspace routing, promotion and simulator traversals carry a
//!   large share of each op, and reads exercise the reactor's inline
//!   path.
//!
//! The simulator at scale is measured in the traced run instead of as
//! a workload of its own: one canonical sweep (one inc per processor in
//! id order, tracing off) at n = 6^7 = 279,936, whose message count and
//! bottleneck are exact and checked against the `O(k)` envelope. Its
//! 146 MiB working set makes its timings follow the memory traffic of
//! whatever else shares the host: on the 2-core development VM the
//! sweep's median inc latency moved 60% between half-hour periods,
//! far outside any bound a gated metric can carry.
//!
//! A run is split into rounds. Each round builds the backend, starts
//! the server, connects and handshakes every connection and runs a
//! fixed warm-up whose values are checked; that whole span is one
//! set-up sample, and `setup_s` is the median over rounds. The timed
//! figures are medians over the faster half of rounds (see `Rounds`).
//! Latency goes into a fixed-size histogram per round, so memory does
//! not grow with run length. `peak_rss_mib` is `VmHWM` after a fixed
//! amount of work in the first round: later rounds rebuild the server
//! in the same process, and what the allocator keeps from torn-down
//! servers' threads would otherwise count against the program. In a
//! traced run, odd rounds record spans and even ones do not; the
//! untraced ones give the per-layer procfs figures and the baseline for
//! `trace.overhead_frac`.

pub mod driver;
pub mod hist;
pub mod layers;
pub mod procfs;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use distctr_core::{CounterBackend, TreeCounter};
use distctr_keyspace::{Keyspace, KeyspaceConfig};
use distctr_server::wire::WireMsg;
use distctr_server::CounterServer;
use distctr_shm::ShmTreeCounter;
use distctr_sim::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::driver::{Driver, Op, Phase, Until};
use crate::hist::LatencyHist;
use crate::procfs::RoleUsage;
use crate::trace::Tracer;

/// End-to-end metrics, with units, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_frac", "ratio"),
    ("cpu_us_per_op", "us/op"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, with units, in output order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("driver.cpu_us_per_op", "us/op"),
    ("driver.bytes_per_op", "bytes/op"),
    ("driver.codec_ns_per_op", "ns/op"),
    ("driver.socket_ns_per_op", "ns/op"),
    ("reactor.cpu_us_per_op", "us/op"),
    ("reactor.ctx_switches_per_op", "1/op"),
    ("reactor.pipe_reads_per_op", "1/op"),
    ("combiner.cpu_us_per_op", "us/op"),
    ("combiner.ctx_switches_per_op", "1/op"),
    ("combiner.pipe_writes_per_op", "1/op"),
    ("combiner.ops_per_traversal", "ops"),
    ("server.shed", "count"),
    ("server.wire_errors", "count"),
    ("server.deduped", "count"),
    ("server.bottleneck", "msgs"),
    ("server.retirements", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("backend.inc_batch_ns", "ns"),
    ("keyspace.inc_key_ns", "ns"),
    ("keyspace.read_key_ns", "ns"),
    ("keyspace.promotions", "count"),
    ("keyspace.demotions", "count"),
    ("sim.build_ns_per_proc", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.msgs_per_inc", "msgs"),
    ("sim.max_load", "msgs"),
    ("host.cores_busy", "cores"),
    ("accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("latency.samples", "count"),
];

/// The `O(k)` envelope on the canonical bottleneck (E25's `20k`).
const MAX_LOAD_PER_ORDER: u64 = 20;
/// Processors behind the server.
const SERVE_N: usize = 81;
/// Driver connections.
const CONNS: usize = 2;
/// Requests in flight per connection.
const WINDOW: usize = 16;
/// Keys of `keyed_zipf`.
const KEYS: usize = 64;
/// Zipf exponent of `keyed_zipf`.
const ZIPF_S: f64 = 1.2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot unkeyed counter on the shared-memory tree, served.
    ServeHot,
    /// Zipf-keyed incs and reads on the keyspace, served.
    KeyedZipf,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ServeHot, Workload::KeyedZipf];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::KeyedZipf => "keyed_zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and durations of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Measured time, split over the rounds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Serving rounds; each is one set-up sample.
    pub rounds: usize,
    /// Processors of the traced run's canonical sweep.
    pub sim_n: usize,
    /// Checked warm-up requests per round.
    pub warmup_ops: u64,
    /// Ops per isolated layer measurement.
    pub micro_ops: usize,
    /// Timed ops of the first round after which `peak_rss_mib` is read.
    pub rss_ops: u64,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Params {
    /// The benchmark's sizes.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            seed,
            seconds,
            trace,
            rounds: 24,
            sim_n: 279_936,
            warmup_ops: 8192,
            micro_ops: 100_000,
            rss_ops: 262_144,
            trace_out: None,
        }
    }

    /// Tiny sizes for the smoke test.
    pub fn tiny(seed: u64, trace: bool) -> Params {
        Params {
            seconds: 0.2,
            rounds: 2,
            sim_n: 81,
            warmup_ops: 64,
            micro_ops: 2_000,
            rss_ops: 256,
            ..Params::standard(seed, 0.2, trace)
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests attempted, warm-up and final checks included.
    pub attempted: u64,
    /// Attempted requests that did not end in a checked success.
    pub failed: u64,
    /// Correctness violations, verbatim (the first few).
    pub violations: Vec<String>,
    /// Latency samples behind `p50_us` and `p99_us`.
    pub samples: u64,
    /// `(name, value, unit)`: the end-to-end metrics, or the per-layer
    /// ones for a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Whether every output passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Starts the server that hosts `backend`. Every serving workload
/// builds its server here, so a change to how servers are constructed
/// touches one call.
fn start_server<B: CounterBackend + Send + 'static>(
    backend: B,
) -> Result<CounterServer<B>, String> {
    CounterServer::serve_async_combining(backend).map_err(|e| e.to_string())
}

/// The keyspace `keyed_zipf` hosts and the keyspace replay uses.
fn keyspace() -> Keyspace<TreeCounter> {
    Keyspace::sim(KeyspaceConfig::new(SERVE_N))
}

/// The seeded request stream of a serving workload.
struct OpStream {
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    issued: u64,
}

impl OpStream {
    fn new(w: Workload, p: &Params) -> OpStream {
        let zipf = (w == Workload::KeyedZipf).then(|| ZipfSampler::new(KEYS, ZIPF_S));
        OpStream { rng: StdRng::seed_from_u64(p.seed), zipf, issued: 0 }
    }

    /// `serve_hot`: unkeyed incs. `keyed_zipf`: a Zipf key per op, and
    /// every fourth op a read.
    fn next(&mut self) -> Op {
        self.issued += 1;
        match &self.zipf {
            None => Op::Inc,
            Some(z) => {
                let key = z.sample(&mut self.rng) as u64;
                if self.issued.is_multiple_of(4) {
                    Op::Read(key)
                } else {
                    Op::KeyInc(key)
                }
            }
        }
    }
}

/// Runs `w` with `p`.
///
/// # Errors
///
/// A set-up failure (bind, connect, backend construction) that leaves
/// nothing to measure.
pub fn run(w: Workload, p: &Params) -> Result<Outcome, String> {
    match w {
        Workload::ServeHot => {
            run_serve(w, p, || ShmTreeCounter::new(SERVE_N).map_err(|e| e.to_string()))
        }
        Workload::KeyedZipf => run_serve(w, p, || Ok(keyspace())),
    }
}

/// Per-round end-to-end figures.
///
/// Host speed drifts in phases of a few seconds (on the 2-core
/// development VM, identical simulator sweeps ran 165k-300k incs/s
/// within one 30 s run, with message counts repeating exactly), and
/// interference from the rest of the host only ever adds time. So
/// rounds are ranked by throughput and each timed figure is the median
/// over the faster half of them; a slow phase covering up to half the
/// rounds does not move it. `setup_s` is the median over every set-up.
#[derive(Debug, Default)]
struct Rounds {
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
}

impl Rounds {
    /// Adds one untraced timed phase.
    fn timed(&mut self, ops: u64, wall_s: f64, hist: &LatencyHist, cpu_ns: u64) {
        self.ops_per_s.push(ratio(ops as f64, wall_s));
        self.p50_us.push(hist.quantile_ns(0.50) / 1e3);
        self.p99_us.push(hist.quantile_ns(0.99) / 1e3);
        self.cpu_us_per_op.push(ratio(cpu_ns as f64 / 1e3, ops as f64));
    }

    fn insert(&self, m: &mut BTreeMap<&'static str, f64>) {
        let mut order: Vec<usize> = (0..self.ops_per_s.len()).collect();
        order.sort_by(|&a, &b| self.ops_per_s[b].total_cmp(&self.ops_per_s[a]));
        order.truncate(order.len().div_ceil(2));
        let faster = |v: &[f64]| layers::median(&order.iter().map(|&i| v[i]).collect::<Vec<_>>());
        m.insert("setup_s", layers::median(&self.setup_s));
        m.insert("ops_per_s", faster(&self.ops_per_s));
        m.insert("p50_us", faster(&self.p50_us));
        m.insert("p99_us", faster(&self.p99_us));
        m.insert("cpu_us_per_op", faster(&self.cpu_us_per_op));
    }

    /// Prints every round's figures to standard error.
    fn log(&self, w: Workload) {
        let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
        eprintln!("perfbench: {} per round: setup_s [{}]", w.name(), fmt(&self.setup_s));
        eprintln!("perfbench: {} per round: ops_per_s [{}]", w.name(), fmt(&self.ops_per_s));
        eprintln!("perfbench: {} per round: p50_us [{}]", w.name(), fmt(&self.p50_us));
        eprintln!("perfbench: {} per round: p99_us [{}]", w.name(), fmt(&self.p99_us));
    }
}

/// Totals over a serving run's rounds.
#[derive(Default)]
struct ServeAcc {
    rounds: Rounds,
    attempted: u64,
    acked: u64,
    violations: u64,
    kept: Vec<String>,
    samples: u64,
    /// `VmHWM` at the end of the first round.
    peak_rss_mib: f64,
    /// Untraced timed phases.
    ops: u64,
    wall: f64,
    usage: RoleUsage,
    bytes: u64,
    backend_ops: u64,
    traversals: u64,
    /// Traced timed phases.
    traced_ops: u64,
    traced_wall: f64,
    shed: u64,
    wire_errors: u64,
    deduped: u64,
    bottleneck: u64,
    retirements: u64,
}

impl ServeAcc {
    fn phase(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.acked += phase.acked;
    }

    fn violate(&mut self, what: String) {
        self.violations += 1;
        if self.kept.len() < 20 {
            self.kept.push(what);
        }
    }

    /// Folds a driver result in; a transport failure becomes a
    /// violation and stops the run.
    fn settle(&mut self, r: Result<Phase, (Phase, String)>) -> Option<Phase> {
        match r {
            Ok(phase) => {
                self.phase(&phase);
                Some(phase)
            }
            Err((phase, why)) => {
                self.phase(&phase);
                self.violate(format!("transport: {why}"));
                None
            }
        }
    }
}

fn run_serve<B, F>(w: Workload, p: &Params, make: F) -> Result<Outcome, String>
where
    B: CounterBackend + Send + 'static,
    F: Fn() -> Result<B, String>,
{
    let epoch = Instant::now();
    let mut tracer = p.trace.then(|| Tracer::new(epoch));
    let mut ops = OpStream::new(w, p);
    let mut next = || ops.next();
    let mut acc = ServeAcc::default();
    let round_time = Duration::from_secs_f64(p.seconds / p.rounds as f64);
    for round in 0..p.rounds {
        let traced = p.trace && round % 2 == 1;
        let start = Instant::now();
        let mut server = start_server(make()?)?;
        let mut driver = Driver::connect(server.local_addr(), CONNS, WINDOW)?;
        let warm = driver.run(Until::Issued(p.warmup_ops), &mut next, None, None);
        if acc.settle(warm).is_none() {
            break;
        }
        acc.rounds.setup_s.push(start.elapsed().as_secs_f64());

        let (stats0, usage0, bytes0) = (server.stats(), procfs::sample(), driver.bytes);
        let t0 = Instant::now();
        let mut hist = LatencyHist::default();
        // The first round reads the memory high-water mark after a fixed
        // number of ops: resident memory grows with ops served on some
        // backends, so a fixed-time reading would follow host speed.
        let mut head = Phase::default();
        if round == 0 {
            let Some(phase) =
                acc.settle(driver.run(Until::Issued(p.rss_ops), &mut next, Some(&mut hist), None))
            else {
                break;
            };
            acc.peak_rss_mib = procfs::peak_rss_mib();
            head = phase;
        }
        let timed = driver.run(
            Until::Deadline(t0 + round_time),
            &mut next,
            Some(&mut hist),
            if traced { tracer.as_mut() } else { None },
        );
        let wall = t0.elapsed().as_secs_f64();
        let (stats1, usage1) = (server.stats(), procfs::sample());
        let Some(mut timed) = acc.settle(timed) else { break };
        timed.acked += head.acked;
        if traced {
            acc.traced_ops += timed.acked;
            acc.traced_wall += wall;
        } else {
            let usage = procfs::between(&usage0, &usage1);
            acc.rounds.timed(timed.acked, wall, &hist, usage.total().cpu_ns);
            acc.ops += timed.acked;
            acc.wall += wall;
            acc.samples += hist.count();
            acc.usage.add(&usage);
            acc.bytes += driver.bytes - bytes0;
            acc.backend_ops += stats1.ops - stats0.ops;
            acc.traversals += stats1.combined_traversals - stats0.combined_traversals;
        }

        // Quiescent checks: each key read back must equal its acked
        // incs exactly (the read gate's bounds coincide when nothing is
        // in flight), and the server applied exactly the acked incs.
        if w == Workload::KeyedZipf {
            let keys = driver.gate.keys();
            let mut it = keys.iter().copied();
            let reads = driver.run(
                Until::Issued(keys.len() as u64),
                &mut || Op::Read(it.next().unwrap_or(0)),
                None,
                None,
            );
            if acc.settle(reads).is_none() {
                break;
            }
        }
        driver.gate.check_gap_free();
        let stats = server.stats();
        if stats.ops != driver.gate.acked_total() {
            let acked = driver.gate.acked_total();
            acc.violate(format!("server applied {} incs, driver saw {acked} acked", stats.ops));
        }
        acc.violations += driver.gate.violations();
        acc.kept.extend(driver.gate.kept().iter().cloned());
        acc.kept.truncate(20);
        acc.shed += stats.shed;
        acc.wire_errors += stats.wire_errors;
        acc.deduped += stats.deduped;
        acc.bottleneck = acc.bottleneck.max(stats.bottleneck);
        acc.retirements += stats.retirements;
        drop(driver);
        server.shutdown().map_err(|e| e.to_string())?;
    }

    let ok = acc.acked.saturating_sub(acc.violations);
    let mut m = BTreeMap::new();
    let ops = acc.ops as f64;
    let ops_per_s = ratio(ops, acc.wall);
    acc.rounds.insert(&mut m);
    acc.rounds.log(w);
    m.insert("ok_frac", ratio(ok as f64, acc.attempted as f64));
    m.insert("peak_rss_mib", acc.peak_rss_mib);
    m.insert("latency.samples", acc.samples as f64);

    if p.trace {
        let u = acc.usage;
        let per_op = |v: u64| ratio(v as f64, ops);
        m.insert("driver.cpu_us_per_op", per_op(u.driver.cpu_ns) / 1e3);
        m.insert("driver.bytes_per_op", per_op(acc.bytes));
        m.insert("reactor.cpu_us_per_op", per_op(u.reactor.cpu_ns) / 1e3);
        m.insert("reactor.ctx_switches_per_op", per_op(u.reactor.ctx_switches));
        m.insert("reactor.pipe_reads_per_op", per_op(u.reactor.syscr));
        m.insert("combiner.cpu_us_per_op", per_op(u.combiner.cpu_ns) / 1e3);
        m.insert("combiner.ctx_switches_per_op", per_op(u.combiner.ctx_switches));
        m.insert("combiner.pipe_writes_per_op", per_op(u.combiner.syscw));
        let batch = ratio(acc.backend_ops as f64, acc.traversals as f64);
        m.insert("combiner.ops_per_traversal", batch);
        m.insert("server.shed", acc.shed as f64);
        m.insert("server.wire_errors", acc.wire_errors as f64);
        m.insert("server.deduped", acc.deduped as f64);
        m.insert("server.bottleneck", acc.bottleneck as f64);
        m.insert("server.retirements", acc.retirements as f64);
        m.insert("host.cores_busy", ratio(u.total().cpu_ns as f64 / 1e9, acc.wall));
        m.insert(
            "trace.overhead_frac",
            1.0 - ratio(ratio(acc.traced_ops as f64, acc.traced_wall), ops_per_s),
        );
        let t = tracer.as_mut().expect("traced run has a tracer");
        let traced_ops = t.count(trace::OP) as f64;
        let codec = t.total_ns(trace::ENCODE) + t.total_ns(trace::DECODE);
        let socket = t.total_ns(trace::WRITE) + t.total_ns(trace::READ);
        m.insert("driver.codec_ns_per_op", ratio(codec as f64, traced_ops));
        m.insert("driver.socket_ns_per_op", ratio(socket as f64, traced_ops));

        // Isolated layers, over this workload's own request stream.
        let mut stream = OpStream::new(w, p);
        let sample: Vec<Op> = (0..p.micro_ops).map(|_| stream.next()).collect();
        let frames = frame_mix(&sample);
        let start = Instant::now();
        let (encode_ns, decode_ns) = layers::wire(&frames);
        t.isolated(trace::WIRE, start, frames.len() as u64);
        m.insert("wire.encode_ns", encode_ns);
        m.insert("wire.decode_ns", decode_ns);
        let mean_batch = batch.round().max(1.0) as u64;
        let mut backend = make()?;
        let start = Instant::now();
        let inc_batch_ns = layers::inc_batch(&mut backend, mean_batch, p.micro_ops / 5)?;
        t.isolated(trace::BACKEND, start, (p.micro_ops / 5) as u64);
        m.insert("backend.inc_batch_ns", inc_batch_ns);
        let start = Instant::now();
        let replay = layers::keyspace(&mut keyspace(), &sample)?;
        t.isolated(trace::KEYSPACE, start, sample.len() as u64);
        m.insert("keyspace.inc_key_ns", replay.inc_key_ns);
        m.insert("keyspace.read_key_ns", replay.read_key_ns);
        m.insert("keyspace.promotions", replay.promotions as f64);
        m.insert("keyspace.demotions", replay.demotions as f64);
        let start = Instant::now();
        let sweep = layers::sim(p.sim_n)?;
        t.isolated(trace::SIM, start, sweep.processors);
        let envelope = MAX_LOAD_PER_ORDER * u64::from(sweep.order);
        if sweep.max_load > envelope {
            acc.violate(format!("max load {} exceeds the 20k envelope {envelope}", sweep.max_load));
        }
        m.insert("sim.build_ns_per_proc", sweep.build_ns / sweep.processors as f64);
        m.insert("sim.events_per_s", ratio(sweep.messages as f64 * 1e9, sweep.sweep_ns));
        m.insert("sim.msgs_per_inc", ratio(sweep.messages as f64, sweep.processors as f64));
        m.insert("sim.max_load", sweep.max_load as f64);
        // What the isolated stages account for of the server threads'
        // CPU per op: decode a request and encode a reply per op, one
        // backend batch per `mean_batch` incs, one keyspace read per
        // read.
        let read_share = ratio(
            sample.iter().filter(|op| matches!(op, Op::Read(_))).count() as f64,
            sample.len() as f64,
        );
        let stages = decode_ns
            + encode_ns
            + (1.0 - read_share) * inc_batch_ns / mean_batch as f64
            + read_share * replay.read_key_ns;
        let server_ns = per_op(u.reactor.cpu_ns + u.combiner.cpu_ns);
        m.insert("accounted_frac", ratio(stages, server_ns));
        if let Some(path) = &p.trace_out {
            t.write_jsonl(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(finish(p, acc.attempted, ok, acc.kept, m))
}

/// Request and reply frames for `ops`, as the server sees them.
fn frame_mix(ops: &[Op]) -> Vec<WireMsg> {
    ops.iter()
        .enumerate()
        .flat_map(|(i, &op)| {
            let i = i as u64;
            let reply = match op {
                Op::Read(key) => WireMsg::ReadOk { key, value: i },
                Op::Inc | Op::KeyInc(_) => WireMsg::IncOk { request_id: i, value: i },
            };
            [op.request(i), reply]
        })
        .collect()
}

/// Assembles the outcome, in the order of the metric tables.
fn finish(
    p: &Params,
    attempted: u64,
    ok: u64,
    violations: Vec<String>,
    m: BTreeMap<&'static str, f64>,
) -> Outcome {
    let table: &[(&'static str, &'static str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = *m.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, value, unit)
        })
        .collect();
    let mut violations = violations;
    if ok < attempted && violations.is_empty() {
        violations.push(format!("{} of {attempted} requests failed", attempted - ok));
    }
    let samples = m.get("latency.samples").copied().unwrap_or(0.0) as u64;
    Outcome { attempted, failed: attempted - ok, violations, samples, metrics }
}
