//! Isolated layer costs, measured from outside the program by timing
//! the benchmark's own calls into each layer's public functions.
//!
//! Each measurement repeats its pass several times and keeps the
//! median pass, so one descheduling does not move the figure.

use std::hint::black_box;
use std::time::Instant;

use distctr_core::{CounterBackend, TreeCounter};
use distctr_keyspace::Keyspace;
use distctr_server::wire::{encode_frame_into, try_decode_frame, WireMsg};
use distctr_sim::{Counter, ProcessorId, TraceMode};

use crate::driver::Op;

/// Passes per timing; the median pass is reported.
const PASSES: usize = 5;

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

/// Median-pass nanoseconds per item of `pass`, which handles `items`
/// items per call.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&times)
}

/// `(encode, decode)` nanoseconds per frame over `frames`, through
/// `encode_frame_into` and `try_decode_frame`.
pub fn wire(frames: &[WireMsg]) -> (f64, f64) {
    let mut buf = Vec::with_capacity(frames.len() * 48);
    let encode_ns = per_item_ns(frames.len(), || {
        buf.clear();
        for f in frames {
            encode_frame_into(black_box(f), &mut buf);
        }
        black_box(&buf);
    });
    let decode_ns = per_item_ns(frames.len(), || {
        let mut at = 0;
        while let Ok(Some((msg, used))) = try_decode_frame(black_box(&buf[at..])) {
            black_box(msg);
            at += used;
        }
        assert_eq!(at, buf.len(), "every encoded frame decodes");
    });
    (encode_ns, decode_ns)
}

/// Nanoseconds per `CounterBackend::inc_batch(_, batch)` call on
/// `backend`, with initiators rotating over its processors.
///
/// # Errors
///
/// A backend failure.
pub fn inc_batch<B: CounterBackend>(
    backend: &mut B,
    batch: u64,
    calls: usize,
) -> Result<f64, String> {
    let n = backend.processors();
    let mut next = 0usize;
    let mut failure = None;
    let ns = per_item_ns(calls, || {
        for _ in 0..calls {
            let p = ProcessorId::new(next % n);
            next += 1;
            if let Err(e) = backend.inc_batch(p, black_box(batch)) {
                failure.get_or_insert(e.to_string());
            }
        }
    });
    failure.map_or(Ok(ns), Err)
}

/// What replaying a key stream against a keyspace cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyspaceReplay {
    /// Nanoseconds per `inc_key`.
    pub inc_key_ns: f64,
    /// Nanoseconds per `read_key`.
    pub read_key_ns: f64,
    /// Promotions the replay triggered.
    pub promotions: u64,
    /// Demotions the replay triggered.
    pub demotions: u64,
}

/// Replays `ops` against the fresh keyspace `ks`: the incs in stream
/// order (timed as one block), then one `read_key` per op's key
/// (another block).
///
/// # Errors
///
/// A keyspace failure, or a value out of sequence.
pub fn keyspace(ks: &mut Keyspace<TreeCounter>, ops: &[Op]) -> Result<KeyspaceReplay, String> {
    let n = ks.config().processors;
    let incs: Vec<u64> =
        ops.iter().filter(|op| !matches!(op, Op::Read(_))).map(|op| op.key()).collect();
    let t = Instant::now();
    for (i, &key) in incs.iter().enumerate() {
        ks.inc_key(key, ProcessorId::new(i % n), None).map_err(|e| e.to_string())?;
    }
    let inc_key_ns = t.elapsed().as_nanos() as f64 / incs.len().max(1) as f64;
    let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
    let read_key_ns = per_item_ns(keys.len(), || {
        for &key in &keys {
            black_box(ks.read_key(black_box(key)));
        }
    });
    let total: u64 =
        (0..=keys.iter().copied().max().unwrap_or(0)).map(|k| ks.read_key(k).unwrap_or(0)).sum();
    if total != incs.len() as u64 {
        return Err(format!("keyspace replay granted {total} values for {} incs", incs.len()));
    }
    Ok(KeyspaceReplay {
        inc_key_ns,
        read_key_ns,
        promotions: ks.promotions(),
        demotions: ks.demotions(),
    })
}

/// One canonical sweep of the simulator: one inc per processor in id
/// order on a fresh tree with tracing off.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep {
    /// Tree order `k`.
    pub order: u32,
    /// Nanoseconds to build the tree.
    pub build_ns: f64,
    /// Nanoseconds for the incs.
    pub sweep_ns: f64,
    /// Processors (and incs).
    pub processors: u64,
    /// Protocol messages delivered.
    pub messages: u64,
    /// Largest per-processor load.
    pub max_load: u64,
}

/// Runs one canonical sweep at `n` processors.
///
/// # Errors
///
/// A simulator failure or an out-of-sequence value.
pub fn sim(n: usize) -> Result<Sweep, String> {
    let t = Instant::now();
    let mut tree = TreeCounter::builder(n)
        .and_then(|b| b.trace(TraceMode::Off).build())
        .map_err(|e| e.to_string())?;
    let build_ns = t.elapsed().as_nanos() as f64;
    let procs = Counter::processors(&tree);
    let t = Instant::now();
    for i in 0..procs {
        let v = Counter::inc(&mut tree, ProcessorId::new(i)).map_err(|e| e.to_string())?.value;
        if v != i as u64 {
            return Err(format!("canonical inc {i} returned {v}"));
        }
    }
    Ok(Sweep {
        order: tree.order(),
        build_ns,
        sweep_ns: t.elapsed().as_nanos() as f64,
        processors: procs as u64,
        messages: tree.loads().total_messages(),
        max_load: tree.loads().max_load(),
    })
}
