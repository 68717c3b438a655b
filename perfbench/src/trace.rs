//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: an `op` span per request (send to matching reply, or one
//! simulator `inc`), with `encode`, `decode`, `write` and `read`
//! children for the driver's codec and socket calls. A socket call
//! carries several requests' frames; its span hangs off the first
//! request it carried and records how many it carried. Each isolated
//! layer measurement (`wire`, `backend`, `keyspace`, `sim`) is one more
//! span, recording how many items it timed. Only the first
//! [`SPAN_CAP`] request spans are kept for the dump (isolated spans
//! always are), but the per-name totals cover every span. Nothing is written until [`Tracer::write_jsonl`]
//! runs at the end of the benchmark.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the dump; later spans only feed the totals.
pub const SPAN_CAP: usize = 200_000;

/// Span names; the index is the totals slot.
pub const NAMES: [&str; 9] =
    ["op", "encode", "decode", "write", "read", "wire", "backend", "keyspace", "sim"];
/// `op` span.
pub const OP: usize = 0;
/// Frame encode.
pub const ENCODE: usize = 1;
/// Frame decode.
pub const DECODE: usize = 2;
/// Socket write call.
pub const WRITE: usize = 3;
/// Socket read call.
pub const READ: usize = 4;
/// Isolated wire codec measurement.
pub const WIRE: usize = 5;
/// Isolated backend measurement.
pub const BACKEND: usize = 6;
/// Isolated keyspace replay.
pub const KEYSPACE: usize = 7;
/// Isolated canonical simulator sweep.
pub const SIM: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: usize,
    trace: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    ops: u32,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    total_ns: [u64; NAMES.len()],
    count: [u64; NAMES.len()],
}

impl Tracer {
    /// An empty recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(SPAN_CAP),
            total_ns: [0; NAMES.len()],
            count: [0; NAMES.len()],
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; returns its index when it is kept for the dump.
    /// `close` must follow for spans whose end is not known yet.
    pub fn open(
        &mut self,
        name: usize,
        trace: u64,
        parent: Option<u32>,
        start: Instant,
    ) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span { name, trace, parent, start_ns, end_ns: start_ns, ops: 1 });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened with [`Tracer::open`] and adds it to the
    /// totals.
    pub fn close(&mut self, name: usize, idx: Option<u32>, start: Instant, end: Instant) {
        self.total_ns[name] += end.saturating_duration_since(start).as_nanos() as u64;
        self.count[name] += 1;
        if let Some(i) = idx {
            let end_ns = self.ns(end);
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Records a finished span carrying `ops` requests.
    pub fn span(
        &mut self,
        name: usize,
        trace: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
        ops: u32,
    ) {
        let idx = self.open(name, trace, parent, start);
        if let Some(i) = idx {
            self.spans[i as usize].ops = ops;
        }
        self.close(name, idx, start, end);
    }

    /// Records an isolated layer measurement of `items` items that ran
    /// from `start` until now; kept for the dump whatever the cap.
    pub fn isolated(&mut self, name: usize, start: Instant, items: u64) {
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let ops = u32::try_from(items).unwrap_or(u32::MAX);
        self.spans.push(Span { name, trace: 0, parent: None, start_ns, end_ns, ops });
        self.total_ns[name] += end_ns - start_ns;
        self.count[name] += 1;
    }

    /// Total nanoseconds recorded under span `name`.
    pub fn total_ns(&self, name: usize) -> u64 {
        self.total_ns[name]
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: usize) -> u64 {
        self.count[name]
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                NAMES[s.name], s.trace, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}
