//! The lean load driver and its correctness gate.
//!
//! One thread, a few loopback connections, each keeping a fixed window
//! of requests in flight (a closed loop with a window). The driver
//! speaks the wire protocol directly through
//! [`encode_frame_into`]/[`try_decode_frame`]: each turn it writes all
//! of a connection's due frames in one call, and on readiness it drains
//! every available reply before refilling the window.
//!
//! Every reply passes the [`Gate`]: per key, inc values must be exactly
//! `0..n_k` (distinct, gap-free from zero), and a read must return a
//! value between the incs on that key acked before the read was sent
//! and the incs sent before its reply arrived.

use std::collections::{BTreeSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use distctr_reactor::{Event, Interest, Poller};
use distctr_server::wire::{encode_frame_into, try_decode_frame, WireMsg};

use crate::hist::LatencyHist;
use crate::trace::{self, Tracer};

/// How long the driver waits without any reply before it declares the
/// outstanding requests timed out.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Violations kept verbatim; later ones are only counted.
const VIOLATIONS_KEPT: usize = 20;

/// One request a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An unkeyed increment (the session's default counter, key 0).
    Inc,
    /// An increment of counter `key`.
    KeyInc(u64),
    /// A read of counter `key`.
    Read(u64),
}

impl Op {
    /// The counter this op touches.
    pub fn key(self) -> u64 {
        match self {
            Op::Inc => distctr_core::DEFAULT_KEY,
            Op::KeyInc(k) | Op::Read(k) => k,
        }
    }

    /// The request frame for this op.
    pub fn request(self, request_id: u64) -> WireMsg {
        match self {
            Op::Inc => WireMsg::Inc { request_id, initiator: None },
            Op::KeyInc(key) => WireMsg::KeyInc { key, request_id, initiator: None },
            Op::Read(key) => WireMsg::Read { key },
        }
    }
}

#[derive(Debug, Default)]
struct KeyGate {
    sent: u64,
    acked: u64,
    /// Every value below `next` has been acked exactly once.
    next: u64,
    /// Acked values above `next`, waiting for the gap to close.
    ahead: BTreeSet<u64>,
}

/// The correctness gate; see the module docs.
#[derive(Debug, Default)]
pub struct Gate {
    keys: Vec<KeyGate>,
    violations: u64,
    kept: Vec<String>,
}

impl Gate {
    fn key(&mut self, key: u64) -> &mut KeyGate {
        let idx = key as usize;
        if idx >= self.keys.len() {
            self.keys.resize_with(idx + 1, KeyGate::default);
        }
        &mut self.keys[idx]
    }

    /// Records a violation.
    pub fn violate(&mut self, what: String) {
        self.violations += 1;
        if self.kept.len() < VIOLATIONS_KEPT {
            self.kept.push(what);
        }
    }

    fn inc_sent(&mut self, key: u64) {
        self.key(key).sent += 1;
    }

    fn inc_acked(&mut self, key: u64, value: u64) {
        let k = self.key(key);
        k.acked += 1;
        let fresh = value >= k.next && k.ahead.insert(value);
        if fresh {
            while k.ahead.remove(&k.next) {
                k.next += 1;
            }
        } else {
            self.violate(format!("key {key}: value {value} handed out twice"));
        }
    }

    fn read_acked(&mut self, key: u64, lo: u64, value: u64) {
        let hi = self.key(key).sent;
        if value < lo || value > hi {
            self.violate(format!(
                "key {key}: read returned {value}, outside [{lo}, {hi}] (acked before send, sent before reply)"
            ));
        }
    }

    /// Incs acked on `key`.
    pub fn acked(&self, key: u64) -> u64 {
        self.keys.get(key as usize).map_or(0, |k| k.acked)
    }

    /// Incs acked on every key.
    pub fn acked_total(&self) -> u64 {
        self.keys.iter().map(|k| k.acked).sum()
    }

    /// Keys that have seen any traffic.
    pub fn keys(&self) -> Vec<u64> {
        (0..self.keys.len() as u64).filter(|&k| self.keys[k as usize].sent > 0).collect()
    }

    /// Checks that every key's acked values are exactly `0..acked`.
    pub fn check_gap_free(&mut self) {
        for key in 0..self.keys.len() {
            let k = &self.keys[key];
            if !k.ahead.is_empty() || k.next != k.acked {
                let (next, acked) = (k.next, k.acked);
                self.violate(format!("key {key}: acked {acked} incs but values 0..{next} only"));
            }
        }
    }

    /// Violations seen.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violations, verbatim.
    pub fn kept(&self) -> &[String] {
        &self.kept
    }
}

/// When a phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After exactly this many requests.
    Issued(u64),
    /// At this instant.
    Deadline(Instant),
}

/// What one phase did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with a success; `attempted - acked` were
    /// answered with `Busy`/`Err` or never answered.
    pub acked: u64,
}

struct Pending {
    seq: u64,
    op: Op,
    /// Incs acked on the key when a read was sent.
    lo: u64,
    sent: Instant,
    span: Option<u32>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    next_seq: u64,
    pending: VecDeque<Pending>,
}

/// The single-threaded closed-loop driver; see the module docs.
pub struct Driver {
    conns: Vec<Conn>,
    poller: Poller,
    events: Vec<Event>,
    window: usize,
    scratch: Vec<u8>,
    /// The correctness gate every reply passes.
    pub gate: Gate,
    /// Wire bytes sent plus received.
    pub bytes: u64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Driver {
    /// Connects `conns` connections to `addr` and completes each
    /// handshake.
    ///
    /// # Errors
    ///
    /// A connect, handshake or poller failure.
    pub fn connect(addr: SocketAddr, conns: usize, window: usize) -> Result<Driver, String> {
        let mut poller = Poller::new().map_err(io_err("poller"))?;
        let mut out = Vec::with_capacity(conns);
        for token in 0..conns {
            let mut stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
            stream.set_nodelay(true).map_err(io_err("nodelay"))?;
            let mut hello = Vec::new();
            encode_frame_into(&WireMsg::Hello { resume: None }, &mut hello);
            stream.write_all(&hello).map_err(io_err("hello"))?;
            let mut rbuf = Vec::new();
            let mut chunk = [0u8; 256];
            let reply = loop {
                if let Some((msg, used)) = try_decode_frame(&rbuf).map_err(|e| e.to_string())? {
                    rbuf.drain(..used);
                    break msg;
                }
                let n = stream.read(&mut chunk).map_err(io_err("hello reply"))?;
                if n == 0 {
                    return Err("server closed during the handshake".into());
                }
                rbuf.extend_from_slice(&chunk[..n]);
            };
            if !matches!(reply, WireMsg::HelloOk { .. }) {
                return Err(format!("handshake answered with {reply:?}"));
            }
            stream.set_nonblocking(true).map_err(io_err("nonblocking"))?;
            poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .map_err(io_err("register"))?;
            out.push(Conn {
                stream,
                rbuf,
                wbuf: Vec::with_capacity(64 * window),
                next_seq: 0,
                pending: VecDeque::with_capacity(window),
            });
        }
        Ok(Driver {
            conns: out,
            poller,
            events: Vec::new(),
            window,
            scratch: vec![0u8; 64 * 1024],
            gate: Gate::default(),
            bytes: 0,
        })
    }

    /// Runs one phase: keeps every connection's window full of ops from
    /// `next_op` until `until`, then waits for the last replies.
    /// Latencies go to `hist` and spans to `tracer` when given.
    ///
    /// # Errors
    ///
    /// A transport failure, an undecodable reply, or no reply for
    /// [`STALL_LIMIT`]; the outstanding requests count as failed.
    pub fn run(
        &mut self,
        until: Until,
        next_op: &mut dyn FnMut() -> Op,
        mut hist: Option<&mut LatencyHist>,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, (Phase, String)> {
        let mut phase = Phase::default();
        let issuing = |phase: &Phase| match until {
            Until::Issued(n) => phase.attempted < n,
            Until::Deadline(t) => Instant::now() < t,
        };
        for c in 0..self.conns.len() {
            if let Err(e) = self.refill(c, &mut phase, &issuing, next_op, tracer.as_deref_mut()) {
                return Err(self.abandon(phase, e));
            }
        }
        let mut quiet_since = Instant::now();
        while self.conns.iter().any(|c| !c.pending.is_empty()) {
            if let Err(e) = self.poller.wait(&mut self.events, Some(Duration::from_secs(1))) {
                return Err(self.abandon(phase, format!("poll: {e}")));
            }
            if self.events.is_empty() {
                if quiet_since.elapsed() >= STALL_LIMIT {
                    return Err(self.abandon(phase, "timed out waiting for replies".into()));
                }
                continue;
            }
            quiet_since = Instant::now();
            for i in 0..self.events.len() {
                let c = self.events[i].token;
                let turn = self.drain(c, &mut phase, hist.as_deref_mut(), tracer.as_deref_mut());
                let turn = turn.and_then(|()| {
                    self.refill(c, &mut phase, &issuing, next_op, tracer.as_deref_mut())
                });
                if let Err(e) = turn {
                    return Err(self.abandon(phase, e));
                }
            }
        }
        Ok(phase)
    }

    /// Gives up on every outstanding request.
    fn abandon(&mut self, phase: Phase, why: String) -> (Phase, String) {
        for c in &mut self.conns {
            c.pending.clear();
        }
        (phase, why)
    }

    /// Tops connection `c`'s window up and writes the new frames in one
    /// call.
    fn refill(
        &mut self,
        c: usize,
        phase: &mut Phase,
        issuing: &dyn Fn(&Phase) -> bool,
        next_op: &mut dyn FnMut() -> Op,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let conn = &mut self.conns[c];
        if conn.pending.len() >= self.window || !issuing(phase) {
            return Ok(());
        }
        let start = Instant::now();
        conn.wbuf.clear();
        let mut first_span = None;
        let mut first_trace = 0;
        let mut added = 0u32;
        while conn.pending.len() < self.window && issuing(phase) {
            let op = next_op();
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let lo = match op {
                Op::Read(key) => self.gate.acked(key),
                Op::Inc | Op::KeyInc(_) => {
                    self.gate.inc_sent(op.key());
                    0
                }
            };
            let trace_id = ((c as u64) << 48) | seq;
            let span = match tracer.as_deref_mut() {
                Some(t) => {
                    let span = t.open(trace::OP, trace_id, None, start);
                    let enc = Instant::now();
                    encode_frame_into(&op.request(seq), &mut conn.wbuf);
                    t.span(trace::ENCODE, trace_id, span, enc, Instant::now(), 1);
                    span
                }
                None => {
                    encode_frame_into(&op.request(seq), &mut conn.wbuf);
                    None
                }
            };
            if added == 0 {
                first_span = span;
                first_trace = trace_id;
            }
            added += 1;
            conn.pending.push_back(Pending { seq, op, lo, sent: start, span });
            phase.attempted += 1;
        }
        let write_start = Instant::now();
        write_fully(&mut conn.stream, &conn.wbuf)?;
        if let Some(t) = tracer {
            t.span(trace::WRITE, first_trace, first_span, write_start, Instant::now(), added);
        }
        self.bytes += conn.wbuf.len() as u64;
        Ok(())
    }

    /// Reads everything connection `c` has available and settles each
    /// reply against its request.
    fn drain(
        &mut self,
        c: usize,
        phase: &mut Phase,
        mut hist: Option<&mut LatencyHist>,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let conn = &mut self.conns[c];
        let read_start = Instant::now();
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    self.bytes += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let arrived = Instant::now();
        let mut read_traced = false;
        let mut used = 0usize;
        loop {
            let dec = Instant::now();
            let Some((msg, len)) =
                try_decode_frame(&conn.rbuf[used..]).map_err(|e| e.to_string())?
            else {
                break;
            };
            let dec_end = Instant::now();
            used += len;
            let pos = match msg {
                WireMsg::IncOk { request_id, .. } => conn
                    .pending
                    .iter()
                    .position(|p| p.seq == request_id && !matches!(p.op, Op::Read(_))),
                WireMsg::ReadOk { .. } => {
                    conn.pending.iter().position(|p| matches!(p.op, Op::Read(_)))
                }
                // Unmatchable failures settle the oldest request of the
                // kind that can draw them.
                WireMsg::Busy { .. } | WireMsg::Err { .. } => conn
                    .pending
                    .iter()
                    .position(|p| !matches!(p.op, Op::Read(_)))
                    .or(if conn.pending.is_empty() { None } else { Some(0) }),
                _ => None,
            };
            let Some(p) = pos.and_then(|i| conn.pending.remove(i)) else {
                return Err(format!("reply {msg:?} matches no outstanding request"));
            };
            let ok = match (msg, p.op) {
                (WireMsg::IncOk { value, .. }, Op::Inc | Op::KeyInc(_)) => {
                    self.gate.inc_acked(p.op.key(), value);
                    true
                }
                (WireMsg::ReadOk { key, value }, Op::Read(want)) => {
                    if key == want {
                        self.gate.read_acked(key, p.lo, value);
                    } else {
                        self.gate.violate(format!("read of key {want} answered for key {key}"));
                    }
                    true
                }
                _ => false,
            };
            phase.acked += u64::from(ok);
            if let Some(h) = hist.as_deref_mut() {
                h.record(arrived.saturating_duration_since(p.sent).as_nanos() as u64);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let trace_id = ((c as u64) << 48) | p.seq;
                if !read_traced {
                    t.span(trace::READ, trace_id, p.span, read_start, arrived, 1);
                    read_traced = true;
                }
                t.span(trace::DECODE, trace_id, p.span, dec, dec_end, 1);
                t.close(trace::OP, p.span, p.sent, dec_end);
            }
        }
        conn.rbuf.drain(..used);
        Ok(())
    }
}

/// `write_all` on a nonblocking socket: a full send buffer (which a
/// window of small frames never fills in practice) is waited out.
fn write_fully(stream: &mut TcpStream, mut buf: &[u8]) -> Result<(), String> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_accepts_out_of_order_values_that_close_every_gap() {
        let mut g = Gate::default();
        for _ in 0..4 {
            g.inc_sent(3);
        }
        for v in [1, 0, 3, 2] {
            g.inc_acked(3, v);
        }
        g.check_gap_free();
        assert_eq!(g.violations(), 0, "{:?}", g.kept());
        assert_eq!(g.acked(3), 4);
    }

    #[test]
    fn gate_flags_duplicates_and_gaps() {
        let mut g = Gate::default();
        g.inc_acked(0, 0);
        g.inc_acked(0, 0);
        assert_eq!(g.violations(), 1);
        g.inc_acked(1, 1);
        g.check_gap_free();
        // Key 0 acked twice with values 0..1 only; key 1 never saw 0.
        assert_eq!(g.violations(), 3, "{:?}", g.kept());
    }

    #[test]
    fn gate_bounds_reads_by_acked_before_send_and_sent_before_reply() {
        let mut g = Gate::default();
        g.inc_sent(5);
        g.inc_sent(5);
        g.inc_acked(5, 0);
        let lo = g.acked(5);
        g.read_acked(5, lo, 1);
        g.read_acked(5, lo, 2);
        assert_eq!(g.violations(), 0);
        g.read_acked(5, lo, 0);
        g.read_acked(5, lo, 3);
        assert_eq!(g.violations(), 2);
    }
}
