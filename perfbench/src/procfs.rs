//! Per-thread procfs sampler, read at phase boundaries only.
//!
//! One [`sample`] reads `/proc/self/task/*/{comm,schedstat,status,io}`
//! and keeps, per thread: on-CPU nanoseconds (`schedstat` field 1),
//! voluntary plus involuntary context switches (`status`), and the
//! `syscr`/`syscw` counters (`io`). Threads are attributed to a
//! [`Role`] by name: the server names its threads `distctr-reactor`
//! and `distctr-combiner` (the kernel truncates `comm` to 15 bytes,
//! so the latter reads `distctr-combine`), and the benchmark's driver
//! is the main thread.
//!
//! `syscr`/`syscw` count `read(2)`/`write(2)`-family calls on files and
//! pipes, which is how the server's self-pipe waker is read and
//! written. Socket I/O through `recv(2)`/`send(2)` (what `std::net`
//! uses) does not pass through those counters, so the figures are
//! waker pipe traffic, not socket traffic. Reading procfs itself counts
//! against the main thread's `syscr`, which is why no driver figure is
//! derived from it.

use std::collections::HashMap;

/// Who a thread works for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The benchmark's main thread: load driver and simulator sweeps.
    Driver,
    /// The server's readiness loop.
    Reactor,
    /// The server's flat-combining thread.
    Combiner,
    /// Anything else.
    Other,
}

/// Cumulative counters of one thread, or a sum over threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// On-CPU time in nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// `read(2)`-family syscalls.
    pub syscr: u64,
    /// `write(2)`-family syscalls.
    pub syscw: u64,
}

impl Usage {
    fn add(&mut self, other: Usage) {
        self.cpu_ns += other.cpu_ns;
        self.ctx_switches += other.ctx_switches;
        self.syscr += other.syscr;
        self.syscw += other.syscw;
    }

    fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

/// Every live thread's counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    threads: HashMap<u64, (Role, Usage)>,
}

/// Per-role usage between two samples. A thread absent from the
/// earlier sample counts from zero; one absent from the later sample
/// (it exited in between) is lost, so samples bracket phases in which
/// the server's threads stay alive.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleUsage {
    /// The main thread.
    pub driver: Usage,
    /// `distctr-reactor`.
    pub reactor: Usage,
    /// `distctr-combine(r)`.
    pub combiner: Usage,
    /// Every other thread.
    pub other: Usage,
}

impl RoleUsage {
    /// The whole process.
    pub fn total(&self) -> Usage {
        let mut t = self.driver;
        t.add(self.reactor);
        t.add(self.combiner);
        t.add(self.other);
        t
    }

    /// Adds another interval's usage.
    pub fn add(&mut self, other: &RoleUsage) {
        self.driver.add(other.driver);
        self.reactor.add(other.reactor);
        self.combiner.add(other.combiner);
        self.other.add(other.other);
    }

    fn slot(&mut self, role: Role) -> &mut Usage {
        match role {
            Role::Driver => &mut self.driver,
            Role::Reactor => &mut self.reactor,
            Role::Combiner => &mut self.combiner,
            Role::Other => &mut self.other,
        }
    }
}

/// Reads every thread of this process.
pub fn sample() -> Sample {
    // A running thread's `schedstat` runtime is brought up to date only
    // when the scheduler runs; yielding settles the caller's own figure
    // instead of leaving it up to a tick behind.
    std::thread::yield_now();
    let pid = u64::from(std::process::id());
    let mut threads = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return Sample { threads } };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = entry.path();
        let read = |file: &str| std::fs::read_to_string(path.join(file)).unwrap_or_default();
        let comm = read("comm");
        let role = if tid == pid {
            Role::Driver
        } else if comm.trim_end() == "distctr-reactor" {
            Role::Reactor
        } else if comm.starts_with("distctr-combine") {
            Role::Combiner
        } else {
            Role::Other
        };
        let cpu_ns =
            read("schedstat").split_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0);
        let status = read("status");
        let io = read("io");
        let usage = Usage {
            cpu_ns,
            ctx_switches: field(&status, "voluntary_ctxt_switches:")
                + field(&status, "nonvoluntary_ctxt_switches:"),
            syscr: field(&io, "syscr:"),
            syscw: field(&io, "syscw:"),
        };
        threads.insert(tid, (role, usage));
    }
    Sample { threads }
}

/// The value after `key` on the line that starts with it, or 0.
fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Per-role usage from `before` to `after`.
pub fn between(before: &Sample, after: &Sample) -> RoleUsage {
    let mut out = RoleUsage::default();
    for (tid, &(role, usage)) in &after.threads {
        let earlier = before.threads.get(tid).map_or(Usage::default(), |&(_, u)| u);
        out.slot(role).add(usage.since(earlier));
    }
    out
}

/// Process peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}
