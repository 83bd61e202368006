//! Timing models: cost a recorded [`Trace`] on a CPU or on accelerator
//! functional units behind the shared AXI port.
//!
//! The models are deliberately architectural rather than RTL-exact: they
//! reproduce the *relationships* the paper's evaluation rests on —
//!
//! * the interconnect moves one beat per cycle, shared by everyone, so
//!   memory-bound accelerators saturate and extra parallelism stops paying
//!   (Figures 7, 11);
//! * accelerators have no cache, so latency-bound kernels lose to the CPU
//!   (Figure 10 c, i);
//! * the CapChecker is a pipelined unit: it adds latency per request but no
//!   throughput loss, plus a fixed MMIO capability-installation cost at
//!   task start (Figure 8's md_knn outlier);
//! * the CHERI CPU pays a small per-access cost but moves 16 bytes per
//!   copy instruction (gemm_blocked runs *faster* on `ccpu`, Figure 10 g).

use crate::ids::Cycles;
use crate::trace::{Trace, TraceOp};
use obs::{EventKind, NullProfiler, NullTracer, Profiler, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A set-associative data cache (LRU within a set; 1 way = direct-mapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size: 16 * 1024,
            line: 64,
            ways: 1,
        }
    }
}

impl CacheConfig {
    /// A direct-mapped cache of the given size.
    #[must_use]
    pub fn direct_mapped(size: u64, line: u64) -> CacheConfig {
        CacheConfig {
            size,
            line,
            ways: 1,
        }
    }
}

/// Extra costs of the CHERI-extended CPU (`ccpu`) relative to `cpu`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheriCpuCost {
    /// Average extra cycles per memory operation (capability register
    /// management and wider spills; bounds checks themselves are parallel
    /// and free).
    pub per_mem_op_extra: f64,
    /// Multiplier on compute cycles: capability-manipulation instructions
    /// interleaved with the data path cost a small percentage of dynamic
    /// instructions (the 1–5% `cpu`→`ccpu` gap of Figure 10).
    pub compute_factor: f64,
    /// Bytes moved per copy instruction: 16 with the capability-copy
    /// instruction versus 8 on plain RV64.
    pub copy_width: u64,
    /// One-time cost of installing the compartment's capability registers.
    pub setup_cycles: Cycles,
}

impl Default for CheriCpuCost {
    fn default() -> CheriCpuCost {
        CheriCpuCost {
            per_mem_op_extra: 0.04,
            compute_factor: 1.02,
            copy_width: 16,
            setup_cycles: 50,
        }
    }
}

/// Timing parameters for the scalar CPU model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTiming {
    /// Cycles per data-path work unit (scalar CPI for the kernel's ops).
    pub cycles_per_unit: f64,
    /// Cycles to issue a memory access that hits in the L1.
    pub issue_cycles: f64,
    /// Extra cycles on an L1 miss (memory + interconnect round trip).
    pub miss_latency: Cycles,
    /// The L1 data cache; `None` models an uncached core.
    pub cache: Option<CacheConfig>,
    /// `Some` for the CHERI-extended CPU.
    pub cheri: Option<CheriCpuCost>,
}

impl Default for CpuTiming {
    fn default() -> CpuTiming {
        CpuTiming {
            cycles_per_unit: 1.0,
            issue_cycles: 1.0,
            miss_latency: 30,
            cache: Some(CacheConfig::default()),
            cheri: None,
        }
    }
}

impl CpuTiming {
    /// The same core with the CHERI extensions enabled.
    #[must_use]
    pub fn with_cheri(mut self) -> CpuTiming {
        self.cheri = Some(CheriCpuCost::default());
        self
    }
}

/// Result of costing a trace on the CPU model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuReport {
    /// Total execution time.
    pub cycles: Cycles,
    /// Memory operations issued (copies expanded).
    pub mem_ops: u64,
    /// L1 hits.
    pub hits: u64,
    /// L1 misses.
    pub misses: u64,
}

#[derive(Debug)]
struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `sets × ways` tags; within a set, index 0 is least recently used.
    tags: Vec<u64>,
    /// The line of the previous access — streaming kernels touch the same
    /// line for many consecutive operations, and a repeat access is a hit
    /// that leaves the LRU state untouched (the line is already in the
    /// most-recently-used position, so the rotate is the identity). This
    /// memo skips the set lookup entirely on that path.
    last_line: Option<u64>,
}

impl Cache {
    fn new(cfg: CacheConfig) -> Cache {
        let ways = cfg.ways.max(1) as usize;
        let lines = (cfg.size / cfg.line).max(1) as usize;
        let sets = (lines / ways).max(1);
        Cache {
            cfg,
            sets,
            tags: vec![u64::MAX; sets * ways],
            last_line: None,
        }
    }

    /// Returns `true` on hit; fills the line (LRU eviction) otherwise.
    fn access(&mut self, addr: u64) -> bool {
        let ways = self.cfg.ways.max(1) as usize;
        let line_no = addr / self.cfg.line;
        if self.last_line == Some(line_no) {
            return true;
        }
        self.last_line = Some(line_no);
        let set = (line_no % self.sets as u64) as usize;
        let slice = &mut self.tags[set * ways..(set + 1) * ways];
        if let Some(pos) = slice.iter().position(|t| *t == line_no) {
            // Move to most-recently-used position.
            slice[pos..].rotate_left(1);
            true
        } else {
            slice.rotate_left(1);
            slice[ways - 1] = line_no;
            false
        }
    }
}

/// Costs `trace` on the sequential CPU model.
#[must_use]
pub fn simulate_cpu(trace: &Trace, cfg: &CpuTiming) -> CpuReport {
    simulate_cpu_prof(trace, cfg, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_cpu`] observed: every L1 lookup is recorded on `tracer` as
/// a cycle-stamped event, and the run's cycles are attributed to profiler
/// spans: `cpu/{setup,compute,issue,miss_stall}` partitions the total
/// (child sums are truncated, so attribution never exceeds the report),
/// and each access's cost lands in the `cpu.access_cycles` histogram.
/// Every cost attributed here derives from simulated quantities only, so
/// the profile is deterministic. The plain entry point calls this with a
/// [`NullTracer`] and a [`NullProfiler`] — one code path, cycle counts
/// cannot diverge.
#[must_use]
pub fn simulate_cpu_prof(
    trace: &Trace,
    cfg: &CpuTiming,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> CpuReport {
    let profiling = prof.enabled();
    let mut cache = cfg.cache.map(Cache::new);
    let mut cycles = 0.0f64;
    let mut report = CpuReport::default();
    let per_op_extra = cfg.cheri.map_or(0.0, |c| c.per_mem_op_extra);
    let compute_factor = cfg.cheri.map_or(1.0, |c| c.compute_factor);
    if let Some(ch) = &cfg.cheri {
        cycles += ch.setup_cycles as f64;
    }

    let mut access = |addr: u64,
                      report: &mut CpuReport,
                      at: f64,
                      tracer: &mut dyn Tracer,
                      prof: &mut dyn Profiler|
     -> f64 {
        report.mem_ops += 1;
        let mut cost = cfg.issue_cycles + per_op_extra;
        match cache.as_mut() {
            Some(c) => {
                let hit = c.access(addr);
                if hit {
                    report.hits += 1;
                } else {
                    report.misses += 1;
                    cost += cfg.miss_latency as f64;
                }
                tracer.record(at as u64, EventKind::L1Access { hit });
            }
            None => cost += cfg.miss_latency as f64,
        }
        if profiling {
            prof.observe("cpu.access_cycles", cost as u64);
        }
        cost
    };

    for op in trace.ops() {
        match *op {
            TraceOp::Compute(units) => {
                cycles += units as f64 * cfg.cycles_per_unit * compute_factor
            }
            TraceOp::Mem { addr, .. } => cycles += access(addr, &mut report, cycles, tracer, prof),
            TraceOp::Copy { src, dst, bytes } => {
                // memcpy moves line-sized bursts: read a line's worth of
                // chunks, then write them (avoids pathological src/dst
                // alternation in the direct-mapped cache).
                let width = cfg.cheri.map_or(8, |c| c.copy_width).max(1);
                let burst = cfg.cache.map_or(64, |c| c.line).max(width);
                let mut at = 0u64;
                while at < bytes {
                    let span = burst.min(bytes - at);
                    for i in (0..span).step_by(width as usize) {
                        cycles += access(src + at + i, &mut report, cycles, tracer, prof);
                    }
                    for i in (0..span).step_by(width as usize) {
                        cycles += access(dst + at + i, &mut report, cycles, tracer, prof);
                    }
                    at += span;
                }
            }
        }
    }
    report.cycles = cycles.ceil() as Cycles;

    if profiling {
        // Reconstruct the exact partition from the run's own counts: the
        // total is setup + compute + per-access issue + miss stalls, so
        // compute falls out as the remainder. Truncating each share keeps
        // the attributed sum at or below the reported total.
        let setup = cfg.cheri.map_or(0.0, |c| c.setup_cycles as f64);
        let issue = report.mem_ops as f64 * (cfg.issue_cycles + per_op_extra);
        let stalled = if cfg.cache.is_some() {
            report.misses
        } else {
            report.mem_ops
        };
        let miss_stall = stalled as f64 * cfg.miss_latency as f64;
        let compute = (cycles - setup - issue - miss_stall).max(0.0);
        prof.enter("cpu");
        for (name, share) in [
            ("setup", setup),
            ("compute", compute),
            ("issue", issue),
            ("miss_stall", miss_stall),
        ] {
            prof.enter(name);
            prof.add_cycles(share as u64);
            prof.exit();
        }
        prof.exit();
    }
    report
}

/// Timing parameters for one accelerator task's functional unit.
///
/// These are the knobs HLS fixes when it builds the accelerator: how many
/// parallel lanes the datapath has, how many operations each lane retires
/// per cycle once its pipeline fills, and how many memory requests a lane
/// keeps in flight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccelTimingConfig {
    /// Parallel datapath lanes (loop unroll × FU duplication).
    pub lanes: u32,
    /// Work units retired per lane per cycle (pipelining depth).
    pub compute_per_cycle: f64,
    /// Outstanding memory requests per lane (no cache: this is all the
    /// latency tolerance the accelerator has).
    pub outstanding: u32,
}

impl Default for AccelTimingConfig {
    fn default() -> AccelTimingConfig {
        AccelTimingConfig {
            lanes: 4,
            compute_per_cycle: 4.0,
            outstanding: 4,
        }
    }
}

/// Shared memory-path parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Bytes moved per interconnect beat (AXI data width).
    pub beat_bytes: u64,
    /// Memory access latency in cycles (request to data).
    pub mem_latency: Cycles,
    /// Extra pipelined latency added by a checker on the path (0 = none).
    pub checker_latency: Cycles,
    /// Deterministic interconnect faults (default: healthy).
    pub faults: crate::bus::BusFaultConfig,
}

impl Default for BusConfig {
    fn default() -> BusConfig {
        BusConfig {
            beat_bytes: 8,
            mem_latency: 30,
            checker_latency: 0,
            faults: crate::bus::BusFaultConfig::healthy(),
        }
    }
}

impl BusConfig {
    /// The same bus with a CapChecker of the given pipeline depth inserted.
    #[must_use]
    pub fn with_checker(mut self, latency: Cycles) -> BusConfig {
        self.checker_latency = latency;
        self
    }

    /// The same bus with an interconnect fault model armed.
    #[must_use]
    pub fn with_faults(mut self, faults: crate::bus::BusFaultConfig) -> BusConfig {
        self.faults = faults;
        self
    }

    fn beats(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.beat_bytes).max(1)
    }
}

/// One accelerator task to run: its trace, its FU configuration, and the
/// cycle at which it may start issuing (driver setup cost).
#[derive(Clone, Debug)]
pub struct AccelTask<'a> {
    /// The work to perform.
    pub trace: &'a Trace,
    /// The FU's timing configuration.
    pub cfg: AccelTimingConfig,
    /// Start time: capability-installation and control-register setup.
    pub start: Cycles,
}

/// Result of simulating a set of accelerator tasks on the shared bus.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccelReport {
    /// Completion cycle of each task (same order as the input).
    pub per_task: Vec<Cycles>,
    /// Cycle at which the last task finished.
    pub makespan: Cycles,
    /// Total interconnect beats consumed.
    pub bus_beats: u64,
    /// Fraction of the makespan the bus was busy (contention indicator).
    pub bus_utilization: f64,
}

#[derive(Debug)]
struct Lane {
    task: usize,
    ops: Vec<TraceOp>,
    next: usize,
    time: f64,
    inflight: VecDeque<f64>,
    cfg: AccelTimingConfig,
}

/// A totally ordered f64 for the event heap (times are never NaN).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct Time(f64);
impl Eq for Time {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Time {
    fn cmp(&self, other: &Time) -> std::cmp::Ordering {
        self.partial_cmp(other)
            // lint: allow(panic-in-hot-path) — Time is built from finite sums
            .expect("simulation times are never NaN")
    }
}

/// Splits a task's trace across `n` datapath lanes: compute work divides
/// evenly (unrolled loop bodies), memory operations round-robin. Shared
/// by the event-driven model and the cycle-accurate validator.
pub(crate) fn distribute_over_lanes(trace: &Trace, n: usize) -> Vec<Vec<TraceOp>> {
    let mut per_lane: Vec<Vec<TraceOp>> = vec![Vec::new(); n.max(1)];
    let n = per_lane.len();
    let push_compute = |lane: &mut Vec<TraceOp>, units: u64| {
        if units == 0 {
            return;
        }
        if let Some(TraceOp::Compute(prev)) = lane.last_mut() {
            *prev += units;
        } else {
            lane.push(TraceOp::Compute(units));
        }
    };
    let mut mem_rr = 0usize;
    for op in trace.ops() {
        match *op {
            TraceOp::Compute(units) => {
                let share = units / n as u64;
                let rem = (units % n as u64) as usize;
                for (j, lane) in per_lane.iter_mut().enumerate() {
                    push_compute(lane, share + u64::from(j < rem));
                }
            }
            mem_op => {
                per_lane[mem_rr % n].push(mem_op);
                mem_rr += 1;
            }
        }
    }
    per_lane
}

/// Simulates `tasks` running concurrently on the shared memory path.
///
/// Each task's operations are distributed round-robin over its lanes; each
/// lane issues in order, limited by its outstanding-request window; all
/// lanes of all tasks contend for the single one-beat-per-cycle port in
/// ready-time order (FCFS — the AXI arbiter of the prototype).
#[must_use]
pub fn simulate_accel_system(tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    simulate_accel_system_prof(tasks, bus, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_accel_system`] observed: task start/end and every bus
/// grant are recorded on `tracer` as cycle-stamped events, and the
/// makespan is attributed to profiler spans. The partition is exact:
/// `accel/setup` is the earliest task start,
/// `accel/execute/bus_busy` is the beats the one-beat-per-cycle port
/// moved (each beat occupies a distinct port cycle after setup), and
/// `accel/execute/bus_idle` is the remainder — the three sum to the
/// makespan (`bus_idle` is exactly the idle the event wheel jumps over
/// without stepping). Per-request arbitration waits and burst lengths
/// land in the `accel.req_wait` / `accel.req_beats` histograms, and each
/// task's start-to-done duration in `accel.task_cycles`. All attributed
/// quantities are simulated, so the profile is deterministic. The plain
/// entry point calls this with a [`NullTracer`] and a [`NullProfiler`] —
/// one code path, timing cannot diverge.
///
/// This is the event-wheel core: lanes are compact cursors over
/// pre-folded `(compute, beats)` entries, the next lane to run is the
/// argmin of the per-lane next-event times, and a granted lane keeps
/// running inline while no other lane is scheduled earlier. It performs
/// the same floating-point operations in the same order as
/// [`simulate_accel_system_naive`], so results are cycle-for-cycle (in
/// fact bit-for-bit) identical — the test suite and the CI perf-smoke
/// job pin that equivalence.
#[must_use]
pub fn simulate_accel_system_prof(
    tasks: &[AccelTask<'_>],
    bus: &BusConfig,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    // Monomorphize the wheel over its observers: the common benchmark
    // path (no tracer, no profiler) compiles to a loop with no virtual
    // calls at all.
    match (tracer.enabled(), prof.enabled()) {
        (false, false) => run_wheel::<false, false>(tasks, bus, tracer, prof),
        (true, false) => run_wheel::<true, false>(tasks, bus, tracer, prof),
        (false, true) => run_wheel::<false, true>(tasks, bus, tracer, prof),
        (true, true) => run_wheel::<true, true>(tasks, bus, tracer, prof),
    }
}

/// One lane memory operation in the form the event wheel walks: the
/// compute *cycles* the lane retires since its previous own memory op,
/// and the healthy-bus beats of the transfer. The cycles are the single
/// `units as f64 / compute_per_cycle` division [`distribute_over_lanes`]'
/// coalescing implies — performed once at build time with the identical
/// operands, so hoisting it out of the wheel loop cannot change a bit
/// (zero units fold to `+0.0`, and `t + 0.0 == t` for the non-negative
/// times the wheel advances).
#[derive(Clone, Copy, Debug, Default)]
struct LaneEntry {
    pre_cycles: f64,
    base_beats: u64,
}

/// Per-lane cursor state of the event wheel. The whole struct is plain
/// scalars: entries live in one shared arena (sequential reads), and the
/// outstanding-request window is a fixed ring in a second arena instead
/// of a `VecDeque` per lane.
#[derive(Clone, Copy, Debug)]
struct WheelLane {
    task: u32,
    cursor: usize,
    end: usize,
    tail_units: u64,
    cpc: f64,
    window: u32,
    ring_start: usize,
    ring_head: u32,
    ring_len: u32,
}

struct Wheel {
    entries: Vec<LaneEntry>,
    lanes: Vec<WheelLane>,
    /// Next-event time per lane; `f64::INFINITY` once the lane finished.
    when: Vec<f64>,
    ring: Vec<f64>,
}

// Retired entry arenas, reused by [`build_wheel`]. A long trace folds to
// megabytes of [`LaneEntry`]s; faulting that arena in fresh on every
// simulation call costs more than filling it, so the buffer is parked
// per thread between runs (contents are fully rewritten each build).
thread_local! {
    static ENTRY_POOL: std::cell::RefCell<Vec<LaneEntry>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Drop for Wheel {
    fn drop(&mut self) {
        if self.entries.capacity() < 4096 {
            return;
        }
        let mut entries = std::mem::take(&mut self.entries);
        ENTRY_POOL.with(|pool| {
            let mut parked = pool.borrow_mut();
            if entries.capacity() > parked.capacity() {
                entries.clear();
                *parked = entries;
            }
        });
    }
}

/// Folds every task's trace into the wheel's compact per-lane arrays —
/// the lazy-cursor equivalent of [`distribute_over_lanes`] (same lane
/// numbering, same round-robin, same compute coalescing), minus the
/// per-lane `Vec<TraceOp>` materialization.
fn build_wheel(tasks: &[AccelTask<'_>], bus: &BusConfig) -> Wheel {
    let mut lanes: Vec<WheelLane> = Vec::new();
    let mut when: Vec<f64> = Vec::new();
    let mut total_entries = 0usize;
    let mut total_ring = 0usize;
    for (t_idx, task) in tasks.iter().enumerate() {
        let n = task.cfg.lanes.max(1) as usize;
        let mem_ops = task.trace.mem_ops() as usize;
        let window = task.cfg.outstanding.max(1) as usize;
        for j in 0..n {
            // Round-robin: lane j owns mem ops j, j+n, j+2n, …
            let count = mem_ops / n + usize::from(j < mem_ops % n);
            lanes.push(WheelLane {
                task: t_idx as u32,
                cursor: total_entries,
                end: total_entries + count,
                tail_units: 0,
                cpc: task.cfg.compute_per_cycle.max(1e-9),
                window: window as u32,
                ring_start: total_ring,
                ring_head: 0,
                ring_len: 0,
            });
            when.push(task.start as f64);
            total_entries += count;
            total_ring += window;
        }
    }
    let mut entries = ENTRY_POOL.with(|pool| std::mem::take(&mut *pool.borrow_mut()));
    entries.clear();
    entries.resize(total_entries, LaneEntry::default());
    let mut lane_base = 0usize;
    for task in tasks {
        let n = task.cfg.lanes.max(1) as usize;
        let cpc = task.cfg.compute_per_cycle.max(1e-9);
        let mut pending: Vec<u64> = vec![0; n];
        let mut cursors: Vec<usize> = (0..n).map(|j| lanes[lane_base + j].cursor).collect();
        let mut mem_rr = 0usize;
        for op in task.trace.ops() {
            let beats = match *op {
                TraceOp::Compute(units) => {
                    // Compute divides evenly, remainder to the low lanes —
                    // accumulated, matching `push_compute`'s coalescing.
                    let share = units / n as u64;
                    let rem = (units % n as u64) as usize;
                    for (j, p) in pending.iter_mut().enumerate() {
                        *p += share + u64::from(j < rem);
                    }
                    continue;
                }
                TraceOp::Mem { bytes, .. } => bus.beats(u64::from(bytes)),
                TraceOp::Copy { bytes, .. } => 2 * bus.beats(bytes),
            };
            let j = mem_rr % n;
            entries[cursors[j]] = LaneEntry {
                pre_cycles: if pending[j] != 0 {
                    pending[j] as f64 / cpc
                } else {
                    0.0
                },
                base_beats: beats,
            };
            cursors[j] += 1;
            pending[j] = 0;
            mem_rr += 1;
        }
        for (j, p) in pending.into_iter().enumerate() {
            lanes[lane_base + j].tail_units = p;
        }
        lane_base += n;
    }
    Wheel {
        entries,
        lanes,
        when,
        ring: vec![0.0; total_ring],
    }
}

/// The event-wheel loop. `TRACING`/`PROFILING` mirror
/// `tracer.enabled()` / `prof.enabled()`; monomorphizing on them keeps
/// the benchmark path free of per-op virtual calls while the observed
/// paths stay the same code, so observers can never perturb timing.
fn run_wheel<const TRACING: bool, const PROFILING: bool>(
    tasks: &[AccelTask<'_>],
    bus: &BusConfig,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    let mut wheel = build_wheel(tasks, bus);
    let latency = (bus.mem_latency + bus.checker_latency) as f64;
    let mut bus_free = 0.0f64;
    let mut bus_beats = 0u64;
    let mut grants = 0u64;
    let mut per_task: Vec<Cycles> = tasks.iter().map(|t| t.start).collect();

    if TRACING {
        for (t_idx, task) in tasks.iter().enumerate() {
            tracer.record(task.start, EventKind::TaskStart { task: t_idx as u32 });
        }
    }

    let mut remaining = wheel.lanes.len();
    while remaining > 0 {
        // Next event: the earliest (time, lane) pair, plus the runner-up
        // that bounds how long the winner may keep running inline. The
        // strict `<` keeps the lowest index on ties — the same order the
        // reference heap's `(Time, usize)` keys produce.
        let mut li = 0usize;
        let mut best = f64::INFINITY;
        let mut other = (f64::INFINITY, usize::MAX);
        for (i, &t) in wheel.when.iter().enumerate() {
            if t < best {
                other = (best, li);
                best = t;
                li = i;
            } else if t < other.0 {
                other = (t, i);
            }
        }
        let mut lane = wheel.lanes[li];
        let task_idx = lane.task as usize;
        let window = lane.window as usize;
        let mut t = wheel.when[li];
        loop {
            if lane.cursor == lane.end {
                // Lane finished issuing: retire its tail compute, then
                // wait for its in-flight requests.
                if lane.tail_units != 0 {
                    t += lane.tail_units as f64 / lane.cpc;
                }
                let drain = if lane.ring_len > 0 {
                    let back = (lane.ring_head + lane.ring_len - 1) as usize % window;
                    wheel.ring[lane.ring_start + back]
                } else {
                    t
                };
                let done = t.max(drain).ceil() as Cycles;
                per_task[task_idx] = per_task[task_idx].max(done);
                wheel.when[li] = f64::INFINITY;
                remaining -= 1;
                break;
            }
            let e = wheel.entries[lane.cursor];
            lane.cursor += 1;
            t += e.pre_cycles;
            let mut beats = e.base_beats;
            grants += 1;
            // Interconnect faults: a dropped transfer retransmits (double
            // occupancy); a stalled grant waits out the arbiter. Both are
            // counter-periodic, so reproducible.
            if bus.faults.drops(grants) {
                beats *= 2;
            }
            let stall = bus.faults.stall_for(grants) as f64;
            let mut ready = t;
            if lane.ring_len as usize >= window {
                ready = ready.max(wheel.ring[lane.ring_start + lane.ring_head as usize]);
                lane.ring_head = ((lane.ring_head as usize + 1) % window) as u32;
                lane.ring_len -= 1;
            }
            let grant = ready.max(bus_free) + stall;
            if TRACING {
                tracer.record(
                    grant as u64,
                    EventKind::BusGrant {
                        lane: li as u32,
                        task: lane.task,
                        beats,
                        waited: (grant - ready) as u64,
                    },
                );
            }
            if PROFILING {
                prof.observe("accel.req_wait", (grant - ready) as u64);
                prof.observe("accel.req_beats", beats);
            }
            bus_free = grant + beats as f64;
            bus_beats += beats;
            let slot = (lane.ring_head as usize + lane.ring_len as usize) % window;
            wheel.ring[lane.ring_start + slot] = grant + beats as f64 + latency;
            lane.ring_len += 1;
            t = grant + beats as f64;
            // The wheel's monotonic jump: time advances straight to this
            // lane's next grant as long as no other lane has an earlier
            // event — idle port cycles are skipped, never stepped.
            if other.0 < t || (other.0 == t && other.1 < li) {
                wheel.when[li] = t;
                break;
            }
        }
        wheel.lanes[li] = lane;
    }

    if TRACING {
        for (t_idx, done) in per_task.iter().enumerate() {
            tracer.record(*done, EventKind::TaskEnd { task: t_idx as u32 });
        }
    }

    let makespan = per_task.iter().copied().max().unwrap_or(0);

    if PROFILING {
        for (t_idx, done) in per_task.iter().enumerate() {
            prof.observe("accel.task_cycles", done.saturating_sub(tasks[t_idx].start));
        }
        let setup = tasks.iter().map(|t| t.start).min().unwrap_or(0);
        let execute = makespan.saturating_sub(setup);
        // Every beat occupies a distinct cycle on the single port, and no
        // grant precedes the earliest start, so busy ≤ execute holds; the
        // min is belt-and-braces against a saturated fault model.
        let busy = bus_beats.min(execute);
        prof.enter("accel");
        prof.enter("setup");
        prof.add_cycles(setup);
        prof.exit();
        prof.enter("execute");
        prof.enter("bus_busy");
        prof.add_cycles(busy);
        prof.exit();
        prof.enter("bus_idle");
        prof.add_cycles(execute - busy);
        prof.exit();
        prof.exit();
        prof.exit();
    }

    AccelReport {
        per_task,
        makespan,
        bus_beats,
        bus_utilization: if makespan == 0 {
            0.0
        } else {
            bus_beats as f64 / makespan as f64
        },
    }
}

/// The retained stepping reference: the per-lane `Vec<TraceOp>`
/// materialization and binary-heap scheduler the event wheel replaced.
/// Kept callable (not test-only) because the CI perf-smoke job and the
/// conformance tests pin [`simulate_accel_system`] against it
/// cycle-for-cycle — the wheel performs the same floating-point
/// operations in the same order, so any divergence is a bug in the wheel.
#[must_use]
pub fn simulate_accel_system_naive(tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    simulate_accel_system_naive_prof(tasks, bus, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_accel_system_naive`] with the same tracer/profiler hooks as
/// the wheel — the full pre-wheel implementation, verbatim, so the
/// observed paths can be pinned too (`tests/wheel_props.rs` does).
#[must_use]
pub fn simulate_accel_system_naive_prof(
    tasks: &[AccelTask<'_>],
    bus: &BusConfig,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    let profiling = prof.enabled();
    let mut lanes: Vec<Lane> = Vec::new();
    for (t_idx, task) in tasks.iter().enumerate() {
        let n = task.cfg.lanes.max(1) as usize;
        for ops in distribute_over_lanes(task.trace, n) {
            lanes.push(Lane {
                task: t_idx,
                ops,
                next: 0,
                time: task.start as f64,
                inflight: VecDeque::new(),
                cfg: task.cfg,
            });
        }
    }

    let latency = (bus.mem_latency + bus.checker_latency) as f64;
    let mut bus_free = 0.0f64;
    let mut bus_beats = 0u64;
    let mut grants = 0u64;
    let mut per_task: Vec<Cycles> = tasks.iter().map(|t| t.start).collect();

    if tracer.enabled() {
        for (t_idx, task) in tasks.iter().enumerate() {
            tracer.record(task.start, EventKind::TaskStart { task: t_idx as u32 });
        }
    }

    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = lanes
        .iter()
        .enumerate()
        .map(|(i, l)| Reverse((Time(l.time), i)))
        .collect();

    while let Some(Reverse((_, li))) = heap.pop() {
        // Once popped, a lane keeps running inline for as long as no other
        // lane is scheduled earlier (heap-bypass fast path below).
        loop {
            let lane = &mut lanes[li];
            // Retire any compute leading up to the next memory operation.
            while let Some(TraceOp::Compute(units)) = lane.ops.get(lane.next) {
                lane.time += *units as f64 / lane.cfg.compute_per_cycle.max(1e-9);
                lane.next += 1;
            }
            match lane.ops.get(lane.next) {
                None => {
                    // Lane finished issuing: wait for its in-flight requests.
                    let drain = lane.inflight.back().copied().unwrap_or(lane.time);
                    let done = lane.time.max(drain).ceil() as Cycles;
                    per_task[lane.task] = per_task[lane.task].max(done);
                    break;
                }
                Some(&op) => {
                    let mut beats = match op {
                        TraceOp::Mem { bytes, .. } => bus.beats(u64::from(bytes)),
                        TraceOp::Copy { bytes, .. } => 2 * bus.beats(bytes),
                        TraceOp::Compute(_) => unreachable!("compute handled above"),
                    };
                    lane.next += 1;
                    grants += 1;
                    // Interconnect faults: a dropped transfer retransmits
                    // (double occupancy); a stalled grant waits out the
                    // arbiter. Both are counter-periodic, so reproducible.
                    if bus.faults.drops(grants) {
                        beats *= 2;
                    }
                    let stall = bus.faults.stall_for(grants) as f64;
                    let window = lane.cfg.outstanding.max(1) as usize;
                    let mut ready = lane.time;
                    if lane.inflight.len() >= window {
                        // lint: allow(panic-in-hot-path) — len >= window >= 1
                        ready = ready.max(lane.inflight.pop_front().expect("nonempty window"));
                    }
                    let grant = ready.max(bus_free) + stall;
                    if tracer.enabled() {
                        tracer.record(
                            grant as u64,
                            EventKind::BusGrant {
                                lane: li as u32,
                                task: lane.task as u32,
                                beats,
                                waited: (grant - ready) as u64,
                            },
                        );
                    }
                    if profiling {
                        prof.observe("accel.req_wait", (grant - ready) as u64);
                        prof.observe("accel.req_beats", beats);
                    }
                    bus_free = grant + beats as f64;
                    bus_beats += beats;
                    lane.inflight.push_back(grant + beats as f64 + latency);
                    lane.time = grant + beats as f64;
                    // Heap-bypass fast path: keys are unique ((time, lane)
                    // with each lane in the heap at most once), so when
                    // this lane's new key is smaller than the heap minimum
                    // — or the heap is empty — a push followed by a pop
                    // would hand the very same lane straight back.
                    // Continue it inline instead of paying two heap
                    // operations per contention-free memory op.
                    let key = (Time(lane.time), li);
                    match heap.peek() {
                        Some(Reverse(min)) if *min < key => {
                            heap.push(Reverse(key));
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    if tracer.enabled() {
        for (t_idx, done) in per_task.iter().enumerate() {
            tracer.record(*done, EventKind::TaskEnd { task: t_idx as u32 });
        }
    }

    let makespan = per_task.iter().copied().max().unwrap_or(0);

    if profiling {
        for (t_idx, done) in per_task.iter().enumerate() {
            prof.observe("accel.task_cycles", done.saturating_sub(tasks[t_idx].start));
        }
        let setup = tasks.iter().map(|t| t.start).min().unwrap_or(0);
        let execute = makespan.saturating_sub(setup);
        // Every beat occupies a distinct cycle on the single port, and no
        // grant precedes the earliest start, so busy ≤ execute holds; the
        // min is belt-and-braces against a saturated fault model.
        let busy = bus_beats.min(execute);
        prof.enter("accel");
        prof.enter("setup");
        prof.add_cycles(setup);
        prof.exit();
        prof.enter("execute");
        prof.enter("bus_busy");
        prof.add_cycles(busy);
        prof.exit();
        prof.enter("bus_idle");
        prof.add_cycles(execute - busy);
        prof.exit();
        prof.exit();
        prof.exit();
    }

    AccelReport {
        per_task,
        makespan,
        bus_beats,
        bus_utilization: if makespan == 0 {
            0.0
        } else {
            bus_beats as f64 / makespan as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(addr: u64) -> TraceOp {
        TraceOp::Mem {
            addr,
            bytes: 4,
            write: false,
            object: 0,
        }
    }

    fn compute_heavy_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceOp::Compute(100_000));
        t.push(mem(0));
        t
    }

    fn mem_heavy_trace() -> Trace {
        (0..10_000u64).map(|i| mem(i * 4096)).collect() // every access misses
    }

    #[test]
    fn cpu_compute_time_scales_with_cpi() {
        let t = compute_heavy_trace();
        let base = simulate_cpu(&t, &CpuTiming::default());
        let slow = simulate_cpu(
            &t,
            &CpuTiming {
                cycles_per_unit: 2.0,
                ..CpuTiming::default()
            },
        );
        assert!(slow.cycles > base.cycles * 3 / 2);
    }

    #[test]
    fn cpu_cache_captures_reuse() {
        let t: Trace = (0..1000u64).map(|i| mem((i % 8) * 4)).collect();
        let r = simulate_cpu(&t, &CpuTiming::default());
        assert!(r.hits > 990, "repeated addresses should hit: {r:?}");
        let uncached = simulate_cpu(
            &t,
            &CpuTiming {
                cache: None,
                ..CpuTiming::default()
            },
        );
        assert!(uncached.cycles > r.cycles * 5);
    }

    #[test]
    fn cheri_cpu_pays_per_op_but_wins_on_copies() {
        let mut loads: Trace = (0..10_000u64).map(|i| mem(i % 512 * 4)).collect();
        loads.push(TraceOp::Compute(100));
        let cpu = CpuTiming::default();
        let ccpu = CpuTiming::default().with_cheri();
        assert!(simulate_cpu(&loads, &ccpu).cycles > simulate_cpu(&loads, &cpu).cycles);

        let mut copies = Trace::new();
        copies.push(TraceOp::Copy {
            src: 0,
            dst: 1 << 20,
            bytes: 64 * 1024,
        });
        assert!(
            simulate_cpu(&copies, &ccpu).cycles < simulate_cpu(&copies, &cpu).cycles,
            "capability copy moves twice the bytes per instruction"
        );
    }

    #[test]
    fn bus_faults_slow_the_bus_deterministically() {
        let t = mem_heavy_trace();
        let task = |trace| AccelTask {
            trace,
            cfg: AccelTimingConfig::default(),
            start: 0,
        };
        let healthy = simulate_accel_system(&[task(&t)], &BusConfig::default());
        let faulty_bus = BusConfig::default().with_faults(crate::bus::BusFaultConfig {
            stall_every: 10,
            stall_cycles: 50,
            drop_every: 7,
        });
        let faulty = simulate_accel_system(&[task(&t)], &faulty_bus);
        assert!(
            faulty.makespan > healthy.makespan,
            "stalls and retransmissions must cost cycles"
        );
        assert!(
            faulty.bus_beats > healthy.bus_beats,
            "dropped beats are retransmitted"
        );
        // Same fault config, same result — counter-based, not random.
        let again = simulate_accel_system(&[task(&t)], &faulty_bus);
        assert_eq!(faulty, again);
    }

    #[test]
    fn accel_parallelism_speeds_up_compute() {
        let t = compute_heavy_trace();
        let bus = BusConfig::default();
        let narrow = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 4,
            },
            start: 0,
        };
        let wide = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 8,
                compute_per_cycle: 4.0,
                outstanding: 4,
            },
            start: 0,
        };
        let slow = simulate_accel_system(&[narrow], &bus);
        let fast = simulate_accel_system(&[wide], &bus);
        assert!(slow.makespan > fast.makespan * 4);
    }

    #[test]
    fn shared_bus_serializes_memory_bound_tasks() {
        let t = mem_heavy_trace();
        let bus = BusConfig::default();
        let mk = |_| AccelTask {
            trace: &t,
            cfg: AccelTimingConfig::default(),
            start: 0,
        };
        let one = simulate_accel_system(&[mk(0)], &bus);
        let four: Vec<_> = (0..4).map(mk).collect();
        let four = simulate_accel_system(&four, &bus);
        // Four copies of the same memory-bound work cannot finish in much
        // less than four times the bus beats.
        assert!(four.makespan as f64 > one.makespan as f64 * 1.5);
        assert!(four.bus_utilization > one.bus_utilization);
    }

    #[test]
    fn checker_latency_is_small_for_pipelined_streams() {
        let t = mem_heavy_trace();
        let plain = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &BusConfig::default(),
        );
        let checked = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &BusConfig::default().with_checker(2),
        );
        assert!(checked.makespan >= plain.makespan);
        let overhead = (checked.makespan - plain.makespan) as f64 / plain.makespan as f64;
        assert!(
            overhead < 0.10,
            "pipelined checker must stay cheap, got {overhead}"
        );
    }

    #[test]
    fn start_offset_delays_completion() {
        let t = compute_heavy_trace();
        let bus = BusConfig::default();
        let a = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &bus,
        );
        let b = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 1000,
            }],
            &bus,
        );
        assert_eq!(b.makespan, a.makespan + 1000);
    }

    #[test]
    fn empty_task_finishes_at_start() {
        let t = Trace::new();
        let r = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 7,
            }],
            &BusConfig::default(),
        );
        assert_eq!(r.per_task, vec![7]);
    }

    /// The pre-memo LRU cache, kept verbatim as the reference the
    /// memoized [`Cache`] must match access-for-access.
    struct RefCache {
        cfg: CacheConfig,
        sets: usize,
        tags: Vec<u64>,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> RefCache {
            let ways = cfg.ways.max(1) as usize;
            let lines = (cfg.size / cfg.line).max(1) as usize;
            let sets = (lines / ways).max(1);
            RefCache {
                cfg,
                sets,
                tags: vec![u64::MAX; sets * ways],
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let ways = self.cfg.ways.max(1) as usize;
            let line_no = addr / self.cfg.line;
            let set = (line_no % self.sets as u64) as usize;
            let slice = &mut self.tags[set * ways..(set + 1) * ways];
            if let Some(pos) = slice.iter().position(|t| *t == line_no) {
                slice[pos..].rotate_left(1);
                true
            } else {
                slice.rotate_left(1);
                slice[ways - 1] = line_no;
                false
            }
        }
    }

    #[test]
    fn l1_memo_matches_reference_lru_access_for_access() {
        for ways in [1u32, 2, 4] {
            let cfg = CacheConfig {
                size: 2048,
                line: 64,
                ways,
            };
            let mut memoized = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            // Deterministic xorshift stream with repeat runs (the memo's
            // fast path) interleaved with conflicting strides.
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % 16_384;
                for _ in 0..=(x % 4) {
                    assert_eq!(
                        memoized.access(addr),
                        reference.access(addr),
                        "divergence at addr {addr:#x}, ways {ways}"
                    );
                }
            }
        }
    }

    /// The pre-bypass event loop, kept verbatim: every memory op pays a
    /// heap push + pop. The shipping loop's heap bypass must be
    /// cycle-for-cycle identical to this.
    fn simulate_accel_naive(tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
        let mut lanes: Vec<Lane> = Vec::new();
        for (t_idx, task) in tasks.iter().enumerate() {
            let n = task.cfg.lanes.max(1) as usize;
            for ops in distribute_over_lanes(task.trace, n) {
                lanes.push(Lane {
                    task: t_idx,
                    ops,
                    next: 0,
                    time: task.start as f64,
                    inflight: VecDeque::new(),
                    cfg: task.cfg,
                });
            }
        }
        let latency = (bus.mem_latency + bus.checker_latency) as f64;
        let mut bus_free = 0.0f64;
        let mut bus_beats = 0u64;
        let mut grants = 0u64;
        let mut per_task: Vec<Cycles> = tasks.iter().map(|t| t.start).collect();
        let mut heap: BinaryHeap<Reverse<(Time, usize)>> = lanes
            .iter()
            .enumerate()
            .map(|(i, l)| Reverse((Time(l.time), i)))
            .collect();
        while let Some(Reverse((_, li))) = heap.pop() {
            let lane = &mut lanes[li];
            while let Some(TraceOp::Compute(units)) = lane.ops.get(lane.next) {
                lane.time += *units as f64 / lane.cfg.compute_per_cycle.max(1e-9);
                lane.next += 1;
            }
            match lane.ops.get(lane.next) {
                None => {
                    let drain = lane.inflight.back().copied().unwrap_or(lane.time);
                    let done = lane.time.max(drain).ceil() as Cycles;
                    per_task[lane.task] = per_task[lane.task].max(done);
                }
                Some(&op) => {
                    let mut beats = match op {
                        TraceOp::Mem { bytes, .. } => bus.beats(u64::from(bytes)),
                        TraceOp::Copy { bytes, .. } => 2 * bus.beats(bytes),
                        TraceOp::Compute(_) => unreachable!("compute handled above"),
                    };
                    lane.next += 1;
                    grants += 1;
                    if bus.faults.drops(grants) {
                        beats *= 2;
                    }
                    let stall = bus.faults.stall_for(grants) as f64;
                    let window = lane.cfg.outstanding.max(1) as usize;
                    let mut ready = lane.time;
                    if lane.inflight.len() >= window {
                        ready = ready.max(lane.inflight.pop_front().expect("nonempty window"));
                    }
                    let grant = ready.max(bus_free) + stall;
                    bus_free = grant + beats as f64;
                    bus_beats += beats;
                    lane.inflight.push_back(grant + beats as f64 + latency);
                    lane.time = grant + beats as f64;
                    heap.push(Reverse((Time(lane.time), li)));
                }
            }
        }
        let makespan = per_task.iter().copied().max().unwrap_or(0);
        AccelReport {
            per_task,
            makespan,
            bus_beats,
            bus_utilization: if makespan == 0 {
                0.0
            } else {
                bus_beats as f64 / makespan as f64
            },
        }
    }

    #[test]
    fn heap_bypass_is_cycle_for_cycle_identical_to_naive_loop() {
        let single = mem_heavy_trace();
        let mixed: Trace = (0..2_000u64)
            .flat_map(|i| {
                [
                    TraceOp::Compute(7),
                    TraceOp::Mem {
                        addr: i * 64,
                        bytes: 4,
                        write: i % 3 == 0,
                        object: 0,
                    },
                ]
            })
            .collect();
        let faulty = BusConfig::default().with_faults(crate::bus::BusFaultConfig {
            stall_every: 10,
            stall_cycles: 50,
            drop_every: 7,
        });
        let systems: Vec<(Vec<AccelTask<'_>>, BusConfig)> = vec![
            (
                vec![AccelTask {
                    trace: &single,
                    cfg: AccelTimingConfig::default(),
                    start: 0,
                }],
                BusConfig::default(),
            ),
            (
                (0..4)
                    .map(|i| AccelTask {
                        trace: if i % 2 == 0 { &single } else { &mixed },
                        cfg: AccelTimingConfig {
                            lanes: 1 + i,
                            compute_per_cycle: 2.0,
                            outstanding: 1 + i,
                        },
                        start: u64::from(i) * 100,
                    })
                    .collect(),
                BusConfig::default().with_checker(2),
            ),
            (
                vec![AccelTask {
                    trace: &mixed,
                    cfg: AccelTimingConfig::default(),
                    start: 0,
                }],
                faulty,
            ),
        ];
        for (tasks, bus) in systems {
            assert_eq!(
                simulate_accel_system(&tasks, &bus),
                simulate_accel_naive(&tasks, &bus),
                "bypass diverged on a {}-task system",
                tasks.len()
            );
        }
    }

    #[test]
    fn cpu_profiled_run_is_cycle_identical_and_well_attributed() {
        use obs::SpanProfiler;
        for cfg in [
            CpuTiming::default(),
            CpuTiming::default().with_cheri(),
            CpuTiming {
                cache: None,
                ..CpuTiming::default()
            },
        ] {
            let t: Trace = (0..5_000u64)
                .flat_map(|i| [TraceOp::Compute(3), mem(i * 128)])
                .collect();
            let plain = simulate_cpu(&t, &cfg);
            let mut prof = SpanProfiler::new();
            let profiled = simulate_cpu_prof(&t, &cfg, &mut NullTracer, &mut prof);
            assert_eq!(plain, profiled, "profiling must not change the report");
            let snap = prof.snapshot();
            let attributed = snap.attributed_cycles();
            assert!(attributed <= plain.cycles, "never over-attribute");
            assert!(
                attributed * 100 >= plain.cycles * 95,
                "span partition covers the run: {attributed} of {}",
                plain.cycles
            );
            assert_eq!(
                snap.metrics.histograms["cpu.access_cycles"].count,
                plain.mem_ops
            );
        }
    }

    #[test]
    fn accel_profiled_run_is_cycle_identical_and_attribution_is_exact() {
        use obs::SpanProfiler;
        let t = mem_heavy_trace();
        let tasks: Vec<AccelTask<'_>> = (0..3u64)
            .map(|i| AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: i * 200,
            })
            .collect();
        let bus = BusConfig::default().with_checker(2);
        let plain = simulate_accel_system(&tasks, &bus);
        let mut prof = SpanProfiler::new();
        let profiled = simulate_accel_system_prof(&tasks, &bus, &mut NullTracer, &mut prof);
        assert_eq!(plain, profiled, "profiling must not change the report");
        let snap = prof.snapshot();
        // setup + bus_busy + bus_idle is an exact partition of the makespan.
        assert_eq!(snap.attributed_cycles(), plain.makespan);
        let hists = &snap.metrics.histograms;
        assert_eq!(hists["accel.task_cycles"].count, tasks.len() as u64);
        assert!(hists["accel.req_wait"].count > 0);
        assert_eq!(hists["accel.req_beats"].sum, plain.bus_beats);
    }

    #[test]
    fn outstanding_window_throttles_latency_bound_lanes() {
        let t = mem_heavy_trace();
        let bus = BusConfig::default();
        let tight = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 1,
            },
            start: 0,
        };
        let deep = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 16,
            },
            start: 0,
        };
        let slow = simulate_accel_system(&[tight], &bus);
        let fast = simulate_accel_system(&[deep], &bus);
        assert!(
            slow.makespan > fast.makespan * 4,
            "{} vs {}",
            slow.makespan,
            fast.makespan
        );
    }
}

#[cfg(test)]
mod assoc_tests {
    use super::*;

    fn thrash_trace() -> Trace {
        // Two addresses that collide in a direct-mapped 16 KiB cache.
        (0..2000u64)
            .map(|i| TraceOp::Mem {
                addr: (i % 2) * 16 * 1024,
                bytes: 8,
                write: false,
                object: 0,
            })
            .collect()
    }

    #[test]
    fn two_way_associativity_absorbs_conflicts() {
        let t = thrash_trace();
        let dm = CpuTiming {
            cache: Some(CacheConfig::direct_mapped(16 * 1024, 64)),
            ..CpuTiming::default()
        };
        let assoc = CpuTiming {
            cache: Some(CacheConfig {
                size: 16 * 1024,
                line: 64,
                ways: 2,
            }),
            ..CpuTiming::default()
        };
        let r_dm = simulate_cpu(&t, &dm);
        let r_assoc = simulate_cpu(&t, &assoc);
        assert!(
            r_dm.misses > 1900,
            "ping-pong should thrash direct-mapped: {r_dm:?}"
        );
        assert!(r_assoc.misses <= 2, "two ways hold both lines: {r_assoc:?}");
        assert!(r_assoc.cycles < r_dm.cycles / 5);
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // Three lines into a 2-way set: the least recently used goes.
        let s = 16 * 1024u64;
        let t: Trace = [0, s, 0, 2 * s, 0, s]
            .into_iter()
            .map(|addr| TraceOp::Mem {
                addr,
                bytes: 8,
                write: false,
                object: 0,
            })
            .collect();
        let assoc = CpuTiming {
            cache: Some(CacheConfig {
                size: 16 * 1024,
                line: 64,
                ways: 2,
            }),
            ..CpuTiming::default()
        };
        let r = simulate_cpu(&t, &assoc);
        // Misses: 0, s, 2s (evicts s), then s again. Hits: 0 twice.
        assert_eq!(r.misses, 4, "{r:?}");
        assert_eq!(r.hits, 2, "{r:?}");
    }
}
