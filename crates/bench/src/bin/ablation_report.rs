//! Ablations of the CapChecker design choices (§5.2 / DESIGN.md):
//! capability-table size, pipeline depth, fixed table vs cache-backed
//! table, and shared vs per-accelerator checker area.

use capchecker::{
    CachedCheckerConfig, CapChecker, CheckerConfig, HeteroSystem, ProtectionChoice, SystemConfig,
    TaskRequest,
};
use capcheri_bench::render::{pct, table};
use hetsim::timing::{simulate_accel_system, AccelTask, AccelTimingConfig, BusConfig};
use hetsim::{Trace, TraceOp};
use ioprotect::IoProtection;
use machsuite::INSTANCES;

fn mem_trace(ops: u64) -> Trace {
    (0..ops)
        .map(|i| TraceOp::Mem {
            addr: i * 64,
            bytes: 8,
            write: false,
            object: 0,
        })
        .collect()
}

fn table_size_sweep() -> String {
    // How many 5-buffer tasks fit before allocation stalls, and what the
    // table costs, per size.
    let mut rows = Vec::new();
    for entries in [16usize, 64, 128, 256, 512] {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CapChecker(CheckerConfig {
                entries,
                ..CheckerConfig::fine()
            }),
            ..SystemConfig::default()
        });
        sys.add_fus("k", 128);
        let mut fitted = 0;
        for i in 0..128 {
            match sys.allocate_task(&TaskRequest::accel(format!("t{i}"), "k").rw_buffers([64; 5])) {
                Ok(_) => fitted += 1,
                Err(_) => break,
            }
        }
        rows.push(vec![
            entries.to_string(),
            fitted.to_string(),
            fpgamodel::capchecker_area(entries).luts.to_string(),
            format!("{:.0} MHz", fpgamodel::fmax::capchecker_mhz(entries)),
        ]);
    }
    format!(
        "Ablation 1: capability-table size vs concurrent 5-buffer tasks\n\
         (associative lookup is the critical path: Fmax falls with entries)\n\n{}",
        table(&["Entries", "Tasks before stall", "LUTs", "Fmax"], &rows)
    )
}

fn pipeline_latency_sweep() -> String {
    let trace = mem_trace(50_000);
    let base = simulate_accel_system(
        &[AccelTask {
            trace: &trace,
            cfg: AccelTimingConfig::default(),
            start: 0,
        }],
        &BusConfig::default(),
    )
    .makespan;
    let mut rows = Vec::new();
    for latency in [0u64, 1, 2, 4, 8] {
        let makespan = simulate_accel_system(
            &[AccelTask {
                trace: &trace,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &BusConfig::default().with_checker(latency),
        )
        .makespan;
        rows.push(vec![
            latency.to_string(),
            makespan.to_string(),
            pct((makespan as f64 - base as f64) / base as f64),
        ]);
    }
    format!(
        "Ablation 2: checker pipeline depth on a memory-bound stream\n\n{}",
        table(&["Latency (cy)", "Makespan", "Overhead"], &rows)
    )
}

fn fixed_vs_cached() -> String {
    use cheri::{Capability, Perms};
    use hetsim::{Access, MasterId, ObjectId, TaskId};

    // 64 tasks x 5 buffers = 320 capabilities; a hot working set of 8.
    let cap = |i: u64| {
        Capability::root()
            .set_bounds(i * 4096, 4096)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    };
    let mut fixed = CapChecker::new(CheckerConfig::fine());
    let mut cached = CapChecker::cached(CachedCheckerConfig::default());
    let mut fixed_stalls = 0u64;
    for t in 0..64u32 {
        for o in 0..5u16 {
            let c = cap(u64::from(t) * 5 + u64::from(o));
            if fixed.grant(TaskId(t), ObjectId(o), &c).is_err() {
                fixed_stalls += 1;
            }
            cached
                .grant(TaskId(t), ObjectId(o), &c)
                .expect("memory-backed never stalls");
        }
    }
    for round in 0..2000u64 {
        let t = (round % 8) as u32; // hot set: 8 tasks
        let a = Access::read(MasterId(1), TaskId(t), u64::from(t) * 5 * 4096, 8)
            .with_object(ObjectId(0));
        let _ = cached.check(&a);
    }
    let rows = vec![
        vec![
            "fixed-256".to_owned(),
            fpgamodel::capchecker_area(256).luts.to_string(),
            format!("{fixed_stalls} grant stalls"),
            format!("{} cy", CheckerConfig::fine().pipeline_latency),
        ],
        vec![
            "cached-16".to_owned(),
            fpgamodel::capchecker_lite_area(16).luts.to_string(),
            "0 grant stalls".to_owned(),
            format!(
                "{:.1} cy effective ({} hot-set hit rate)",
                cached.effective_latency(),
                pct(1.0 - cached.cache_stats().map_or(0.0, |s| s.miss_ratio()))
            ),
        ],
    ];
    format!(
        "Ablation 3: fixed 256-entry table vs 16-entry cache over a memory table\n\
         (320 capabilities live, 8-task hot set)\n\n{}",
        table(
            &["Design", "LUTs", "Capacity behaviour", "Check latency"],
            &rows
        )
    )
}

fn shared_vs_distributed() -> String {
    let shared = fpgamodel::capchecker_area(256).luts;
    let distributed = INSTANCES as u64 * shared;
    let rows = vec![
        vec![
            "single shared".to_owned(),
            shared.to_string(),
            "full (1 beat/cycle bus)".to_owned(),
        ],
        vec![
            format!("per-accelerator x{INSTANCES}"),
            distributed.to_string(),
            "identical (bus is the bottleneck)".to_owned(),
        ],
    ];
    format!(
        "Ablation 4: shared vs per-accelerator CapCheckers (§5.2.1)\n\n{}",
        table(&["Topology", "LUTs", "Sustained bandwidth"], &rows)
    )
}

fn element_vs_burst_dma() -> String {
    // A streaming kernel issued element-by-element vs with AXI bursts.
    let element: Trace = (0..40_000u64)
        .map(|i| TraceOp::Mem {
            addr: i * 4,
            bytes: 4,
            write: false,
            object: 0,
        })
        .collect();
    let mut rows = Vec::new();
    for (label, trace) in [
        ("element (4 B)", element.clone()),
        ("burst 64 B", element.coalesce_bursts(64)),
        ("burst 256 B", element.coalesce_bursts(256)),
        ("burst 1 KiB", element.coalesce_bursts(1024)),
    ] {
        let run = |bus: &BusConfig| {
            simulate_accel_system(
                &[AccelTask {
                    trace: &trace,
                    cfg: AccelTimingConfig::default(),
                    start: 0,
                }],
                bus,
            )
            .makespan
        };
        let plain = run(&BusConfig::default());
        let checked = run(&BusConfig::default().with_checker(1));
        rows.push(vec![
            label.to_owned(),
            trace.mem_ops().to_string(),
            plain.to_string(),
            pct((checked as f64 - plain as f64) / plain as f64),
        ]);
    }
    format!(
        "Ablation 5: element DMA vs AXI bursts (same 160 KB of traffic)\n\
         (bursts slash request count, so per-request checker latency washes out)\n\n{}",
        table(&["DMA style", "Requests", "Makespan", "Checker ovh"], &rows)
    )
}

fn main() {
    println!("{}\n", table_size_sweep());
    println!("{}\n", pipeline_latency_sweep());
    println!("{}\n", fixed_vs_cached());
    println!("{}\n", shared_vs_distributed());
    println!("{}", element_vs_burst_dma());
}
