//! Allocation-count regression tests: `Simulation::advance` allocates a
//! fixed amount per call plus the output vectors of each emitted
//! `MetricPoint`, and nothing per simulated tick; its tick half,
//! `Simulation::advance_ticks`, allocates nothing at all once its
//! buffers are warm. The fleet ticks shard simulations on worker
//! threads, and an allocation there grows a per-thread allocator arena
//! (and the process's resident memory) for the run's lifetime.
//!
//! A counting global allocator tallies allocations made by the test's
//! own thread, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use capsys_model::{
    Cluster, ConnectionPattern, LogicalGraph, OperatorKind, PhysicalGraph, Placement, RateSchedule,
    ResourceProfile, WorkerId, WorkerSpec,
};
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, SimConfig, Simulation, TaskTransfer};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown, when nothing is
    // being measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Output vectors per `MetricPoint`: CPU, disk and NIC utilization.
const VECS_PER_POINT: u64 = 3;

/// source (w0) → stateful map ×3 (w0, w1, w2) → sink (w2): every
/// resource is charged, channels cross workers, and the map's disk
/// competes with state draining.
fn fixture() -> Simulation {
    let mut b = LogicalGraph::builder("alloc");
    let src = b.operator(
        "src",
        OperatorKind::Source,
        1,
        ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
    );
    let map = b.operator(
        "map",
        OperatorKind::Window,
        3,
        ResourceProfile::new(2e-4, 2000.0, 100.0, 1.0),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        1,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(src, map, ConnectionPattern::Rebalance);
    b.edge(map, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("valid graph");
    let p = PhysicalGraph::expand(&g);
    let c = Cluster::homogeneous(3, WorkerSpec::new(4, 2.0, 100e6, 1e9)).expect("valid cluster");
    let plan = Placement::new([0, 0, 1, 2, 2].into_iter().map(WorkerId).collect());
    let mut sch = HashMap::new();
    sch.insert(src, RateSchedule::Constant(12_000.0));
    let config = SimConfig::short().with_noise(0.05, 3);
    Simulation::new(&g, &p, &c, &plan, &sch, config).expect("valid deployment")
}

/// Allocations `advance(secs)` makes on a fresh fixture prepared by
/// `setup`, less the per-point output vectors.
fn advance_allocs(secs: f64, setup: &dyn Fn(&mut Simulation)) -> u64 {
    let mut sim = fixture();
    setup(&mut sim);
    let before = ALLOCS.with(Cell::get);
    let report = sim.advance(secs, 1.0);
    let made = ALLOCS.with(Cell::get) - before;
    made - VECS_PER_POINT * report.points.len() as u64
}

/// 60 and 600 ticks at the same metrics interval must allocate alike.
fn assert_tick_count_free(setup: &dyn Fn(&mut Simulation)) {
    let short = advance_allocs(6.0, setup);
    let long = advance_allocs(60.0, setup);
    assert_eq!(short, long, "advance allocates per tick: {short} vs {long}");
}

#[test]
fn plain_run_allocates_nothing_per_tick() {
    assert_tick_count_free(&|_| {});
}

#[test]
fn active_state_transfer_allocates_nothing_per_tick() {
    assert_tick_count_free(&|sim| {
        // Far more state than drains in 60 s: the transfer stays active.
        let moves = [
            TaskTransfer {
                task: 1,
                to: 1,
                bytes: 1e13,
            },
            TaskTransfer {
                task: 2,
                to: 2,
                bytes: 1e13,
            },
        ];
        sim.begin_state_transfer(&moves, false)
            .expect("valid transfer");
    });
}

#[test]
fn partitioned_worker_allocates_nothing_per_tick() {
    assert_tick_count_free(&|sim| sim.set_partitioned(WorkerId(1), true));
}

/// Length of the windows below, seconds: several metrics intervals.
const WINDOW: f64 = 20.0;

/// Allocations of each of three steady `WINDOW` `advance_ticks` windows
/// after a first warm-up window, on a fixture prepared by `setup`.
fn steady_window_allocs(setup: &dyn Fn(&mut Simulation)) -> Vec<u64> {
    let mut sim = fixture();
    setup(&mut sim);
    sim.advance_ticks(WINDOW, 1.0);
    sim.take_report();
    (0..3)
        .map(|_| {
            let before = ALLOCS.with(Cell::get);
            sim.advance_ticks(WINDOW, 1.0);
            let made = ALLOCS.with(Cell::get) - before;
            sim.take_report();
            made
        })
        .collect()
}

#[test]
fn steady_windows_tick_without_allocating() {
    assert_eq!(steady_window_allocs(&|_| {}), [0, 0, 0]);
}

#[test]
fn steady_windows_under_a_partition_fault_tick_without_allocating() {
    assert_eq!(
        steady_window_allocs(&|sim| {
            // The partition starts inside the warm-up window and holds
            // through the measured ones.
            let plan = FaultPlan::new(vec![FaultEvent {
                time: 2.0,
                kind: FaultKind::PartitionStart(WorkerId(1)),
            }])
            .expect("valid plan");
            sim.install_faults(plan).expect("plan fits the cluster");
        }),
        [0, 0, 0]
    );
}

#[test]
fn a_reserved_first_window_ticks_without_allocating() {
    let mut sim = fixture();
    sim.reserve_window(WINDOW);
    let before = ALLOCS.with(Cell::get);
    sim.advance_ticks(WINDOW, 0.0);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    let interval = capsys_sim::config::METRICS_INTERVAL;
    let points = (WINDOW / interval).ceil() as usize;
    assert!(points > 1, "the window must span several metrics intervals");
    assert_eq!(sim.take_report().points.len(), points);
}
