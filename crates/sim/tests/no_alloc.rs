//! The hot simulation loop must not allocate per dynamic instruction.
//!
//! Strategy: install a counting global allocator, then simulate two
//! programs that are *statically identical* — they differ only in a loop
//! trip-count immediate — so every allocation on the per-run path
//! (executor state, timing tables, report assembly) is the same for both.
//! If the per-instruction path allocated anything, the run that executes
//! ~100× more dynamic instructions would allocate more. The counts must be
//! exactly equal.
//!
//! The counter is per thread: the harness runs tests concurrently, and a
//! process-wide count would charge each test's window with the others'
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use supersym_isa::{AsmBuilder, IntReg, Program};
use supersym_machine::presets;
use supersym_sim::{simulate, simulate_with_sink, ExecOptions, MetricsSink, Recording, SimOptions};
use supersym_trace::{NullSink, TimelineSink};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// destructor-free, so bumping it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails instead of panicking once the thread's locals are
    // gone; a panic inside the allocator would abort the process.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted_loop(iters: i64) -> Program {
    let mut asm = AsmBuilder::new("main");
    let r = |i: u8| IntReg::new(i).unwrap();
    let top = asm.new_label();
    asm.movi(r(1), iters);
    asm.movi(r(3), 0);
    asm.bind(top);
    asm.add(r(3), r(3), 2.into());
    asm.sub(r(1), r(1), 1.into());
    asm.cmp_gt(r(2), r(1), 0.into());
    asm.br_true(r(2), top);
    asm.halt();
    asm.finish_program()
}

/// A loop that stores to and loads from a word that walks down a
/// 256-word window, so the recording holds one-byte address deltas and an
/// escaped full address at every wrap.
fn memory_loop(iters: i64) -> Program {
    let mut asm = AsmBuilder::new("main");
    let r = |i: u8| IntReg::new(i).unwrap();
    let top = asm.new_label();
    asm.movi(r(1), iters);
    asm.movi(r(3), 0);
    asm.bind(top);
    asm.and(r(6), r(1), 255.into());
    asm.store(r(3), r(6), 100);
    asm.load(r(5), r(6), 100);
    asm.add(r(3), r(5), 2.into());
    asm.sub(r(1), r(1), 1.into());
    asm.cmp_gt(r(2), r(1), 0.into());
    asm.br_true(r(2), top);
    asm.halt();
    asm.finish_program()
}

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn simulate_allocates_nothing_per_instruction() {
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::ideal_superscalar(4);

    // Warm up once so lazy one-time initialization doesn't skew the counts.
    simulate(&short, &config, SimOptions::default()).unwrap();

    let (report_short, allocs_short) =
        allocations_during(|| simulate(&short, &config, SimOptions::default()).unwrap());
    let (report_long, allocs_long) =
        allocations_during(|| simulate(&long, &config, SimOptions::default()).unwrap());

    // Sanity: the long run really does ~100× the dynamic work.
    assert!(report_long.instructions() > 50 * report_short.instructions());
    // Both reports see a conserved cycle account.
    assert!(report_short.cycle_account().conserved());
    assert!(report_long.cycle_account().conserved());

    assert_eq!(
        allocs_short,
        allocs_long,
        "simulate allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn block_cache_replay_allocates_nothing_once_warmed() {
    // The block timing cache allocates while recording variants (cold
    // traces only); once every hot trace is recorded, bulk replay must be
    // allocation-free. The two programs record identical variants, so the
    // 100× replay traffic of the long run must not change the count.
    let short = counted_loop(1_000);
    let long = counted_loop(100_000);
    let config = presets::ideal_superscalar(4);
    let cached = SimOptions::default();
    assert!(cached.block_cache, "block cache is on by default");

    simulate(&short, &config, cached).unwrap();

    let (report_short, allocs_short) =
        allocations_during(|| simulate(&short, &config, cached).unwrap());
    let (report_long, allocs_long) =
        allocations_during(|| simulate(&long, &config, cached).unwrap());

    // Sanity: the replay path really served the long run's extra work.
    let stats = report_long.block_cache_stats();
    assert!(stats.hits > report_short.block_cache_stats().hits);
    assert!(
        stats.replayed_instructions > report_long.instructions() / 2,
        "replay served too little of the run: {stats:?}"
    );

    assert_eq!(
        allocs_short,
        allocs_long,
        "warmed block-cache replay allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn recorded_replay_allocates_nothing_per_instruction() {
    // Replay reads its recording and grows nothing per instruction: the
    // same static program, recorded over 100× more dynamic instructions,
    // replays with exactly as many allocations, accounted or cycles-only.
    let short = memory_loop(100);
    let long = memory_loop(10_000);
    let config = presets::ideal_superscalar(4);
    let record = |program: &Program| {
        Recording::record(program, ExecOptions::default())
            .unwrap()
            .expect("a small run stays under the cap")
    };
    let (short_run, long_run) = (record(&short), record(&long));
    // Unscheduled, each program is its own region permutation.
    let origins: Vec<u32> = (0..short.static_size() as u32).collect();

    short_run.replay(&short, &origins, &config).unwrap();

    let (report_short, allocs_short) =
        allocations_during(|| short_run.replay(&short, &origins, &config).unwrap());
    let (report_long, allocs_long) =
        allocations_during(|| long_run.replay(&long, &origins, &config).unwrap());

    assert!(report_long.instructions() > 50 * report_short.instructions());
    assert_eq!(
        report_long.cycle_account(),
        simulate(&long, &config, SimOptions::default())
            .unwrap()
            .cycle_account()
    );
    assert_eq!(
        allocs_short,
        allocs_long,
        "replay allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );

    // The cycles-only replay walks the same way without the accountant.
    let (cycles_short, allocs_short) =
        allocations_during(|| short_run.replay_cycles(&short, &origins, &config).unwrap());
    let (cycles_long, allocs_long) =
        allocations_during(|| long_run.replay_cycles(&long, &origins, &config).unwrap());
    assert_eq!(cycles_long.machine_cycles, report_long.machine_cycles());
    assert_eq!(
        allocs_short, allocs_long,
        "cycles-only replay allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        cycles_short.instructions, cycles_long.instructions,
    );
}

#[test]
fn sink_off_paths_allocate_nothing_per_instruction() {
    // Observability off must cost one branch, not an allocation: both the
    // timeline-off path (NullSink) and the metrics path (MetricsSink is a
    // pair of fixed-size histograms) must allocate identically regardless
    // of dynamic instruction count.
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::ideal_superscalar(4);

    simulate_with_sink(&short, &config, SimOptions::default(), &mut NullSink).unwrap();

    let (_, null_short) = allocations_during(|| {
        simulate_with_sink(&short, &config, SimOptions::default(), &mut NullSink).unwrap()
    });
    let (_, null_long) = allocations_during(|| {
        simulate_with_sink(&long, &config, SimOptions::default(), &mut NullSink).unwrap()
    });
    assert_eq!(
        null_short, null_long,
        "NullSink path allocated per dynamic instruction"
    );

    let (_, metrics_short) = allocations_during(|| {
        let mut sink = MetricsSink::new();
        simulate_with_sink(&short, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish();
    });
    let (_, metrics_long) = allocations_during(|| {
        let mut sink = MetricsSink::new();
        simulate_with_sink(&long, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish();
    });
    assert_eq!(
        metrics_short, metrics_long,
        "MetricsSink recorded with per-instruction allocations"
    );
}

#[test]
fn timeline_sink_allocates_nothing_per_instruction() {
    // The timeline emitter renders every event into one buffer it reuses,
    // so a run's allocations (lane tables, buffer growth) must not depend
    // on how many instructions it streams.
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::ideal_superscalar(4);
    let run = |program: &Program| {
        let mut sink = TimelineSink::new(std::io::sink());
        simulate_with_sink(program, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish().unwrap();
    };

    run(&short);

    let (_, timeline_short) = allocations_during(|| run(&short));
    let (_, timeline_long) = allocations_during(|| run(&long));
    assert_eq!(
        timeline_short, timeline_long,
        "TimelineSink allocated per dynamic instruction"
    );
}

#[test]
fn timeline_on_and_off_produce_identical_cycle_accounts() {
    // The timeline sink observes the issue stream; it must not perturb
    // timing. Differential check on the full per-cause account.
    let program = counted_loop(200);
    for config in [
        presets::ideal_superscalar(4),
        presets::base(),
        presets::cray1(),
    ] {
        let plain = simulate(&program, &config, SimOptions::default()).unwrap();
        let mut sink = TimelineSink::new(Vec::new());
        let timed =
            simulate_with_sink(&program, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish().unwrap();
        assert_eq!(plain.cycle_account(), timed.cycle_account());
        assert_eq!(plain.machine_cycles(), timed.machine_cycles());
        assert_eq!(plain.instructions(), timed.instructions());
    }
}
