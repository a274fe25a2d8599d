//! Coupled functional + timing simulation and its report.

use crate::block::{BlockCache, BlockCacheStats, BlockStart};
use crate::cache::{CacheConfig, CacheStats, CacheSystem};
use crate::error::SimError;
use crate::exec::{ExecOptions, Executor, StepInfo};
use crate::timing::{CycleAccount, IssueRecord, TimingModel, TimingTable};
use supersym_isa::{ClassCensus, Program};
use supersym_machine::MachineConfig;
use supersym_trace::{IssueEvent, TraceSink};

/// Options for [`simulate`].
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Functional-execution options.
    pub exec: ExecOptions,
    /// Whether [`simulate`] uses the block timing cache (default `true`).
    /// The cache is bit-exact — disabling it changes nothing but speed; the
    /// switch exists for differential testing and for measuring the cache
    /// itself. Only [`simulate`] reads it: runs that observe instructions
    /// ([`simulate_with_sink`], [`simulate_with_cache`]) always take the
    /// exact loop.
    pub block_cache: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            exec: ExecOptions::default(),
            block_cache: true,
        }
    }
}

/// How many critical producers a [`SimReport`] keeps.
const MAX_PRODUCERS: usize = 16;

/// A static instruction whose result latency dynamic instructions waited
/// on (RAW or WAW), resolved to source coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalProducer {
    /// Function name.
    pub function: String,
    /// Instruction index within the function.
    pub pc: usize,
    /// Disassembled instruction text.
    pub instr: String,
    /// Total instruction-cycles consumers waited on this producer.
    pub wait_cycles: u64,
}

/// The result of simulating a program on a machine.
#[derive(Debug, Clone)]
pub struct SimReport {
    machine: String,
    instructions: u64,
    machine_cycles: u64,
    base_cycles: f64,
    census: ClassCensus,
    account: CycleAccount,
    producers: Vec<CriticalProducer>,
    block_cache: BlockCacheStats,
}

impl SimReport {
    /// The machine's name.
    #[must_use]
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Dynamic instruction count.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Elapsed machine cycles.
    #[must_use]
    pub fn machine_cycles(&self) -> u64 {
        self.machine_cycles
    }

    /// Elapsed time in base-machine cycles.
    #[must_use]
    pub fn base_cycles(&self) -> f64 {
        self.base_cycles
    }

    /// Dynamic instruction census by class.
    #[must_use]
    pub fn census(&self) -> &ClassCensus {
        &self.census
    }

    /// Where the machine cycles went: the stall-attribution account
    /// (cycle view conserves exactly; wait view rolls up per class, per
    /// functional unit, and per cause including issue width).
    #[must_use]
    pub fn cycle_account(&self) -> &CycleAccount {
        &self.account
    }

    /// The static instructions whose result latency was most waited on,
    /// sorted by descending wait cycles (at most 16 entries, zero-wait
    /// entries dropped).
    #[must_use]
    pub fn critical_producers(&self) -> &[CriticalProducer] {
        &self.producers
    }

    /// Block-timing-cache counters for the run: nonzero only for a
    /// [`simulate`] run with the cache on, and zero for every run that
    /// observes instructions.
    #[must_use]
    pub fn block_cache_stats(&self) -> BlockCacheStats {
        self.block_cache
    }

    /// Instructions per base cycle. On an ideal machine of unlimited width
    /// and unit latencies this is the paper's *available instruction-level
    /// parallelism*; on real machines it is the sustained execution rate.
    #[must_use]
    pub fn available_parallelism(&self) -> f64 {
        if self.base_cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.base_cycles
        }
    }

    /// Speedup of `self` relative to `baseline` (same program assumed).
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.base_cycles / self.base_cycles
    }
}

/// Runs a program on a machine description.
///
/// Functional execution and timing run in lockstep: each architecturally
/// executed instruction is issued into the pipeline model of `config`.
/// With `options.block_cache` on, the block timing cache replays recorded
/// traces instead of issuing them one by one; the report is the same.
///
/// # Errors
///
/// Propagates any [`SimError`] from execution.
pub fn simulate(
    program: &Program,
    config: &MachineConfig,
    options: SimOptions,
) -> Result<SimReport, SimError> {
    run_lockstep(program, config, options.exec, options.block_cache, &mut ())
}

/// Runs a program on a machine description, streaming one
/// [`IssueEvent`] per dynamic instruction to `sink`.
///
/// The run takes the exact loop, whatever `options.block_cache` says, and
/// reports what [`simulate`] does; its block-cache counters are zero. It
/// allocates nothing per instruction (asserted by the `no_alloc`
/// integration test).
///
/// # Errors
///
/// Propagates any [`SimError`] from execution.
pub fn simulate_with_sink(
    program: &Program,
    config: &MachineConfig,
    options: SimOptions,
    mut sink: &mut dyn TraceSink,
) -> Result<SimReport, SimError> {
    run_lockstep(program, config, options.exec, false, &mut sink)
}

/// What watches the exact loop's issues: `()` for [`simulate`] with the
/// block cache off, where every call compiles away, the sink of
/// [`simulate_with_sink`], or the I/D caches of [`simulate_with_cache`].
trait Events {
    /// One dynamic instruction issued; `record` is evaluated only when
    /// something listens.
    fn issue(&mut self, info: &StepInfo, record: impl FnOnce() -> IssueRecord);
}

impl Events for () {
    #[inline(always)]
    fn issue(&mut self, _: &StepInfo, _: impl FnOnce() -> IssueRecord) {}
}

impl Events for &mut dyn TraceSink {
    fn issue(&mut self, info: &StepInfo, record: impl FnOnce() -> IssueRecord) {
        let record = record();
        TraceSink::issue(
            &mut **self,
            &IssueEvent {
                func: info.func.index() as u32,
                pc: info.pc as u64,
                class: info.class.mnemonic(),
                issue: record.issue,
                complete: record.complete,
                drain: record.drain,
                wait: record.wait,
                cause: record.cause.map(|cause| cause.label()),
            },
        );
    }
}

/// The lockstep run behind every entry point: the block cache's
/// [`run_bulk`] when `cached` (sink-less [`simulate`] alone, which passes
/// `()` as `events`), otherwise the exact loop, which shows every issue to
/// `events`.
fn run_lockstep(
    program: &Program,
    config: &MachineConfig,
    options: ExecOptions,
    cached: bool,
    events: &mut impl Events,
) -> Result<SimReport, SimError> {
    let mut exec = Executor::new(program, options)?;
    let table = TimingTable::new(program);
    let mut timing = TimingModel::new(config, options.memory_words);
    timing.track_producers(program);
    let stats = if cached {
        let mut cache = BlockCache::new(program, &timing);
        run_bulk(&mut cache, &table, &mut exec, &mut timing)?;
        cache.stats
    } else {
        while let Some(info) = exec.step()? {
            let issued = timing.issue_step(&table, &info);
            events.issue(&info, || issued.record());
        }
        BlockCacheStats::default()
    };
    Ok(finish_report(
        program,
        config,
        *exec.census(),
        &timing,
        stats,
    ))
}

/// The cached loop behind [`simulate`] with the block cache on. Replays
/// defer all timing-state writes to one aggregated delta per trace, so a
/// verified step costs a few compares plus the live memory effects.
///
/// Structured as nested loops rather than a per-step mode dispatch: each
/// trace visit runs one tight inner loop (replay or record) with its state
/// in locals, and `'trace` restarts at the next boundary.
///
/// The executor only returns `None` after a `Halt` step, and `Halt` always
/// ends a trace — so the inner loops' "stream ended" breaks are
/// unreachable-in-practice guards, not trace-state leaks.
fn run_bulk(
    cache: &mut BlockCache,
    table: &TimingTable,
    exec: &mut Executor<'_>,
    timing: &mut TimingModel,
) -> Result<(), SimError> {
    use crate::block::{packed_loc, trace_break, TraceRun, MAX_TRACE_LEN};
    'trace: loop {
        let Some(first) = exec.step()? else {
            return Ok(());
        };
        let entry = packed_loc(&first);
        match cache.begin_block(&first, timing) {
            BlockStart::Record { block } => {
                let mut info = first;
                loop {
                    let slot = table.slot(info.func, info.pc);
                    let facts = table.entries()[slot];
                    cache.observe_step(facts, timing);
                    let issued = timing.issue_step(table, &info);
                    cache.record_step(&info, facts, slot as u32, &issued);
                    if trace_break(info.control, info.pc, exec.cursor(), entry)
                        || cache.recorded_len() >= MAX_TRACE_LEN
                    {
                        cache.finish_recording(block, timing);
                        continue 'trace;
                    }
                    match exec.step()? {
                        Some(next) => info = next,
                        None => return Ok(()),
                    }
                }
            }
            BlockStart::Replay {
                block,
                variant,
                base,
            } => match cache.replay_trace(block, variant, base, &first, exec, timing)? {
                TraceRun::Completed => {}
                TraceRun::Ended => return Ok(()),
                TraceRun::Diverged(diverged) => {
                    // The verified prefix has been materialized exactly;
                    // issue the diverging step on the exact model, then
                    // treat the divergence as a trace boundary. The next
                    // instruction starts a fresh trace, so divergent paths
                    // (loop exits, data-dependent branches) earn their own
                    // cached traces instead of replaying nothing.
                    timing.issue_step(table, &diverged);
                    continue 'trace;
                }
            },
        }
    }
}

/// Resolves the timing model's flat producer table against the program and
/// assembles the report.
pub(crate) fn finish_report(
    program: &Program,
    config: &MachineConfig,
    census: ClassCensus,
    timing: &TimingModel,
    block_cache: BlockCacheStats,
) -> SimReport {
    let waits = timing.producer_waits();
    let mut producers: Vec<(usize, CriticalProducer)> = Vec::new();
    let mut flat = 0_usize;
    for function in program.functions() {
        for (pc, instr) in function.instrs().iter().enumerate() {
            let wait_cycles = waits.get(flat).copied().unwrap_or(0);
            if wait_cycles > 0 {
                producers.push((
                    flat,
                    CriticalProducer {
                        function: function.name().to_string(),
                        pc,
                        instr: instr.to_string(),
                        wait_cycles,
                    },
                ));
            }
            flat += 1;
        }
    }
    // Descending by wait; static program order breaks ties, so the table
    // is deterministic. `sort_unstable` allocates nothing.
    producers.sort_unstable_by(|a, b| b.1.wait_cycles.cmp(&a.1.wait_cycles).then(a.0.cmp(&b.0)));
    producers.truncate(MAX_PRODUCERS);
    let producers: Vec<CriticalProducer> = producers.into_iter().map(|(_, p)| p).collect();
    SimReport {
        machine: config.name().to_string(),
        instructions: timing.instructions(),
        machine_cycles: timing.machine_cycles(),
        base_cycles: timing.base_cycles(),
        census,
        account: timing.account(),
        producers,
        block_cache,
    }
}

/// Cache behaviour observed during a [`simulate_with_cache`] run.
#[derive(Debug, Clone, Copy)]
pub struct CacheReport {
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
    /// Total misses per executed instruction.
    pub misses_per_instruction: f64,
}

impl CacheReport {
    /// Effective cycles per instruction once each miss costs
    /// `miss_penalty_cycles`: `base_cpi + misses/instr * penalty` (§5.1).
    #[must_use]
    pub fn effective_cpi(&self, base_cpi: f64, miss_penalty_cycles: f64) -> f64 {
        base_cpi + self.misses_per_instruction * miss_penalty_cycles
    }
}

/// Runs a program while also driving a split I/D cache system.
///
/// The run takes the exact loop, like [`simulate_with_sink`], and reports
/// what [`simulate`] does. Instruction addresses place each function at a
/// base address equal to the cumulative instruction count of the functions
/// before it (one word per instruction); data addresses are the words
/// actually touched, every word of a vector access included.
///
/// # Errors
///
/// Propagates any [`SimError`] from execution.
pub fn simulate_with_cache(
    program: &Program,
    config: &MachineConfig,
    options: SimOptions,
    icache: CacheConfig,
    dcache: CacheConfig,
) -> Result<(SimReport, CacheReport), SimError> {
    let mut bases = Vec::with_capacity(program.functions().len());
    let mut next = 0_u64;
    for function in program.functions() {
        bases.push(next);
        next += function.instrs().len() as u64;
    }
    let mut observer = CacheObserver {
        bases,
        caches: CacheSystem::new(icache, dcache),
    };
    let report = run_lockstep(program, config, options.exec, false, &mut observer)?;
    let caches = &observer.caches;
    let cache_report = CacheReport {
        icache: caches.icache_stats(),
        dcache: caches.dcache_stats(),
        misses_per_instruction: caches.misses_per_instruction(report.instructions),
    };
    Ok((report, cache_report))
}

/// The I/D caches of [`simulate_with_cache`], fed from the exact loop.
struct CacheObserver {
    /// Instruction address of each function's first instruction.
    bases: Vec<u64>,
    caches: CacheSystem,
}

impl Events for CacheObserver {
    fn issue(&mut self, info: &StepInfo, _: impl FnOnce() -> IssueRecord) {
        self.caches
            .fetch(self.bases[info.func.index()] + info.pc as u64);
        if let Some((addr, _)) = info.mem {
            for word in addr..addr + info.vlen.max(1) as usize {
                self.caches.data(word as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_isa::{AsmBuilder, IntReg};
    use supersym_machine::presets;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    fn tiny_loop(iters: i64) -> Program {
        let mut asm = AsmBuilder::new("main");
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

    #[test]
    fn report_basic_invariants() {
        let program = tiny_loop(50);
        let report = simulate(&program, &presets::base(), SimOptions::default()).unwrap();
        assert!(report.instructions() > 150);
        assert!(report.base_cycles() >= report.instructions() as f64);
        assert!(report.available_parallelism() <= 1.0);
        assert_eq!(report.machine(), "base");
    }

    #[test]
    fn superscalar_speedup_on_loop() {
        let program = tiny_loop(100);
        let base = simulate(&program, &presets::base(), SimOptions::default()).unwrap();
        let ss4 = simulate(
            &program,
            &presets::ideal_superscalar(4),
            SimOptions::default(),
        )
        .unwrap();
        let speedup = ss4.speedup_over(&base);
        assert!(speedup > 1.2, "speedup {speedup}");
        assert!(speedup < 4.0);
    }

    #[test]
    fn cache_simulation_counts_fetches() {
        let program = tiny_loop(100);
        let (report, caches) = simulate_with_cache(
            &program,
            &presets::base(),
            SimOptions::default(),
            CacheConfig::small_direct(),
            CacheConfig::small_direct(),
        )
        .unwrap();
        assert_eq!(caches.icache.accesses, report.instructions());
        // A tiny loop fits in the I-cache: nearly all hits.
        assert!(caches.icache.miss_rate() < 0.05);
        let cpi = caches.effective_cpi(1.0, 10.0);
        assert!((1.0..2.0).contains(&cpi));
    }

    #[test]
    fn dcache_sees_every_word_of_a_vector_access() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 64);
        asm.setvl(r(1));
        asm.vload(supersym_isa::VecReg::new(1).unwrap(), r(2), 0);
        asm.halt();
        let (_, caches) = simulate_with_cache(
            &asm.finish_program(),
            &presets::base(),
            SimOptions::default(),
            CacheConfig::small_direct(),
            CacheConfig::small_direct(),
        )
        .unwrap();
        // Words 0..64 of a cold cache with four-word lines.
        assert_eq!(caches.dcache.accesses, 64);
        assert_eq!(caches.dcache.misses, 16);
    }
}
