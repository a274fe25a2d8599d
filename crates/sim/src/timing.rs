//! The parameterizable pipeline timing model.
//!
//! Models an in-order machine described by a
//! [`MachineConfig`](supersym_machine::MachineConfig):
//!
//! * **In-order issue**, at most `issue_width` instructions per machine
//!   cycle. The paper considers only in-order machines ("We will not
//!   consider superscalar machines or any other machines that issue
//!   instructions out of order", §2.3.2).
//! * **RAW interlocks**: an instruction cannot issue until the operation
//!   latency of each producer has elapsed (§3: "If an instruction requires
//!   the result of a previous instruction, the machine will stall unless the
//!   operation latency of the previous instruction has elapsed").
//! * **Conservative WAW interlocks**: a writer waits for the previous write
//!   of the same register to complete. There is no renaming, so register
//!   reuse is a real dependence — this is what makes the compiler's
//!   temporary-register supply matter (§3: "using the same temporary
//!   register for two different values ... introduces an artificial
//!   dependency"). WAR is free because operands are read at issue.
//! * **Functional-unit reservation**: each instruction class belongs to one
//!   functional unit with a `multiplicity` and an `issue_latency` (§3).
//! * **Store-to-load interlocks** on actual word addresses.
//! * **Control**: with perfect branch prediction (the paper's default),
//!   taken branches cost nothing; otherwise the next instruction waits for
//!   the transfer to complete. Machines may also declare that a taken
//!   branch ends the cycle's issue group.
//!
//! Because issue is serialized at one instruction per machine cycle on a
//! superpipelined machine, the larger startup transient of superpipelined
//! machines (Figure 4-2) *emerges* from this model rather than being
//! hard-coded.

use crate::exec::StepInfo;
use crate::paged::PagedArray;
use supersym_isa::{
    FpReg, FuncId, Instr, InstrClass, IntReg, Program, Reg, Uses, VecReg, NUM_CLASSES, NUM_FP_REGS,
    NUM_INT_REGS, NUM_VEC_REGS,
};
use supersym_machine::MachineConfig;

pub(crate) const NUM_REGS: usize = Reg::DENSE_SPACE;

/// Sentinel in the writer table: this register has never been written.
pub(crate) const NO_WRITER: u32 = u32::MAX;

/// Why a dynamic instruction could not issue sooner.
///
/// Every machine cycle an instruction waits past the in-order frontier is
/// charged to exactly one cause — the *binding* constraint, the one whose
/// required cycle equals the final issue cycle. When several constraints
/// tie, the earliest pipeline stage wins: control transfer, then RAW, WAW,
/// store-to-load, functional unit, and issue width last (a width-deferred
/// instruction always issues the very next cycle, so `IssueWidth` can bind
/// a *wait* but never leaves a cycle empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting for an operand: `reg`'s producer had not completed.
    RawInterlock {
        /// The operand register that was not ready.
        reg: Reg,
    },
    /// Waiting to reuse a destination: the previous write of `reg` had not
    /// completed (no renaming — §3's "artificial dependency").
    WawInterlock {
        /// The destination register being reused.
        reg: Reg,
    },
    /// Waiting for a free copy of a functional unit (multiplicity and
    /// issue-latency reservation, §3).
    FuBusy {
        /// Functional-unit index in the machine's unit list.
        unit: usize,
    },
    /// Waiting for an in-flight store to the same word to drain.
    StoreLoadConflict,
    /// Waiting for a control transfer to resolve (imperfect prediction, or
    /// a machine where taken branches end the issue group).
    ControlTransfer,
    /// The cycle's issue slots were full; deferred to the next cycle.
    IssueWidth,
}

/// Number of [`StallCause`] kinds (payloads aside).
pub const NUM_STALL_KINDS: usize = 6;

impl StallCause {
    /// Stable machine-readable labels, indexed by [`StallCause::index`].
    /// These are the field names of the JSON profile schema — do not
    /// reorder or rename without bumping `supersym.profile` schema version.
    pub const LABELS: [&'static str; NUM_STALL_KINDS] = [
        "raw_interlock",
        "waw_interlock",
        "fu_busy",
        "store_load",
        "control",
        "issue_width",
    ];

    /// Human-readable names, indexed by [`StallCause::index`].
    pub const NAMES: [&'static str; NUM_STALL_KINDS] = [
        "RAW interlock",
        "WAW interlock",
        "functional unit busy",
        "store-load conflict",
        "control transfer",
        "issue width",
    ];

    /// Dense index of the cause kind (payloads ignored).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StallCause::RawInterlock { .. } => 0,
            StallCause::WawInterlock { .. } => 1,
            StallCause::FuBusy { .. } => 2,
            StallCause::StoreLoadConflict => 3,
            StallCause::ControlTransfer => 4,
            StallCause::IssueWidth => 5,
        }
    }

    /// The stable machine-readable label of this cause kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }

    /// The human-readable name of this cause kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// Issue/completion times for one dynamic instruction, in machine cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRecord {
    /// Machine cycle the instruction issued in.
    pub issue: u64,
    /// Machine cycle its (first) result became available — the chaining
    /// point for vector instructions.
    pub complete: u64,
    /// Machine cycle the instruction fully drained (equals `complete` for
    /// scalar instructions; `complete + vlen - 1` for vector ones).
    pub drain: u64,
    /// Machine cycles the instruction waited past the in-order frontier
    /// (the cycle the previous instruction issued in) before issuing.
    pub wait: u64,
    /// The binding constraint behind `wait`; `None` when `wait == 0`.
    pub cause: Option<StallCause>,
}

/// Where the machine cycles of a run went.
///
/// Two complementary views are kept (see DESIGN.md §7):
///
/// * the **cycle view** partitions the timeline exactly:
///   `issue_cycles + Σ stall_cycles + drain_cycles == machine_cycles`.
///   A cycle in which nothing issued is charged to the binding constraint
///   of the *next* instruction to issue; the tail after the last issue is
///   `drain_cycles`. `IssueWidth` is provably always zero here — a
///   width-deferred instruction issues the very next cycle.
/// * the **wait view** sums, over dynamic instructions, how many cycles
///   each waited past the in-order frontier (instruction-cycles, so
///   overlapping waits count once per waiter). This is where `IssueWidth`
///   pressure, the per-class rollup, and the per-unit rollup live.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleAccount {
    machine_cycles: u64,
    issue_cycles: u64,
    stall_cycles: [u64; NUM_STALL_KINDS],
    drain_cycles: u64,
    wait_cycles: [u64; NUM_STALL_KINDS],
    class_waits: [u64; NUM_CLASSES],
    fu_names: Vec<String>,
    fu_waits: Vec<u64>,
}

impl CycleAccount {
    /// Total machine cycles the account covers.
    #[must_use]
    pub fn machine_cycles(&self) -> u64 {
        self.machine_cycles
    }

    /// Machine cycles in which at least one instruction issued.
    #[must_use]
    pub fn issue_cycles(&self) -> u64 {
        self.issue_cycles
    }

    /// Empty machine cycles charged to `cause_index` (cycle view; index as
    /// in [`StallCause::index`]).
    #[must_use]
    pub fn stall_cycles(&self, cause_index: usize) -> u64 {
        self.stall_cycles[cause_index]
    }

    /// Sum of all attributed empty cycles (cycle view, drain excluded).
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// Machine cycles after the last issue while results drained.
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        self.drain_cycles
    }

    /// Instruction-cycles waited on `cause_index` (wait view).
    #[must_use]
    pub fn wait_cycles(&self, cause_index: usize) -> u64 {
        self.wait_cycles[cause_index]
    }

    /// Sum of all instruction-cycles waited (wait view).
    #[must_use]
    pub fn total_wait_cycles(&self) -> u64 {
        self.wait_cycles.iter().sum()
    }

    /// Instruction-cycles instructions of `class` spent waiting.
    #[must_use]
    pub fn class_wait_cycles(&self, class: InstrClass) -> u64 {
        self.class_waits[class.index()]
    }

    /// Per-functional-unit `(name, instruction-cycles waited on FuBusy)`.
    pub fn fu_wait_cycles(&self) -> impl Iterator<Item = (&str, u64)> {
        self.fu_names
            .iter()
            .map(String::as_str)
            .zip(self.fu_waits.iter().copied())
    }

    /// The conservation invariant: the cycle view partitions the timeline.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.issue_cycles + self.total_stall_cycles() + self.drain_cycles == self.machine_cycles
    }

    /// Folds another account into this one (summing both views). Meant for
    /// aggregating runs on the *same machine*: the functional-unit tables
    /// must line up.
    ///
    /// # Panics
    ///
    /// Panics if the two accounts describe machines with different
    /// functional-unit lists.
    pub fn merge(&mut self, other: &CycleAccount) {
        assert_eq!(self.fu_names, other.fu_names, "merging across machines");
        self.machine_cycles += other.machine_cycles;
        self.issue_cycles += other.issue_cycles;
        self.drain_cycles += other.drain_cycles;
        for i in 0..NUM_STALL_KINDS {
            self.stall_cycles[i] += other.stall_cycles[i];
            self.wait_cycles[i] += other.wait_cycles[i];
        }
        for i in 0..NUM_CLASSES {
            self.class_waits[i] += other.class_waits[i];
        }
        for i in 0..self.fu_waits.len() {
            self.fu_waits[i] += other.fu_waits[i];
        }
    }
}

/// Dense register index that is never written: its readiness is always 0,
/// so it pads a use list, and stands for "no destination", without a
/// branch in the issue arithmetic.
pub(crate) const READY: u8 = NUM_REGS as u8;

/// [`StaticTiming::flags`] bit: the instruction touches memory.
pub(crate) const MEM: u8 = 1;
/// [`StaticTiming::flags`] bit: the memory access is a store.
pub(crate) const STORE: u8 = 2;
/// [`StaticTiming::flags`] bit: a vector instruction (takes the vector
/// length).
pub(crate) const VECTOR: u8 = 4;
/// [`StaticTiming::flags`] bit: the destination is a vector register,
/// whose result chains at completion instead of after its drain.
pub(crate) const VEC_DEF: u8 = 8;

/// Cause indices as in [`StallCause::index`].
pub(crate) const RAW: u8 = 0;
pub(crate) const WAW: u8 = 1;
pub(crate) const FU_BUSY: u8 = 2;
const STORE_LOAD: u8 = 3;
const CONTROL: u8 = 4;
const ISSUE_WIDTH: u8 = 5;
/// No stall: the instruction issued at the frontier.
pub(crate) const NO_CAUSE: u8 = NUM_STALL_KINDS as u8;

/// Binding-cause priority: bit `i` of the tie mask is the `i`-th earliest
/// pipeline stage (control, RAW, WAW, store-to-load, functional unit), so
/// the mask's lowest set bit names the cause.
const BY_PRIORITY: [u8; 5] = [CONTROL, RAW, WAW, STORE_LOAD, FU_BUSY];

/// The register behind a dense index (the inverse of
/// [`Reg::dense_index`]).
fn reg_of_dense(dense: usize) -> Reg {
    const FP: usize = NUM_INT_REGS;
    const VEC: usize = NUM_INT_REGS + NUM_FP_REGS;
    match dense {
        0..FP => Reg::Int(IntReg::new_unchecked(dense as u8)),
        FP..VEC => Reg::Fp(FpReg::new_unchecked((dense - FP) as u8)),
        _ if dense < VEC + NUM_VEC_REGS => Reg::Vec(VecReg::new_unchecked((dense - VEC) as u8)),
        _ => Reg::Vl,
    }
}

/// The payload-carrying cause for a compact `(cause index, register,
/// unit)` triple; `None` for [`NO_CAUSE`].
pub(crate) fn stall_cause(cause: u8, reg: u8, unit: usize) -> Option<StallCause> {
    Some(match cause {
        RAW => StallCause::RawInterlock {
            reg: reg_of_dense(usize::from(reg)),
        },
        WAW => StallCause::WawInterlock {
            reg: reg_of_dense(usize::from(reg)),
        },
        FU_BUSY => StallCause::FuBusy { unit },
        STORE_LOAD => StallCause::StoreLoadConflict,
        CONTROL => StallCause::ControlTransfer,
        ISSUE_WIDTH => StallCause::IssueWidth,
        _ => return None,
    })
}

/// Everything the issue arithmetic needs to know about one static
/// instruction: dense use and def indices padded with [`READY`], the
/// class, and the memory and vector flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StaticTiming {
    pub(crate) uses: [u8; 3],
    pub(crate) def: u8,
    pub(crate) class: u8,
    pub(crate) flags: u8,
}

impl StaticTiming {
    fn new(class: InstrClass, uses: &Uses, def: Option<Reg>, mem: Option<bool>) -> Self {
        let mut dense = [READY; 3];
        for (slot, reg) in dense.iter_mut().zip(uses.iter()) {
            *slot = reg.dense_index() as u8;
        }
        let mut flags = match mem {
            Some(true) => MEM | STORE,
            Some(false) => MEM,
            None => 0,
        };
        if matches!(def, Some(Reg::Vec(_))) {
            flags |= VEC_DEF;
        }
        StaticTiming {
            uses: dense,
            def: def.map_or(READY, |reg| reg.dense_index() as u8),
            class: class.index() as u8,
            flags,
        }
    }

    fn of_instr(instr: &Instr) -> Self {
        let mut timing = Self::new(
            instr.class(),
            &instr.uses(),
            instr.def(),
            instr.mem_ref().map(|(_, is_store)| is_store),
        );
        if instr.uses().iter().any(|reg| reg == Reg::Vl) {
            timing.flags |= VECTOR;
        }
        timing
    }
}

/// The timing facts of every static instruction of one program, flat in
/// program order. A static instruction's flat slot is also its writer id
/// in the critical-producer table.
#[derive(Debug, Clone)]
pub(crate) struct TimingTable {
    entries: Vec<StaticTiming>,
    bases: Vec<u32>,
}

impl TimingTable {
    pub(crate) fn new(program: &Program) -> Self {
        let mut entries = Vec::with_capacity(program.static_size());
        let mut bases = Vec::with_capacity(program.functions().len());
        for function in program.functions() {
            bases.push(entries.len() as u32);
            entries.extend(function.instrs().iter().map(StaticTiming::of_instr));
        }
        TimingTable { entries, bases }
    }

    /// The flat slot of `(func, pc)`.
    #[inline(always)]
    pub(crate) fn slot(&self, func: FuncId, pc: usize) -> usize {
        self.bases[func.index()] as usize + pc
    }

    /// The flat slot of each function's first instruction.
    pub(crate) fn bases(&self) -> &[u32] {
        &self.bases
    }

    pub(crate) fn entries(&self) -> &[StaticTiming] {
        &self.entries
    }
}

/// What the cycle step decided, with the constraint cycles it read before
/// committing: everything the attribution step charges from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycle {
    issue: u64,
    complete: u64,
    drain: u64,
    /// The in-order frontier (`cur_cycle`) before this issue.
    frontier: u64,
    /// Whether this was the model's first instruction.
    first: bool,
    /// Whether a full issue group deferred it one cycle.
    deferred: bool,
    /// The pending control stall, each operand's readiness, the
    /// destination's readiness and the memory words' readiness.
    control: u64,
    operands: [u64; 3],
    waw: u64,
    mem: u64,
    fu: usize,
    slot_free: u64,
}

/// What one issue decided, compactly: the [`IssueRecord`] fields with the
/// cause as an index, plus the internal choices the block cache (see
/// [`crate::block`]) records to replay the issue exactly. Computing the
/// extra fields is free — every one is a value the issue had in hand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issued {
    pub(crate) issue: u64,
    pub(crate) complete: u64,
    pub(crate) drain: u64,
    pub(crate) wait: u64,
    /// [`StallCause::index`] of the binding cause, or [`NO_CAUSE`].
    pub(crate) cause: u8,
    /// Dense register a RAW or WAW cause names.
    pub(crate) reg: u8,
    /// Functional unit the instruction reserved.
    pub(crate) fu: usize,
    /// Absolute cycle the reserved slot frees again.
    pub(crate) slot_free: u64,
    /// Empty machine cycles charged to the binding cause (cycle view).
    pub(crate) empty: u64,
    /// Whether this issue advanced `cur_cycle`.
    pub(crate) advance: bool,
    /// Whether this issue opened a new issue cycle (`issue_cycles += 1`).
    pub(crate) count_issue: bool,
    /// The store-to-load constraint value (max `mem_ready` over the span).
    pub(crate) mem_constraint: u64,
}

impl Issued {
    /// The public record, with the cause's payload built.
    pub(crate) fn record(&self) -> IssueRecord {
        IssueRecord {
            issue: self.issue,
            complete: self.complete,
            drain: self.drain,
            wait: self.wait,
            cause: stall_cause(self.cause, self.reg, self.fu),
        }
    }
}

/// The pipeline timing model. Feed it the [`StepInfo`] stream produced by an
/// [`Executor`](crate::Executor).
///
/// Fields are `pub(crate)` so the block timing cache (`crate::block`) can
/// snapshot entry state and apply replay deltas without indirection; the
/// public API surface is unchanged.
#[derive(Debug, Clone)]
pub struct TimingModel {
    pub(crate) width: u32,
    pub(crate) pipe_degree: u32,
    pub(crate) perfect_branch_prediction: bool,
    pub(crate) taken_branch_breaks_issue: bool,
    pub(crate) latency: [u64; NUM_CLASSES],
    pub(crate) fu_of: [usize; NUM_CLASSES],
    /// Issue latency of each class's unit.
    class_busy: [u64; NUM_CLASSES],
    /// `fu_span` of each class's unit.
    class_span: [(u32, u32); NUM_CLASSES],
    /// `(start, end)` of each unit's slots in `fu_free`.
    fu_span: Vec<(u32, u32)>,
    /// Free times of every copy of every unit, flat; each unit's slice is
    /// kept sorted ascending.
    fu_free: Vec<u64>,
    /// Readiness per dense register, plus the never-written [`READY`].
    pub(crate) reg_ready: [u64; NUM_REGS + 1],
    pub(crate) mem_ready: PagedArray<u64>,
    pub(crate) cur_cycle: u64,
    pub(crate) issued_in_cycle: u32,
    pub(crate) control_stall_until: u64,
    pub(crate) last_completion: u64,
    pub(crate) instructions: u64,
    // --- cycle accounting (all fixed-size or sized once at construction;
    // --- the issue hot path never allocates) ---
    pub(crate) issue_cycles: u64,
    pub(crate) stall_cycles: [u64; NUM_STALL_KINDS],
    pub(crate) wait_cycles: [u64; NUM_STALL_KINDS],
    pub(crate) class_waits: [u64; NUM_CLASSES],
    pub(crate) fu_names: Vec<String>,
    pub(crate) fu_waits: Vec<u64>,
    /// Flat slot of the last writer of each register, or [`NO_WRITER`].
    /// Feeds the critical-producer table.
    pub(crate) reg_writer: [u32; NUM_REGS + 1],
    /// Static-instruction base offset per function, for [`Self::issue`];
    /// empty when producer tracking is off.
    producer_bases: Vec<u32>,
    /// Wait cycles charged to each static instruction (flat, indexed by
    /// writer slot); empty when producer tracking is off.
    pub(crate) producer_waits: Vec<u64>,
}

impl TimingModel {
    /// Creates a timing model for `config`, able to track store-to-load
    /// interlocks across `memory_words` of memory.
    #[must_use]
    pub fn new(config: &MachineConfig, memory_words: usize) -> Self {
        let latency = std::array::from_fn(|i| {
            u64::from(config.latency(InstrClass::from_index(i).expect("dense class index")))
        });
        let fu_of = std::array::from_fn(|i| {
            config.unit_of(InstrClass::from_index(i).expect("dense class index"))
        });
        let units = config.functional_units();
        let mut fu_span = Vec::with_capacity(units.len());
        let mut next = 0_u32;
        for fu in units {
            fu_span.push((next, next + fu.multiplicity()));
            next += fu.multiplicity();
        }
        let class_busy = fu_of.map(|fu: usize| u64::from(units[fu].issue_latency()));
        let class_span = fu_of.map(|fu: usize| fu_span[fu]);
        let fu_names: Vec<String> = units.iter().map(|fu| fu.name().to_string()).collect();
        let fu_waits = vec![0_u64; fu_names.len()];
        TimingModel {
            width: config.issue_width(),
            pipe_degree: config.pipe_degree(),
            perfect_branch_prediction: config.perfect_branch_prediction(),
            taken_branch_breaks_issue: config.taken_branch_breaks_issue(),
            latency,
            fu_of,
            class_busy,
            class_span,
            fu_span,
            fu_free: vec![0; next as usize],
            reg_ready: [0; NUM_REGS + 1],
            mem_ready: PagedArray::new(memory_words),
            cur_cycle: 0,
            issued_in_cycle: 0,
            control_stall_until: 0,
            last_completion: 0,
            instructions: 0,
            issue_cycles: 0,
            stall_cycles: [0; NUM_STALL_KINDS],
            wait_cycles: [0; NUM_STALL_KINDS],
            class_waits: [0; NUM_CLASSES],
            fu_names,
            fu_waits,
            reg_writer: [NO_WRITER; NUM_REGS + 1],
            producer_bases: Vec::new(),
            producer_waits: Vec::new(),
        }
    }

    /// Enables the critical-producer table for `program`: RAW/WAW wait
    /// cycles are charged to the static instruction whose latency was
    /// waited on. Allocates once (one slot per static instruction); the
    /// per-issue cost is a couple of array writes.
    pub fn track_producers(&mut self, program: &Program) {
        let mut bases = Vec::with_capacity(program.functions().len());
        let mut next = 0_u32;
        for function in program.functions() {
            bases.push(next);
            next += function.instrs().len() as u32;
        }
        self.producer_bases = bases;
        self.producer_waits = vec![0; next as usize];
    }

    /// Issues one dynamic instruction, returning its issue and completion
    /// cycles (in machine cycles).
    pub fn issue(&mut self, info: &StepInfo) -> IssueRecord {
        let timing = StaticTiming::new(
            info.class,
            &info.uses,
            info.def,
            info.mem.map(|(_, is_store)| is_store),
        );
        let writer = self
            .producer_bases
            .get(info.func.index())
            .map_or(NO_WRITER, |&base| base + info.pc as u32);
        let addr = info.mem.map_or(0, |(addr, _)| addr);
        self.issue_static(timing, writer, addr, info.vlen, info.control.transfers())
            .record()
    }

    /// [`issue`](Self::issue) for a step of the program `table` describes:
    /// the static facts come from the table, not from the step.
    #[inline(always)]
    pub(crate) fn issue_step(&mut self, table: &TimingTable, info: &StepInfo) -> Issued {
        let slot = table.slot(info.func, info.pc);
        self.issue_static(
            table.entries[slot],
            slot as u32,
            info.mem.map_or(0, |(addr, _)| addr),
            info.vlen,
            info.control.transfers(),
        )
    }

    /// The issue every report path runs: the [cycle step](Self::cycle_step)
    /// and then the [attribution step](Self::attribute). `timing` holds the
    /// instruction's static facts, `writer` its producer-table slot, `addr`
    /// its first memory word (read only for memory instructions), `vlen`
    /// its vector length and `transfers` whether it transferred control.
    #[inline(always)]
    pub(crate) fn issue_static(
        &mut self,
        timing: StaticTiming,
        writer: u32,
        addr: usize,
        vlen: u32,
        transfers: bool,
    ) -> Issued {
        let cycle = self.cycle_step(timing, addr, vlen, transfers);
        self.attribute(timing, writer, &cycle)
    }

    /// Decides the issue cycle and commits the machine state it changes:
    /// unit reservations, register and memory readiness, the control stall,
    /// the last completion and the instruction count. It reads no account
    /// state, so a run of cycle steps alone issues every instruction in the
    /// same cycle as a run that also attributes.
    #[inline(always)]
    pub(crate) fn cycle_step(
        &mut self,
        timing: StaticTiming,
        addr: usize,
        vlen: u32,
        transfers: bool,
    ) -> Cycle {
        let class = usize::from(timing.class);

        // Each constraint's required cycle is kept separately so the
        // attribution step can name the binding one — the constraint whose
        // requirement equals the final issue cycle.

        // RAW: all operands ready (unused operand slots read `READY`).
        let ready = &self.reg_ready;
        let operands = timing.uses.map(|reg| ready[usize::from(reg)]);
        let raw_ready = operands[0].max(operands[1]).max(operands[2]);
        // Conservative WAW: previous write to the destination completed.
        let waw_ready = ready[usize::from(timing.def)];
        // Store-to-load (and store-to-store) interlocks on the actual words.
        let mem_end = if timing.flags & MEM != 0 {
            (addr + vlen.max(1) as usize).min(self.mem_ready.len())
        } else {
            addr
        };
        let mut mem_ready_at = 0_u64;
        for a in addr..mem_end {
            mem_ready_at = mem_ready_at.max(self.mem_ready.get(a));
        }

        // Vector instructions occupy their functional unit for one cycle
        // per element (the paper's Figure 2-8 strings of E's) and chain:
        // dependent vector operations may start as soon as the first
        // element emerges, i.e. after the class's operation latency.
        let vector_occupancy = u64::from(vlen).saturating_sub(1);

        // Functional unit: the earliest-free copy. Each unit's free times
        // are kept sorted ascending, so the earliest-free copy is always
        // the front. Timing depends only on the *multiset* of free times,
        // so the canonical order changes nothing observable — but it makes
        // the scoreboard state a pure function of issue history, which the
        // block cache's entry-state keys rely on.
        let fu = self.fu_of[class];
        let (first, end) = self.class_span[class];
        let slot_free = self.fu_free[first as usize];

        // In-order issue: never before the previous instruction's cycle,
        // nor before an outstanding control transfer allows fetch to
        // resume, nor before every constraint above is satisfied. A full
        // issue group defers the instruction exactly one cycle, into a
        // cycle where it *does* issue.
        let cur = self.cur_cycle;
        let control = self.control_stall_until;
        let bound = cur
            .max(control)
            .max(raw_ready)
            .max(waw_ready)
            .max(mem_ready_at)
            .max(slot_free);
        let deferred = bound == cur && self.issued_in_cycle >= self.width;
        let t = bound + u64::from(deferred);

        // Commit the issue.
        self.issued_in_cycle = if t > cur { 1 } else { self.issued_in_cycle + 1 };
        self.cur_cycle = t;
        let slot_free_at = t + self.class_busy[class].max(1 + vector_occupancy);
        self.reserve(first, end, slot_free_at);

        // Chain point: when the first result element is available. For
        // scalar instructions this is also the completion time.
        let complete = t + self.latency[class];
        let drain = complete + vector_occupancy;
        if timing.def != READY {
            // Vector results chain (consumers are vector instructions that
            // also proceed element-by-element); scalar results are ready at
            // completion.
            self.reg_ready[usize::from(timing.def)] = if timing.flags & VEC_DEF != 0 {
                complete
            } else {
                drain
            };
        }
        if timing.flags & STORE != 0 {
            for a in addr..mem_end {
                self.mem_ready.set(a, drain);
            }
        }
        self.last_completion = self.last_completion.max(drain);

        // Control transfers.
        if transfers {
            if !self.perfect_branch_prediction {
                self.control_stall_until = self.control_stall_until.max(complete);
            }
            if self.taken_branch_breaks_issue {
                self.control_stall_until = self.control_stall_until.max(t + 1);
            }
        }

        let first_issue = self.instructions == 0;
        self.instructions += 1;
        Cycle {
            issue: t,
            complete,
            drain,
            frontier: cur,
            first: first_issue,
            deferred,
            control,
            operands,
            waw: waw_ready,
            mem: mem_ready_at,
            fu,
            slot_free: slot_free_at,
        }
    }

    /// Charges the wait `cycle` decided to its binding cause, in the cycle
    /// and wait views, the class and unit rollups and the producer table,
    /// then records `writer` as the destination's last writer. Writes only
    /// account state.
    #[inline(always)]
    pub(crate) fn attribute(&mut self, timing: StaticTiming, writer: u32, cycle: &Cycle) -> Issued {
        let (t, cur) = (cycle.issue, cycle.frontier);
        let raw_ready = cycle.operands[0]
            .max(cycle.operands[1])
            .max(cycle.operands[2]);

        // The binding constraint: whichever required exactly the final
        // cycle. Ties break toward the earlier pipeline stage (control
        // first, functional unit last) so attribution is deterministic.
        // A width deferral lands in a cycle where the instruction issues,
        // so `IssueWidth` never produces an empty cycle.
        let mut cause = NO_CAUSE;
        if cycle.deferred {
            cause = ISSUE_WIDTH;
        } else if t > cur {
            let ties = u32::from(cycle.control == t)
                | u32::from(raw_ready == t) << 1
                | u32::from(cycle.waw == t) << 2
                | u32::from(cycle.mem == t) << 3
                | 1 << 4;
            cause = BY_PRIORITY[ties.trailing_zeros() as usize];
        }

        // Cycle view: machine cycles that passed with no issue at all are
        // charged to this instruction's binding constraint. Wait view:
        // cycles *this instruction* waited past the frontier.
        let empty = if cycle.first {
            t
        } else {
            t.saturating_sub(cur + 1)
        };
        let wait = t - cur;
        let mut reg = READY;
        if cause != NO_CAUSE {
            let index = usize::from(cause);
            self.stall_cycles[index] += empty;
            self.wait_cycles[index] += wait;
            self.class_waits[usize::from(timing.class)] += wait;
            match cause {
                FU_BUSY => self.fu_waits[cycle.fu] += wait,
                RAW => {
                    // The first operand whose readiness (read before the
                    // cycle step committed this instruction's own result)
                    // binds.
                    reg = if cycle.operands[0] == t {
                        timing.uses[0]
                    } else if cycle.operands[1] == t {
                        timing.uses[1]
                    } else {
                        timing.uses[2]
                    };
                    self.charge_producer(usize::from(reg), wait);
                }
                WAW => {
                    reg = timing.def;
                    self.charge_producer(usize::from(reg), wait);
                }
                _ => {}
            }
        } else {
            debug_assert_eq!(empty, 0);
            debug_assert_eq!(wait, 0);
        }

        let advance = t > cur;
        let count_issue = advance || cycle.first;
        self.issue_cycles += u64::from(count_issue);
        // After the charge, which read the previous writer.
        if timing.def != READY {
            self.reg_writer[usize::from(timing.def)] = writer;
        }
        Issued {
            issue: t,
            complete: cycle.complete,
            drain: cycle.drain,
            wait,
            cause,
            reg,
            fu: cycle.fu,
            slot_free: cycle.slot_free,
            empty,
            advance,
            count_issue,
            mem_constraint: cycle.mem,
        }
    }

    /// The free times of every copy of `fu`, sorted ascending.
    pub(crate) fn fu_slots(&self, fu: usize) -> &[u64] {
        let (start, end) = self.fu_span[fu];
        &self.fu_free[start as usize..end as usize]
    }

    /// Overwrites one copy's free time (the block cache's replay applies
    /// recorded finals, which keep each unit's slice sorted).
    pub(crate) fn set_fu_slot(&mut self, fu: usize, slot: usize, free_at: u64) {
        self.fu_free[self.fu_span[fu].0 as usize + slot] = free_at;
    }

    /// Consumes the earliest-free slot of `fu` (the front of its sorted
    /// free-time list) and re-inserts it freeing at `free_at`, preserving
    /// the ascending order the issue body relies on.
    pub(crate) fn reserve_slot(&mut self, fu: usize, free_at: u64) {
        let (start, end) = self.fu_span[fu];
        self.reserve(start, end, free_at);
    }

    /// [`reserve_slot`](Self::reserve_slot) on the copies at
    /// `fu_free[start..end]`.
    #[inline(always)]
    fn reserve(&mut self, start: u32, end: u32, free_at: u64) {
        let slots = &mut self.fu_free[start as usize..end as usize];
        let mut i = 0;
        while i + 1 < slots.len() && slots[i + 1] < free_at {
            slots[i] = slots[i + 1];
            i += 1;
        }
        slots[i] = free_at;
    }

    /// Charges `wait` cycles to the static instruction that last wrote the
    /// register at dense index `dense` (no-op when producer tracking is off
    /// or the register was live-in).
    #[inline]
    pub(crate) fn charge_producer(&mut self, dense: usize, wait: u64) {
        let writer = self.reg_writer[dense];
        if let Some(slot) = self.producer_waits.get_mut(writer as usize) {
            *slot += wait;
        }
    }

    /// Dynamic instructions issued so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total elapsed machine cycles (time of the last completion).
    #[must_use]
    pub fn machine_cycles(&self) -> u64 {
        self.last_completion
    }

    /// Total elapsed time in base-machine cycles (machine cycles divided by
    /// the superpipelining degree).
    #[must_use]
    pub fn base_cycles(&self) -> f64 {
        self.last_completion as f64 / f64::from(self.pipe_degree)
    }

    /// The cycle account so far. The drain tail is computed here (cycles
    /// after the last issue until the last completion), which is what makes
    /// the account conserve: `issue + Σ stalls + drain == machine_cycles`.
    #[must_use]
    pub fn account(&self) -> CycleAccount {
        let drain_cycles = if self.instructions == 0 {
            0
        } else {
            self.last_completion.saturating_sub(self.cur_cycle + 1)
        };
        CycleAccount {
            machine_cycles: self.last_completion,
            issue_cycles: self.issue_cycles,
            stall_cycles: self.stall_cycles,
            drain_cycles,
            wait_cycles: self.wait_cycles,
            class_waits: self.class_waits,
            fu_names: self.fu_names.clone(),
            fu_waits: self.fu_waits.clone(),
        }
    }

    /// Wait cycles charged to each static instruction, flat across
    /// functions in program order (empty unless
    /// [`track_producers`](Self::track_producers) was called).
    #[must_use]
    pub fn producer_waits(&self) -> &[u64] {
        &self.producer_waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ControlEvent, ExecOptions, Executor};
    use supersym_isa::{AsmBuilder, IntReg};
    use supersym_machine::presets;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    fn run(program: &supersym_isa::Program, config: &MachineConfig) -> (u64, f64) {
        let options = ExecOptions {
            memory_words: 1024,
            ..Default::default()
        };
        let mut exec = Executor::new(program, options).unwrap();
        let mut timing = TimingModel::new(config, options.memory_words);
        while let Some(info) = exec.step().unwrap() {
            timing.issue(&info);
        }
        (timing.instructions(), timing.base_cycles())
    }

    fn independent_adds(n: usize) -> supersym_isa::Program {
        let mut asm = AsmBuilder::new("main");
        for i in 0..n {
            // Distinct destination and source registers: fully parallel.
            asm.add(r((i % 8) as u8 + 1), IntReg::ZERO, (i as i64).into());
        }
        asm.halt();
        asm.finish_program()
    }

    fn dependent_chain(n: usize) -> supersym_isa::Program {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 0);
        for _ in 0..n {
            asm.add(r(1), r(1), 1.into());
        }
        asm.halt();
        asm.finish_program()
    }

    #[test]
    fn base_machine_one_per_cycle() {
        let program = independent_adds(10);
        let (instrs, cycles) = run(&program, &presets::base());
        // 11 instructions, one per cycle, each completing a cycle later.
        assert_eq!(instrs, 11);
        assert!((cycles - 11.0).abs() < 1e-9);
    }

    #[test]
    fn superscalar_overlaps_independent_work() {
        let program = independent_adds(24);
        let (_, base_cycles) = run(&program, &presets::base());
        let (_, ss3_cycles) = run(&program, &presets::ideal_superscalar(3));
        let speedup = base_cycles / ss3_cycles;
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    #[test]
    fn dependent_chain_gains_nothing() {
        let program = dependent_chain(30);
        let (_, base_cycles) = run(&program, &presets::base());
        let (_, ss8_cycles) = run(&program, &presets::ideal_superscalar(8));
        // The serial chain cannot speed up (small constant slack allowed).
        assert!((base_cycles - ss8_cycles).abs() < 2.0);
    }

    #[test]
    fn superpipelined_equals_superscalar_steady_state() {
        // §2.7: machines of equal degree have basically the same performance.
        let program = independent_adds(200);
        let (_, ss) = run(&program, &presets::ideal_superscalar(4));
        let (_, sp) = run(&program, &presets::superpipelined(4));
        let ratio = sp / ss;
        assert!(ratio > 0.99 && ratio < 1.15, "ratio {ratio}");
    }

    #[test]
    fn superpipelined_startup_transient() {
        // Figure 4-2: a basic block of six independent instructions. The
        // degree-3 superscalar issues the last at t1; the superpipelined
        // machine takes 1/3 base cycle per issue and falls behind.
        fn burst(config: &MachineConfig, n: usize) -> f64 {
            let mut timing = TimingModel::new(config, 16);
            for i in 0..n {
                let info = StepInfo {
                    func: supersym_isa::FuncId::new(0),
                    pc: i,
                    class: InstrClass::IntAdd,
                    uses: Default::default(),
                    def: Some(supersym_isa::Reg::Int(r(i as u8 + 1))),
                    mem: None,
                    vlen: 0,
                    control: ControlEvent::None,
                };
                timing.issue(&info);
            }
            timing.base_cycles()
        }
        use crate::exec::StepInfo;
        let ss = burst(&presets::ideal_superscalar(3), 6);
        let sp = burst(&presets::superpipelined(3), 6);
        assert!(sp > ss, "superpipelined {sp} should trail superscalar {ss}");
        // And the gap shrinks as the degree rises (supersymmetry, Fig 4-1).
        let ss8 = burst(&presets::ideal_superscalar(8), 6);
        let sp8 = burst(&presets::superpipelined(8), 6);
        assert!((sp8 - ss8) < (sp - ss) + 1e-9);
    }

    #[test]
    fn class_conflicts_stall() {
        // All loads: the conflict machine has one memory port.
        let mut asm = AsmBuilder::new("main");
        for i in 0..12 {
            asm.load(r((i % 4) as u8 + 1), IntReg::GP, i);
        }
        asm.halt();
        let program = asm.finish_program();
        let (_, ideal) = run(&program, &presets::ideal_superscalar(4));
        let (_, conflict) = run(&program, &presets::superscalar_with_class_conflicts(4));
        assert!(
            conflict > ideal * 2.0,
            "conflict {conflict} vs ideal {ideal}"
        );
    }

    #[test]
    fn waw_reuse_serializes() {
        // Writing the same register repeatedly is an artificial dependence.
        let mut asm = AsmBuilder::new("main");
        for i in 0..16 {
            asm.add(r(1), IntReg::ZERO, (i as i64).into());
        }
        asm.halt();
        let program = asm.finish_program();
        let (_, reuse) = run(&program, &presets::ideal_superscalar(4));
        let spread = independent_adds(16);
        let (_, parallel) = run(&spread, &presets::ideal_superscalar(4));
        assert!(reuse > parallel, "reuse {reuse} vs parallel {parallel}");
    }

    #[test]
    fn store_load_interlock() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 7);
        asm.store(r(1), IntReg::GP, 0);
        asm.load(r(2), IntReg::GP, 0);
        asm.halt();
        let program = asm.finish_program();
        // Make stores slow; the dependent load must wait.
        let slow_store = MachineConfig::builder("slow-store")
            .latency(InstrClass::Store, 5)
            .build()
            .unwrap();
        let (_, slow) = run(&program, &slow_store);
        let (_, fast) = run(&program, &presets::base());
        assert!(slow > fast + 3.0, "slow {slow} fast {fast}");
    }

    #[test]
    fn imperfect_prediction_costs_taken_branches() {
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        asm.movi(r(1), 20);
        asm.bind(top);
        asm.sub(r(1), r(1), 1.into());
        asm.cmp_gt(r(2), r(1), 0.into());
        asm.br_true(r(2), top);
        asm.halt();
        let program = asm.finish_program();
        let perfect = presets::base();
        let imperfect = MachineConfig::builder("no-prediction")
            .perfect_branch_prediction(false)
            .latency(InstrClass::Branch, 3)
            .build()
            .unwrap();
        let (_, a) = run(&program, &perfect);
        let (_, b) = run(&program, &imperfect);
        assert!(b > a + 19.0, "imperfect {b} vs perfect {a}");
    }

    #[test]
    fn underpipelined_half_issue_rate() {
        let program = independent_adds(20);
        let (_, base) = run(&program, &presets::base());
        let (_, half) = run(&program, &presets::underpipelined_half_issue());
        assert!(half > base * 1.7, "half {half} base {base}");
    }

    #[test]
    fn vector_occupancy_and_chaining() {
        use crate::exec::StepInfo;
        use supersym_isa::{FpOp, Instr, VecReg};
        let config = presets::base();
        let mut timing = TimingModel::new(&config, 256);
        let vinstr = |dst: u8, lhs: u8| Instr::VOp {
            op: FpOp::FAdd,
            dst: VecReg::new_unchecked(dst),
            lhs: VecReg::new_unchecked(lhs),
            rhs: VecReg::new_unchecked(lhs),
        };
        let info = |instr: &Instr, pc: usize| StepInfo {
            func: supersym_isa::FuncId::new(0),
            pc,
            class: instr.class(),
            uses: instr.uses(),
            def: instr.def(),
            mem: None,
            vlen: 16,
            control: ControlEvent::None,
        };
        // The paper's §2.3 example: a vector load chained into a vector
        // add. The units differ, so the add starts at the load's chain
        // point rather than after its full drain.
        let vld = Instr::VLoad {
            dst: VecReg::new_unchecked(1),
            base: supersym_isa::IntReg::GP,
            offset: 0,
            alias: supersym_isa::MemAlias::unknown(),
        };
        let mut ld_info = info(&vld, 0);
        ld_info.mem = Some((0, false));
        let first = timing.issue(&ld_info);
        // Drains one element per cycle after the chain point.
        assert_eq!(first.drain, first.complete + 15);
        let b = vinstr(2, 1);
        let second = timing.issue(&info(&b, 1));
        assert!(second.issue <= first.complete, "no chaining: {second:?}");
        // Two vector ops on the SAME functional unit serialize on its
        // element-per-cycle occupancy.
        let c = vinstr(5, 4);
        let third = timing.issue(&info(&c, 2));
        assert!(
            third.issue >= second.issue + 16,
            "functional unit not reserved: {third:?}"
        );
    }

    #[test]
    fn issue_width_limits_per_cycle() {
        let program = independent_adds(64);
        let (_, w2) = run(&program, &presets::ideal_superscalar(2));
        let (_, w4) = run(&program, &presets::ideal_superscalar(4));
        assert!(w2 > w4 * 1.5, "w2 {w2} w4 {w4}");
    }

    // -----------------------------------------------------------------------
    // Cycle accounting
    // -----------------------------------------------------------------------

    fn account_for(
        program: &supersym_isa::Program,
        config: &MachineConfig,
    ) -> (CycleAccount, Vec<IssueRecord>) {
        let options = ExecOptions {
            memory_words: 1024,
            ..Default::default()
        };
        let mut exec = Executor::new(program, options).unwrap();
        let mut timing = TimingModel::new(config, options.memory_words);
        timing.track_producers(program);
        let mut records = Vec::new();
        while let Some(info) = exec.step().unwrap() {
            records.push(timing.issue(&info));
        }
        (timing.account(), records)
    }

    #[test]
    fn base_machine_account_is_all_issue() {
        // 11 instructions, one per cycle, unit latencies: 11 issue cycles,
        // no stalls, no drain tail.
        let program = independent_adds(10);
        let (account, _) = account_for(&program, &presets::base());
        assert_eq!(account.machine_cycles(), 11);
        assert_eq!(account.issue_cycles(), 11);
        assert_eq!(account.total_stall_cycles(), 0);
        assert_eq!(account.drain_cycles(), 0);
        assert!(account.conserved());
        // Wait view: every instruction after the first defers exactly one
        // cycle (FU reservation on the adds' shared unit, issue width on
        // the halt) even though no cycle is empty.
        assert_eq!(account.total_wait_cycles(), 10);
        assert_eq!(
            account.total_wait_cycles(),
            account.wait_cycles(StallCause::FuBusy { unit: 0 }.index())
                + account.wait_cycles(StallCause::IssueWidth.index())
        );
    }

    #[test]
    fn dependent_chain_charges_raw_interlocks() {
        let program = dependent_chain(10);
        let config = presets::ideal_superscalar(8);
        let (account, records) = account_for(&program, &config);
        assert!(account.conserved());
        // Every add waits on its predecessor... but with unit latencies the
        // result is ready next cycle, so waits are width-free RAW slack of
        // zero — use a latency machine instead for nonzero waits.
        let slow = MachineConfig::builder("slow-alu")
            .issue_width(8)
            .latency(InstrClass::IntAdd, 4)
            .build()
            .unwrap();
        let (slow_account, slow_records) = account_for(&program, &slow);
        assert!(slow_account.conserved());
        assert!(
            slow_account.stall_cycles(
                StallCause::RawInterlock {
                    reg: Reg::Int(r(1))
                }
                .index()
            ) > slow_account.total_stall_cycles() / 2,
            "a serial chain on a latency machine is RAW-bound: {slow_account:?}"
        );
        // The chain's waits name the chained register as the cause.
        let raw_waits = slow_records
            .iter()
            .filter(|record| {
                matches!(record.cause, Some(StallCause::RawInterlock { reg }) if reg == Reg::Int(r(1)))
            })
            .count();
        assert!(raw_waits >= 9, "raw_waits {raw_waits}");
        let _ = records;
    }

    #[test]
    fn fu_reservation_charges_fu_busy() {
        let program = independent_adds(20);
        let (account, _) = account_for(&program, &presets::underpipelined_half_issue());
        assert!(account.conserved());
        let fu_busy = account.stall_cycles(StallCause::FuBusy { unit: 0 }.index());
        assert!(
            fu_busy >= 19,
            "every other cycle is an FU-reservation stall: {account:?}"
        );
        // The per-unit rollup sees the same pressure on the single unit.
        let (name, waited) = account.fu_wait_cycles().next().unwrap();
        assert_eq!(name, "universal");
        assert!(waited >= 19);
    }

    #[test]
    fn drain_tail_is_accounted() {
        // A single latency-5 instruction: one issue cycle, four drain.
        let config = MachineConfig::builder("slow")
            .latency(InstrClass::IntAdd, 5)
            .build()
            .unwrap();
        let mut timing = TimingModel::new(&config, 16);
        let info = StepInfo {
            func: supersym_isa::FuncId::new(0),
            pc: 0,
            class: InstrClass::IntAdd,
            uses: Default::default(),
            def: Some(Reg::Int(r(1))),
            mem: None,
            vlen: 0,
            control: ControlEvent::None,
        };
        timing.issue(&info);
        let account = timing.account();
        assert_eq!(account.machine_cycles(), 5);
        assert_eq!(account.issue_cycles(), 1);
        assert_eq!(account.drain_cycles(), 4);
        assert!(account.conserved());
    }

    #[test]
    fn store_load_conflicts_are_attributed() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 7);
        asm.store(r(1), IntReg::GP, 0);
        asm.load(r(2), IntReg::GP, 0);
        asm.halt();
        let program = asm.finish_program();
        let slow_store = MachineConfig::builder("slow-store")
            .issue_width(4)
            .latency(InstrClass::Store, 6)
            .build()
            .unwrap();
        let (account, _) = account_for(&program, &slow_store);
        assert!(account.conserved());
        assert!(
            account.stall_cycles(StallCause::StoreLoadConflict.index()) >= 4,
            "the load waits out the store: {account:?}"
        );
    }

    #[test]
    fn control_transfers_are_attributed() {
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        asm.movi(r(1), 10);
        asm.bind(top);
        asm.sub(r(1), r(1), 1.into());
        asm.cmp_gt(r(2), r(1), 0.into());
        asm.br_true(r(2), top);
        asm.halt();
        let program = asm.finish_program();
        let imperfect = MachineConfig::builder("no-prediction")
            .issue_width(4)
            .perfect_branch_prediction(false)
            .latency(InstrClass::Branch, 3)
            .build()
            .unwrap();
        let (account, _) = account_for(&program, &imperfect);
        assert!(account.conserved());
        assert!(
            account.stall_cycles(StallCause::ControlTransfer.index()) >= 18,
            "taken branches stall fetch: {account:?}"
        );
    }

    #[test]
    fn issue_width_never_empties_a_cycle() {
        // Cycle view: width stalls are provably zero; the pressure shows in
        // the wait view instead.
        let program = independent_adds(64);
        for width in [1, 2, 4] {
            let (account, _) = account_for(&program, &presets::ideal_superscalar(width));
            assert_eq!(account.stall_cycles(StallCause::IssueWidth.index()), 0);
            assert!(account.conserved());
        }
    }

    #[test]
    fn critical_producers_identify_the_latency_source() {
        // movi writes r1 with a big latency; the consumer waits on it.
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 3);
        asm.add(r(2), r(1), 1.into());
        asm.halt();
        let program = asm.finish_program();
        let slow = MachineConfig::builder("slow-alu")
            .issue_width(4)
            .latency(InstrClass::IntAdd, 7)
            .build()
            .unwrap();
        let options = ExecOptions {
            memory_words: 64,
            ..Default::default()
        };
        let mut exec = Executor::new(&program, options).unwrap();
        let mut timing = TimingModel::new(&slow, options.memory_words);
        timing.track_producers(&program);
        while let Some(info) = exec.step().unwrap() {
            timing.issue(&info);
        }
        let waits = timing.producer_waits();
        assert_eq!(waits.len(), 3);
        assert!(
            waits[0] >= 6,
            "the movi is the critical producer: {waits:?}"
        );
        assert_eq!(waits[1], 0);
        assert_eq!(waits[2], 0);
    }

    #[test]
    fn class_waits_follow_the_waiting_class() {
        let program = dependent_chain(8);
        let slow = MachineConfig::builder("slow-alu")
            .issue_width(8)
            .latency(InstrClass::IntAdd, 4)
            .build()
            .unwrap();
        let (account, _) = account_for(&program, &slow);
        assert!(account.class_wait_cycles(InstrClass::IntAdd) > 0);
        assert_eq!(account.class_wait_cycles(InstrClass::FpMul), 0);
    }

    #[test]
    fn vector_streams_conserve() {
        use supersym_isa::{FpOp, Instr, VecReg};
        let config = presets::cray1();
        let mut timing = TimingModel::new(&config, 256);
        for i in 0..6_u8 {
            let instr = Instr::VOp {
                op: FpOp::FAdd,
                dst: VecReg::new_unchecked(i % 4 + 1),
                lhs: VecReg::new_unchecked(i % 4),
                rhs: VecReg::new_unchecked(i % 4),
            };
            let info = StepInfo {
                func: supersym_isa::FuncId::new(0),
                pc: i as usize,
                class: InstrClass::FpAdd,
                uses: instr.uses(),
                def: instr.def(),
                mem: None,
                vlen: 16,
                control: ControlEvent::None,
            };
            timing.issue(&info);
        }
        let account = timing.account();
        assert!(account.conserved(), "{account:?}");
        assert!(
            account.total_stall_cycles() > 0,
            "vector FU occupancy stalls"
        );
    }

    #[test]
    fn account_merge_sums_both_views() {
        let program = dependent_chain(10);
        let slow = MachineConfig::builder("slow-alu")
            .issue_width(8)
            .latency(InstrClass::IntAdd, 4)
            .build()
            .unwrap();
        let (one, _) = account_for(&program, &slow);
        let mut merged = one.clone();
        merged.merge(&one);
        assert_eq!(merged.machine_cycles(), 2 * one.machine_cycles());
        assert_eq!(merged.issue_cycles(), 2 * one.issue_cycles());
        assert_eq!(merged.total_wait_cycles(), 2 * one.total_wait_cycles());
        assert!(merged.conserved());
    }
}
