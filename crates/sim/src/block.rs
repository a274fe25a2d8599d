//! Trace-level timing memoization.
//!
//! Loop-heavy programs spend nearly all of their dynamic instructions
//! re-simulating the same instruction traces from the same pipeline
//! states. This module caches the timing model's work per *trace* — a
//! dynamic run of instructions extending across forward branches, ended by
//! a backward transfer, call, return, halt, or length cap. The first time
//! a trace runs from a given entry state, every issue outcome is recorded;
//! later visits that match the same entry state verify each step cheaply
//! (static location, control outcome, vector length, store-to-load
//! constraint) and apply one aggregated state delta per trace instead of
//! re-deriving constraints per instruction.
//!
//! ## Exactness
//!
//! The cache is not an approximation. A replay leaves the timing model in
//! a state the exact model is bit-indistinguishable from, guaranteed by
//! three layers (see DESIGN.md §12 for the full argument):
//!
//! 1. **Entry-state spec (the variant key).** During recording, the first
//!    reference to each register or functional unit captures its entry
//!    state *relative to the entry cycle* `base`: register readiness
//!    (in-flight producers), every slot horizon of each unit used, the
//!    pending control stall, and the issue-width fill of the entry cycle.
//!    Values at or below `base` saturate to 0 — an already-met constraint
//!    can neither bind nor tie at a stalled cycle, so all such states are
//!    timing-equivalent. A later visit replays a variant only if its spec
//!    matches the live state exactly.
//! 2. **Per-instruction verification.** What the spec cannot cover is
//!    checked per replayed instruction: the static location (so control
//!    flow, including return targets, must retrace the recording), the
//!    control outcome, the vector length, and the store-to-load
//!    constraint (memory addresses vary across iterations). A mismatch
//!    *materializes* the already-verified prefix from the recording —
//!    applying exactly the state updates the exact model would have made —
//!    and falls back to the exact model from the diverging step.
//! 3. **Live memory and producer updates.** Store addresses come from the
//!    live [`StepInfo`], so the memory scoreboard reflects actual
//!    execution; stall charges against producers outside the trace are
//!    resolved against the live writer table.
//!
//! Any recording whose spec exceeds [`MAX_REL`] (a pathologically deep
//! pipeline horizon) is discarded — the cache only ever trades work,
//! never answers.

use crate::error::SimError;
use crate::exec::{ControlEvent, Executor, StepInfo};
use crate::timing::{
    Issued, StaticTiming, TimingModel, FU_BUSY, NO_CAUSE, NUM_STALL_KINDS, RAW, READY, VEC_DEF, WAW,
};
use supersym_isa::{Program, NUM_CLASSES};
use supersym_trace::MetricsRegistry;

/// Longest trace the cache will record, in instructions.
pub(crate) const MAX_TRACE_LEN: usize = 64;
/// Largest entry-relative horizon a spec may contain; a deeper recording
/// is discarded (counted in [`BlockCacheStats::overflows`]).
const MAX_REL: u64 = 1 << 20;
/// Entry-state variants retained per trace; a full trace evicts
/// round-robin.
const MAX_VARIANTS: usize = 8;

/// Sentinel in [`ReplayStep::def_dense`]: the instruction writes nothing.
const NO_DEF: u16 = u16::MAX;
/// Sentinel in the trace index: this entry pc has not been seen.
const UNREGISTERED: u32 = u32::MAX;

/// Packs a static location as `(func << 32) | pc`.
#[inline]
pub(crate) fn packed_loc(info: &StepInfo) -> u64 {
    (u64::from(info.func.index() as u32) << 32) | info.pc as u64
}

/// Whether the trace being executed ends after this step: a halt, a
/// call/return (the successor depends on the call stack), or a backward
/// taken transfer (a loop back-edge — ending here aligns trace entries
/// with loop heads), or any transfer landing exactly on the trace entry.
#[inline]
pub(crate) fn trace_break(control: ControlEvent, pc: usize, cursor: u64, entry: u64) -> bool {
    match control {
        ControlEvent::Halt | ControlEvent::Call | ControlEvent::Return => true,
        ControlEvent::Branch { taken: true } | ControlEvent::Jump => {
            cursor == entry || ((cursor & 0xFFFF_FFFF) as usize) < pc
        }
        _ => false,
    }
}

/// Counters describing what the trace cache did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Trace visits answered by replaying a recorded variant.
    pub hits: u64,
    /// Trace visits that ran exact and recorded a new variant.
    pub misses: u64,
    /// Recorded variants overwritten because a trace was at capacity.
    pub evictions: u64,
    /// Replays abandoned mid-trace by per-instruction verification
    /// (control divergence, vector length, or store-to-load drift).
    pub fallbacks: u64,
    /// Recordings discarded because the entry-state spec exceeded the
    /// relative-horizon cap.
    pub overflows: u64,
    /// Dynamic instructions issued via replay.
    pub replayed_instructions: u64,
}

impl BlockCacheStats {
    /// Fraction of trace visits served by replay.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds the counters into `registry` under `sim.block_cache.*`.
    pub fn register(&self, registry: &mut MetricsRegistry) {
        registry.counter("sim.block_cache.hits", self.hits);
        registry.counter("sim.block_cache.misses", self.misses);
        registry.counter("sim.block_cache.evictions", self.evictions);
        registry.counter("sim.block_cache.fallbacks", self.fallbacks);
        registry.counter("sim.block_cache.overflows", self.overflows);
        registry.counter(
            "sim.block_cache.replayed_instructions",
            self.replayed_instructions,
        );
    }
}

/// A variant's entry-state spec: every piece of timing state the recording
/// read before writing it, with its entry-relative value. A visit matches
/// the variant iff every component evaluates equal. Stored
/// struct-of-arrays so the match — the hottest comparison in the cache —
/// runs as tight branch-free loops over packed values.
#[derive(Debug, Clone, Default)]
struct Spec {
    /// `(instructions == 0) | issued_in_cycle << 1` at entry.
    flags: u64,
    /// `control_stall_until` at entry, entry-relative, saturated.
    csu_rel: u64,
    /// Dense indices of registers read before written, paired with
    /// `reg_rels`.
    reg_idx: Vec<u16>,
    /// Entry-relative readiness per register in `reg_idx`.
    reg_rels: Vec<u64>,
    /// Units whose slot horizons the trace depends on.
    fu_units: Vec<u16>,
    /// Entry-relative free times: the full slot list of each unit in
    /// `fu_units`, concatenated in order (slot counts are fixed by the
    /// machine config, so the split points are implicit).
    fu_rels: Vec<u64>,
}

/// The per-step fields bulk replay verifies (and the store drain it
/// applies), split out of [`ReplayStep`] so the hot loop streams 32-byte
/// records instead of pulling whole cold steps through the cache.
#[derive(Debug, Clone, Copy)]
struct HotStep {
    /// Packed static location; a live mismatch aborts the replay.
    loc: u64,
    /// Recorded store-to-load constraint, entry-relative, saturated.
    mem_rel: u64,
    /// Completion-drain cycle, entry-relative — written to the memory
    /// scoreboard for stores.
    drain_rel: u64,
    /// Vector length the recording saw; a live mismatch aborts.
    expected_vlen: u32,
    /// Control outcome the recording saw; a live mismatch aborts.
    control: ControlEvent,
}

/// One recorded issue, relative to the trace's entry cycle `base`.
///
/// `Copy` and flat on purpose: replay and materialization never allocate.
#[derive(Debug, Clone, Copy)]
struct ReplayStep {
    /// Packed static location; a live mismatch (divergent control flow)
    /// aborts the replay.
    loc: u64,
    /// Control outcome the recording saw; a live mismatch aborts.
    control: ControlEvent,
    /// Vector length the recording saw; a live mismatch aborts.
    expected_vlen: u32,
    /// Instruction class index (for per-class wait attribution during
    /// materialization).
    class: u16,
    /// Recorded store-to-load constraint (`max mem_ready` over the span),
    /// entry-relative and saturated at 0; a live mismatch aborts.
    mem_rel: u64,
    issue_rel: u64,
    complete_rel: u64,
    drain_rel: u64,
    wait: u64,
    empty: u64,
    /// Binding cause index, or [`NO_CAUSE`], and the dense register a
    /// RAW or WAW cause names.
    cause: u8,
    cause_reg: u8,
    advance: bool,
    count_issue: bool,
    /// Reserved unit; replay re-inserts `slot_free_rel` into its sorted
    /// free-time list exactly as the exact model did.
    fu: u16,
    slot_free_rel: u64,
    /// Dense index of the written register, or [`NO_DEF`].
    def_dense: u16,
    def_ready_rel: u64,
    /// Writer slot for the producer table.
    def_writer: u32,
}

/// The aggregated effect of a whole trace on the timing model — what a
/// fully verified replay applies in O(footprint) instead of O(length).
#[derive(Debug, Clone, Default)]
struct Summary {
    len: u32,
    /// Whether a completed replay's exit state provably re-satisfies this
    /// variant's own spec at the new entry cycle (checked once at
    /// recording time by [`BlockCache::finish_recording`]). When the trace
    /// then transfers straight back to its own entry — a steady-state loop
    /// — the replay loops in place without re-running the variant scan.
    self_replayable: bool,
    /// `issued_in_cycle` at trace exit (deterministic given the spec).
    end_issued: u32,
    issue_cycles_delta: u64,
    /// `cur_cycle - base` at trace exit.
    end_cur_rel: u64,
    /// `control_stall_until` at trace exit, entry-relative, saturated.
    /// Applied as a `max` — exact when positive, and the saturated-zero
    /// case is timing-equivalent (a horizon at or below `base` never
    /// binds; see the module docs).
    end_csu_rel: u64,
    /// `control_stall_until` *before* the final step's control update,
    /// entry-relative, saturated. A control-only divergence at the final
    /// step (a loop-exit branch) applies the summary with this horizon and
    /// takes the control update from the live outcome instead.
    csu_excl_last_rel: u64,
    /// Largest drain over the trace; `last_completion` is a running max.
    max_drain_rel: u64,
    stall_delta: [u64; NUM_STALL_KINDS],
    wait_delta: [u64; NUM_STALL_KINDS],
    /// Nonzero per-class wait rollups, `(class index, wait)`.
    class_waits: Vec<(u16, u64)>,
    /// Nonzero per-unit wait rollups, `(unit, wait)`.
    fu_waits: Vec<(u16, u64)>,
    /// Producer charges resolved to static slots at record time (the
    /// producer was inside the trace).
    static_charges: Vec<(u32, u64)>,
    /// Producer charges against registers live into the trace, `(dense
    /// reg, wait)` — resolved against the live writer table at apply time,
    /// before `reg_finals` overwrites it.
    live_charges: Vec<(u16, u64)>,
    /// Final `(dense reg, ready_rel, writer)` per register the trace
    /// wrote.
    reg_finals: Vec<(u16, u64, u32)>,
    /// Final `(unit, slot, free_rel)` for every slot of every unit the
    /// trace reserved (a reservation shifts the unit's whole sorted list,
    /// so finals cover touched units in full).
    fu_slot_finals: Vec<(u16, u16, u64)>,
}

/// A recorded entry-state variant of one trace.
#[derive(Debug, Clone)]
struct Variant {
    spec: Spec,
    /// Verification stream for bulk replay, parallel to `steps`.
    hot: Vec<HotStep>,
    steps: Vec<ReplayStep>,
    summary: Summary,
}

/// Recorded variants of one trace entry point.
#[derive(Debug, Clone, Default)]
struct TraceEntry {
    variants: Vec<Variant>,
    /// Round-robin eviction cursor.
    next_evict: usize,
}

/// What [`BlockCache::begin_block`] decided for a trace visit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockStart {
    /// Run the exact model, capturing a recording for `block`.
    Record {
        /// Trace slot to finalize into.
        block: u32,
    },
    /// Replay `variant` of `block`.
    Replay {
        /// Trace slot being replayed.
        block: u32,
        /// Variant index within the trace.
        variant: u32,
        /// Entry cycle the deltas are applied against.
        base: u64,
    },
}

/// Outcome of a bulk trace replay ([`BlockCache::replay_trace`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceRun {
    /// The summary has been applied: every step verified, or all but the
    /// final step's control outcome (a loop exit), which was applied live.
    Completed,
    /// Verification failed at this step: the verified prefix has been
    /// materialized; the caller issues the carried step exactly, and the
    /// step after it starts a new trace.
    Diverged(StepInfo),
    /// The executor stream ended mid-replay. Unreachable in practice
    /// (`Halt` always ends a trace), but handled so replay state can never
    /// dangle.
    Ended,
}

/// The per-run trace timing cache. Created once per simulation by
/// [`crate::simulate`] (unless disabled via
/// [`SimOptions`](crate::SimOptions)); traces and variants accumulate as
/// the program runs and are dropped with it.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// `index[func][pc]` → trace slot, or [`UNREGISTERED`].
    index: Vec<Vec<u32>>,
    traces: Vec<TraceEntry>,
    /// Re-entry hint: when the last trace visit completed a self-replayable
    /// variant exactly (see [`Summary::self_replayable`]), the variant's
    /// entry location — a back-edge landing there is certified to match the
    /// same variant's spec, so [`Self::begin_block`] skips the index lookup
    /// and variant scan. [`u64::MAX`] (an impossible packed location) when
    /// no certificate is live; refreshed or cleared on every trace visit.
    reentry_loc: u64,
    reentry_block: u32,
    reentry_variant: u32,
    // --- recording state (reused across recordings; allocation stops
    // --- once every hot trace is recorded) ---
    rec_base: u64,
    rec_overflow: bool,
    /// `control_stall_until` before the most recent step's issue — at
    /// finish time, the horizon excluding the final step's control update.
    rec_csu_prev: u64,
    rec_flags: u64,
    rec_csu_rel: u64,
    rec_reg_idx: Vec<u16>,
    rec_reg_rels: Vec<u64>,
    rec_fu_rels: Vec<u64>,
    rec_steps: Vec<ReplayStep>,
    /// Registers referenced so far (first reference captures entry state).
    observed: Vec<bool>,
    /// Registers written so far (their entry state is dead downstream).
    written: Vec<bool>,
    written_list: Vec<u16>,
    /// Writer slot of the last in-trace writer per register.
    writer_in_trace: Vec<u32>,
    fu_seen: Vec<bool>,
    fu_touched: Vec<u16>,
    rec_stall: [u64; NUM_STALL_KINDS],
    rec_wait: [u64; NUM_STALL_KINDS],
    rec_class_waits: [u64; NUM_CLASSES],
    rec_fu_waits: Vec<u64>,
    rec_issue_cycles: u64,
    rec_max_drain: u64,
    /// `(writer slot, wait)` for producers inside the trace.
    rec_static_charges: Vec<(u32, u64)>,
    rec_live_charges: Vec<(u16, u64)>,
    pub(crate) stats: BlockCacheStats,
}

impl BlockCache {
    /// An empty cache indexed for `program`'s static shape and `timing`'s
    /// functional-unit count.
    pub(crate) fn new(program: &Program, timing: &TimingModel) -> Self {
        let index = program
            .functions()
            .iter()
            .map(|function| vec![UNREGISTERED; function.instrs().len()])
            .collect();
        let num_fus = timing.fu_waits.len();
        BlockCache {
            index,
            traces: Vec::new(),
            reentry_loc: u64::MAX,
            reentry_block: 0,
            reentry_variant: 0,
            rec_base: 0,
            rec_overflow: false,
            rec_csu_prev: 0,
            rec_flags: 0,
            rec_csu_rel: 0,
            rec_reg_idx: Vec::new(),
            rec_reg_rels: Vec::new(),
            rec_fu_rels: Vec::new(),
            rec_steps: Vec::new(),
            observed: vec![false; crate::timing::NUM_REGS],
            written: vec![false; crate::timing::NUM_REGS],
            written_list: Vec::new(),
            writer_in_trace: vec![0; crate::timing::NUM_REGS],
            fu_seen: vec![false; num_fus],
            fu_touched: Vec::new(),
            rec_stall: [0; NUM_STALL_KINDS],
            rec_wait: [0; NUM_STALL_KINDS],
            rec_class_waits: [0; NUM_CLASSES],
            rec_fu_waits: vec![0; num_fus],
            rec_issue_cycles: 0,
            rec_max_drain: 0,
            rec_static_charges: Vec::new(),
            rec_live_charges: Vec::new(),
            stats: BlockCacheStats::default(),
        }
    }

    /// Decides how to run the trace entered by `info`: replay a matching
    /// variant or run exact while recording a new one.
    pub(crate) fn begin_block(&mut self, info: &StepInfo, timing: &TimingModel) -> BlockStart {
        // Steady-state loop fast path: the previous visit completed a
        // self-replayable variant, whose exit state is certified (at
        // recording time) to re-satisfy its own spec — landing on its
        // entry needs no index lookup and no variant scan.
        if packed_loc(info) == self.reentry_loc {
            self.stats.hits += 1;
            return BlockStart::Replay {
                block: self.reentry_block,
                variant: self.reentry_variant,
                base: timing.cur_cycle,
            };
        }
        self.reentry_loc = u64::MAX;
        let func = info.func.index();
        let pc = info.pc;
        let mut block = self.index[func][pc];
        if block == UNREGISTERED {
            block = self.traces.len() as u32;
            self.traces.push(TraceEntry::default());
            self.index[func][pc] = block;
        }
        let base = timing.cur_cycle;
        let flags = u64::from(timing.instructions == 0) | (u64::from(timing.issued_in_cycle) << 1);
        let entry = &mut self.traces[block as usize];
        for index in 0..entry.variants.len() {
            if spec_matches(&entry.variants[index].spec, timing, base, flags) {
                self.stats.hits += 1;
                // Move-to-front: steady-state loops re-match the same
                // variant, so the scan almost always stops at index 0.
                if index > 0 {
                    entry.variants.swap(index - 1, index);
                    return BlockStart::Replay {
                        block,
                        variant: (index - 1) as u32,
                        base,
                    };
                }
                return BlockStart::Replay {
                    block,
                    variant: index as u32,
                    base,
                };
            }
        }
        self.stats.misses += 1;
        self.start_recording(base, flags, timing);
        BlockStart::Record { block }
    }

    fn start_recording(&mut self, base: u64, flags: u64, timing: &TimingModel) {
        self.rec_base = base;
        self.rec_overflow = false;
        self.rec_flags = flags;
        self.rec_reg_idx.clear();
        self.rec_reg_rels.clear();
        self.rec_fu_rels.clear();
        self.rec_steps.clear();
        self.observed.fill(false);
        self.written.fill(false);
        self.written_list.clear();
        self.fu_seen.fill(false);
        self.fu_touched.clear();
        self.rec_stall = [0; NUM_STALL_KINDS];
        self.rec_wait = [0; NUM_STALL_KINDS];
        self.rec_class_waits = [0; NUM_CLASSES];
        self.rec_fu_waits.fill(0);
        self.rec_issue_cycles = 0;
        self.rec_max_drain = 0;
        self.rec_static_charges.clear();
        self.rec_live_charges.clear();
        let csu_rel = timing.control_stall_until.saturating_sub(base);
        self.rec_overflow |= csu_rel > MAX_REL;
        self.rec_csu_rel = csu_rel;
    }

    /// Captures the entry state the next instruction, with static facts
    /// `entry`, is about to read: must run *before* its issue.
    pub(crate) fn observe_step(&mut self, entry: StaticTiming, timing: &TimingModel) {
        let base = self.rec_base;
        self.rec_csu_prev = timing.control_stall_until;
        for dense in entry.uses.into_iter().chain([entry.def]) {
            if dense != READY {
                self.observe_reg(usize::from(dense), timing, base);
            }
        }
        let fu = timing.fu_of[usize::from(entry.class)];
        if !self.fu_seen[fu] {
            self.fu_seen[fu] = true;
            if fu > usize::from(u16::MAX) {
                self.rec_overflow = true;
                return;
            }
            self.fu_touched.push(fu as u16);
            for &free in timing.fu_slots(fu) {
                let rel = free.saturating_sub(base);
                self.rec_overflow |= rel > MAX_REL;
                self.rec_fu_rels.push(rel);
            }
        }
    }

    #[inline]
    fn observe_reg(&mut self, dense: usize, timing: &TimingModel, base: u64) {
        if !self.observed[dense] {
            self.observed[dense] = true;
            let rel = timing.reg_ready[dense].saturating_sub(base);
            self.rec_overflow |= rel > MAX_REL;
            self.rec_reg_idx.push(dense as u16);
            self.rec_reg_rels.push(rel);
        }
    }

    /// Captures one exactly-issued instruction (static facts `entry`,
    /// writer slot `writer`) into the pending recording. Must run *after*
    /// [`Self::observe_step`] and the exact issue.
    pub(crate) fn record_step(
        &mut self,
        info: &StepInfo,
        entry: StaticTiming,
        writer: u32,
        issued: &Issued,
    ) {
        let base = self.rec_base;
        if issued.cause != NO_CAUSE {
            let cause = usize::from(issued.cause);
            self.rec_stall[cause] += issued.empty;
            self.rec_wait[cause] += issued.wait;
            self.rec_class_waits[usize::from(entry.class)] += issued.wait;
            match issued.cause {
                FU_BUSY => self.rec_fu_waits[issued.fu] += issued.wait,
                RAW | WAW => {
                    // `written` has not yet been updated for this step's
                    // def, so it reflects exactly the writer state the
                    // exact model charged against.
                    let dense = usize::from(issued.reg);
                    if self.written[dense] {
                        self.rec_static_charges
                            .push((self.writer_in_trace[dense], issued.wait));
                    } else {
                        self.rec_live_charges.push((dense as u16, issued.wait));
                    }
                }
                _ => {}
            }
        }
        if issued.count_issue {
            self.rec_issue_cycles += 1;
        }
        let drain_rel = issued.drain - base;
        self.rec_max_drain = self.rec_max_drain.max(drain_rel);
        let (def_dense, def_ready_rel) = if entry.def == READY {
            (NO_DEF, 0)
        } else {
            let dense = usize::from(entry.def);
            if !self.written[dense] {
                self.written[dense] = true;
                self.written_list.push(dense as u16);
            }
            self.writer_in_trace[dense] = writer;
            let ready = if entry.flags & VEC_DEF != 0 {
                issued.complete
            } else {
                issued.drain
            };
            (dense as u16, ready - base)
        };
        self.rec_steps.push(ReplayStep {
            loc: packed_loc(info),
            control: info.control,
            expected_vlen: info.vlen,
            class: u16::from(entry.class),
            mem_rel: issued.mem_constraint.saturating_sub(base),
            issue_rel: issued.issue - base,
            complete_rel: issued.complete - base,
            drain_rel,
            wait: issued.wait,
            empty: issued.empty,
            cause: issued.cause,
            cause_reg: issued.reg,
            advance: issued.advance,
            count_issue: issued.count_issue,
            fu: issued.fu as u16,
            slot_free_rel: issued.slot_free - base,
            def_dense,
            def_ready_rel,
            def_writer: writer,
        });
    }

    /// Steps recorded so far in the pending recording.
    pub(crate) fn recorded_len(&self) -> usize {
        self.rec_steps.len()
    }

    /// Installs the pending recording as a variant of `block` (or discards
    /// it on spec overflow), reading the trace's exit state from `timing`.
    pub(crate) fn finish_recording(&mut self, block: u32, timing: &TimingModel) {
        if self.rec_overflow || self.rec_steps.is_empty() {
            self.stats.overflows += 1;
            self.rec_steps.clear();
            return;
        }
        let base = self.rec_base;
        let mut summary = Summary {
            len: self.rec_steps.len() as u32,
            end_issued: timing.issued_in_cycle,
            issue_cycles_delta: self.rec_issue_cycles,
            end_cur_rel: timing.cur_cycle - base,
            end_csu_rel: timing.control_stall_until.saturating_sub(base),
            csu_excl_last_rel: self.rec_csu_prev.saturating_sub(base),
            max_drain_rel: self.rec_max_drain,
            stall_delta: self.rec_stall,
            wait_delta: self.rec_wait,
            ..Summary::default()
        };
        for (class, &wait) in self.rec_class_waits.iter().enumerate() {
            if wait > 0 {
                summary.class_waits.push((class as u16, wait));
            }
        }
        for (unit, &wait) in self.rec_fu_waits.iter().enumerate() {
            if wait > 0 {
                summary.fu_waits.push((unit as u16, wait));
            }
        }
        if !timing.producer_waits.is_empty() {
            summary
                .static_charges
                .extend_from_slice(&self.rec_static_charges);
        }
        summary.live_charges = self.rec_live_charges.clone();
        for &dense in &self.written_list {
            summary.reg_finals.push((
                dense,
                timing.reg_ready[dense as usize].saturating_sub(base),
                timing.reg_writer[dense as usize],
            ));
        }
        for &fu in &self.fu_touched {
            for (slot, &free) in timing.fu_slots(usize::from(fu)).iter().enumerate() {
                summary
                    .fu_slot_finals
                    .push((fu, slot as u16, free.saturating_sub(base)));
            }
        }
        summary.self_replayable = self.self_replay_check(&summary, base, timing);
        let hot = self
            .rec_steps
            .iter()
            .map(|step| HotStep {
                loc: step.loc,
                mem_rel: step.mem_rel,
                drain_rel: step.drain_rel,
                expected_vlen: step.expected_vlen,
                control: step.control,
            })
            .collect();
        let variant = Variant {
            hot,
            spec: Spec {
                flags: self.rec_flags,
                csu_rel: self.rec_csu_rel,
                reg_idx: std::mem::take(&mut self.rec_reg_idx),
                reg_rels: std::mem::take(&mut self.rec_reg_rels),
                fu_units: self.fu_touched.clone(),
                fu_rels: std::mem::take(&mut self.rec_fu_rels),
            },
            steps: std::mem::take(&mut self.rec_steps),
            summary,
        };
        let entry = &mut self.traces[block as usize];
        if entry.variants.len() < MAX_VARIANTS {
            entry.variants.push(variant);
        } else {
            entry.variants[entry.next_evict] = variant;
            entry.next_evict = (entry.next_evict + 1) % MAX_VARIANTS;
            self.stats.evictions += 1;
        }
    }

    /// Whether the pending recording's exit state provably re-satisfies
    /// its own entry spec at the post-trace entry cycle `base +
    /// end_cur_rel`. Every spec component's post-completion value is a
    /// deterministic function of the spec and the summary — written
    /// registers and touched-unit slots are set absolutely by
    /// [`apply_summary`], the rest shift with the base — so one check at
    /// recording time certifies every future back-to-back replay.
    fn self_replay_check(&self, summary: &Summary, base: u64, timing: &TimingModel) -> bool {
        let delta = summary.end_cur_rel;
        // Entry flags must recur: past the run's first instruction (bit 0
        // clear) and the exit issue-slot count equal to the entry's.
        if self.rec_flags & 1 != 0 || self.rec_flags >> 1 != u64::from(summary.end_issued) {
            return false;
        }
        // Exit control-stall horizon is `max(entry, base + end_csu_rel)`;
        // relative to the new base it must reproduce the spec value.
        if self
            .rec_csu_rel
            .max(summary.end_csu_rel)
            .saturating_sub(delta)
            != self.rec_csu_rel
        {
            return false;
        }
        for (&reg, &rel) in self.rec_reg_idx.iter().zip(&self.rec_reg_rels) {
            // Written spec registers exit at their recorded final; unwritten
            // ones keep their entry value, which merely shifts with the
            // base. Either way the old-base-relative exit value is exact
            // (in-trace writes are never below the entry cycle), and
            // saturation at the new base is the spec's own equivalence.
            let exit_rel = if self.written[usize::from(reg)] {
                timing.reg_ready[usize::from(reg)].saturating_sub(base)
            } else {
                rel
            };
            if exit_rel.saturating_sub(delta) != rel {
                return false;
            }
        }
        let mut rels = self.rec_fu_rels.iter();
        for &fu in &self.fu_touched {
            for &free in timing.fu_slots(usize::from(fu)) {
                let &rel = rels
                    .next()
                    .expect("fu_rels covers every slot of every unit");
                if free.saturating_sub(base).saturating_sub(delta) != rel {
                    return false;
                }
            }
        }
        true
    }

    /// Replays a whole trace in bulk, driving the executor itself: each
    /// step is verified (location, control outcome, vector length, memory
    /// constraint) and applies only its live memory effects; all other
    /// timing state is deferred to one aggregated summary at trace end.
    ///
    /// On divergence the verified prefix is materialized exactly — the
    /// recorded per-step values are what the exact model would have
    /// written — and the diverging step is handed back for exact issue.
    ///
    /// # Errors
    ///
    /// Propagates executor faults.
    pub(crate) fn replay_trace(
        &mut self,
        block: u32,
        variant: u32,
        base: u64,
        first: &StepInfo,
        exec: &mut Executor<'_>,
        timing: &mut TimingModel,
    ) -> Result<TraceRun, SimError> {
        let v = &self.traces[block as usize].variants[variant as usize];
        let steps: &[ReplayStep] = &v.steps;
        let summary = &v.summary;
        let mut info = *first;
        let mut pos = 0_usize;
        let mut iter = v.hot.iter();
        // Whether the trace completed with its recorded exit state (the
        // benign control-exit applies a live outcome instead, which voids
        // the self-replay certificate below).
        let mut exact_exit = false;
        let (outcome, replayed) = loop {
            let step = iter.next().expect("replay never runs past the recording");
            let loc_ok = packed_loc(&info) == step.loc && info.vlen == step.expected_vlen;
            let control_ok = info.control == step.control;
            let mut ok = loc_ok && control_ok;
            if ok {
                if let Some((addr, is_store)) = info.mem {
                    let span = (info.vlen.max(1)) as usize;
                    let end = (addr + span).min(timing.mem_ready.len());
                    let mut constraint = 0_u64;
                    for a in addr..end {
                        constraint = constraint.max(timing.mem_ready.get(a));
                    }
                    if constraint.saturating_sub(base) == step.mem_rel {
                        if is_store {
                            let drain = base + step.drain_rel;
                            for a in addr..end {
                                timing.mem_ready.set(a, drain);
                            }
                        }
                    } else {
                        ok = false;
                    }
                }
            }
            if !ok {
                // Control-only divergence at the final step — the common
                // loop-exit case (the recorded back-edge was not taken, or
                // vice versa). A control instruction's issue timing is
                // outcome-independent, so the whole summary still applies;
                // only the control-stall horizon comes from the live
                // outcome instead of the recording.
                if loc_ok && !control_ok && pos + 1 == steps.len() && info.mem.is_none() {
                    let last = &steps[pos];
                    apply_summary(summary, base, timing, summary.csu_excl_last_rel);
                    if info.control.transfers() {
                        if !timing.perfect_branch_prediction {
                            timing.control_stall_until =
                                timing.control_stall_until.max(base + last.complete_rel);
                        }
                        if timing.taken_branch_breaks_issue {
                            timing.control_stall_until =
                                timing.control_stall_until.max(base + last.issue_rel + 1);
                        }
                    }
                    break (TraceRun::Completed, steps.len() as u64);
                }
                // Materialize the verified prefix. Memory-scoreboard
                // writes are skipped: verification already applied them
                // live.
                for prev in &steps[..pos] {
                    apply_recorded_step(prev, base, timing);
                }
                break (TraceRun::Diverged(info), pos as u64);
            }
            pos += 1;
            if pos == steps.len() {
                apply_summary(summary, base, timing, summary.end_csu_rel);
                exact_exit = true;
                break (TraceRun::Completed, pos as u64);
            }
            match exec.step()? {
                Some(next) => info = next,
                None => break (TraceRun::Ended, pos as u64),
            }
        };
        // Renew or void the re-entry certificate for the next visit.
        if exact_exit && summary.self_replayable {
            self.reentry_loc = v.hot[0].loc;
            self.reentry_block = block;
            self.reentry_variant = variant;
        } else {
            self.reentry_loc = u64::MAX;
        }
        self.stats.replayed_instructions += replayed;
        if let TraceRun::Diverged(_) = outcome {
            self.stats.fallbacks += 1;
        }
        Ok(outcome)
    }
}

/// Applies one recorded step's state updates — the same writes the issue
/// body performs, fed from recorded values —
/// except the memory-scoreboard writes, which bulk verification already
/// applied live.
fn apply_recorded_step(step: &ReplayStep, base: u64, timing: &mut TimingModel) {
    let t = base + step.issue_rel;
    let complete = base + step.complete_rel;
    let drain = base + step.drain_rel;
    if step.cause != NO_CAUSE {
        let cause = usize::from(step.cause);
        timing.stall_cycles[cause] += step.empty;
        timing.wait_cycles[cause] += step.wait;
        timing.class_waits[step.class as usize] += step.wait;
        match step.cause {
            FU_BUSY => timing.fu_waits[usize::from(step.fu)] += step.wait,
            RAW | WAW => {
                // The writer table is updated in step order below, so this
                // live lookup sees exactly what the exact model saw.
                timing.charge_producer(usize::from(step.cause_reg), step.wait);
            }
            _ => {}
        }
    }
    if step.count_issue {
        timing.issue_cycles += 1;
    }
    if step.advance {
        timing.cur_cycle = t;
        timing.issued_in_cycle = 1;
    } else {
        timing.issued_in_cycle += 1;
    }
    timing.reserve_slot(step.fu as usize, base + step.slot_free_rel);
    if step.def_dense != NO_DEF {
        timing.reg_ready[step.def_dense as usize] = base + step.def_ready_rel;
        timing.reg_writer[step.def_dense as usize] = step.def_writer;
    }
    timing.last_completion = timing.last_completion.max(drain);
    // The recorded control outcome is verified equal to the live one, so
    // applying from the recording is applying the live behaviour.
    if step.control.transfers() {
        if !timing.perfect_branch_prediction {
            timing.control_stall_until = timing.control_stall_until.max(complete);
        }
        if timing.taken_branch_breaks_issue {
            timing.control_stall_until = timing.control_stall_until.max(t + 1);
        }
    }
    timing.instructions += 1;
}

/// Applies a trace's aggregated state delta after full verification.
/// `csu_rel` is the control-stall horizon to apply — the summary's own
/// exit value normally, or the excluding-last-step value when the final
/// step's control outcome diverged and is applied live by the caller.
fn apply_summary(s: &Summary, base: u64, timing: &mut TimingModel, csu_rel: u64) {
    for i in 0..NUM_STALL_KINDS {
        timing.stall_cycles[i] += s.stall_delta[i];
        timing.wait_cycles[i] += s.wait_delta[i];
    }
    for &(class, wait) in &s.class_waits {
        timing.class_waits[class as usize] += wait;
    }
    for &(unit, wait) in &s.fu_waits {
        timing.fu_waits[unit as usize] += wait;
    }
    timing.issue_cycles += s.issue_cycles_delta;
    timing.cur_cycle = base + s.end_cur_rel;
    timing.issued_in_cycle = s.end_issued;
    timing.control_stall_until = timing.control_stall_until.max(base + csu_rel);
    timing.last_completion = timing.last_completion.max(base + s.max_drain_rel);
    if !timing.producer_waits.is_empty() {
        for &(flat, wait) in &s.static_charges {
            if let Some(slot) = timing.producer_waits.get_mut(flat as usize) {
                *slot += wait;
            }
        }
    }
    // Live charges read the writer table before `reg_finals` below
    // overwrites it — the order the exact model observed.
    for &(dense, wait) in &s.live_charges {
        timing.charge_producer(usize::from(dense), wait);
    }
    for &(dense, ready_rel, writer) in &s.reg_finals {
        timing.reg_ready[dense as usize] = base + ready_rel;
        timing.reg_writer[dense as usize] = writer;
    }
    for &(fu, slot, free_rel) in &s.fu_slot_finals {
        timing.set_fu_slot(usize::from(fu), usize::from(slot), base + free_rel);
    }
    timing.instructions += u64::from(s.len);
}

/// Whether every spec component matches the live timing state at entry
/// cycle `base` (with `flags` precomputed by the caller).
fn spec_matches(spec: &Spec, timing: &TimingModel, base: u64, flags: u64) -> bool {
    if spec.flags != flags || timing.control_stall_until.saturating_sub(base) != spec.csu_rel {
        return false;
    }
    for (&reg, &rel) in spec.reg_idx.iter().zip(&spec.reg_rels) {
        if timing.reg_ready[reg as usize].saturating_sub(base) != rel {
            return false;
        }
    }
    let mut rels = spec.fu_rels.iter();
    for &fu in &spec.fu_units {
        for &live in timing.fu_slots(usize::from(fu)) {
            let &rel = rels
                .next()
                .expect("fu_rels covers every slot of every unit");
            if live.saturating_sub(base) != rel {
                return false;
            }
        }
    }
    true
}
