//! Execute once, time many.
//!
//! A sweep times one compiled program on many machines, and each machine's
//! copy differs from the others only by the pipeline scheduler's
//! permutations *inside* scheduling regions: straight-line runs that
//! control instructions and branch targets bound, and that the scheduler
//! reorders only along register and memory dependences. Every such copy
//! therefore runs the same sequence of region visits, with the same
//! conditional-branch outcomes, the same word address for every execution
//! of every memory instruction and the same vector lengths. Only the order
//! inside each visit — and with it the timing — differs.
//!
//! So the program is executed once. A [`Recording`] keeps, per static
//! instruction, the dynamic facts of each of its executions (a vector
//! length byte for a vector instruction, then for a memory instruction its
//! first word as an `i8` delta from the previous execution's, or an escape
//! and the full address), plus one bit per conditional branch in execution
//! order. [`Recording::replay`] then times any region permutation of the
//! program: it walks the permuted program's control flow, reads each
//! instruction's facts from the stream of the recorded instruction it was
//! moved from, and issues it through the exact timing model — with no
//! executor, no memory image and no register values.
//! [`Recording::replay_cycles`] takes the same walk through the timing
//! model's cycle step alone, for callers that keep only the counts.

use crate::block::BlockCacheStats;
use crate::error::SimError;
use crate::exec::{ControlEvent, ExecOptions, Executor};
use crate::report::{finish_report, SimReport};
use crate::timing::{StaticTiming, TimingModel, TimingTable, MEM, VECTOR};
use supersym_isa::{ClassCensus, Instr, Program};
use supersym_machine::MachineConfig;

/// The largest recording kept, in bytes of encoded facts and branch
/// outcomes. A run that outgrows it is not recorded, and each of its
/// machines simulates the program itself.
pub const MAX_RECORDING_BYTES: usize = 16 << 20;

/// Escape byte in a fact stream: the full address follows as a
/// little-endian `u32`.
const WIDE: u8 = 0x80;

/// What the walk does after one static instruction.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// Fall through.
    Next,
    /// Branch to the step's target pc, if taken.
    Branch,
    /// Jump to the target pc.
    Jump,
    /// Call the target function.
    Call,
    Return,
    Halt,
}

/// Everything the walk reads at one static instruction of the replayed
/// program, in one record.
#[derive(Debug, Clone, Copy)]
struct Step {
    facts: StaticTiming,
    walk: Walk,
    /// Branch or jump target pc, or called function.
    target: u32,
    /// Flat slot of the recorded instruction this one holds.
    origin: u32,
}

/// What [`Recording::replay_cycles`] reports: the counts of a
/// [`SimReport`] that do not depend on stall attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayCycles {
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Elapsed machine cycles.
    pub machine_cycles: u64,
    /// Elapsed time in base-machine cycles.
    pub base_cycles: f64,
}

/// One execution of a program, recorded so that any region permutation
/// of the program can be timed from it without executing it (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Recording {
    /// Instruction count of each function of the recorded program.
    shape: Vec<u32>,
    /// Static timing facts of each recorded instruction, flat: a replayed
    /// instruction must have exactly the facts of the one it came from.
    statics: Vec<StaticTiming>,
    /// `facts[starts[slot]..starts[slot + 1]]` holds the dynamic facts of
    /// every execution of static instruction `slot`, in execution order.
    starts: Vec<u32>,
    facts: Vec<u8>,
    /// Conditional-branch outcomes, one bit per executed branch.
    taken: Vec<u64>,
    branches: u64,
    instructions: u64,
    census: ClassCensus,
    /// Deepest call stack the run reached.
    max_depth: usize,
    memory_words: usize,
}

impl Recording {
    /// Executes `program` once under `options` and records it.
    ///
    /// Returns `Ok(None)` when the recording would outgrow
    /// [`MAX_RECORDING_BYTES`] (or the memory cannot be addressed in 32
    /// bits).
    ///
    /// # Errors
    ///
    /// Returns the run's [`SimError`]. When the run exhausts its step
    /// limit, the error is [`SimError::StepLimitExceeded`] only if every
    /// region permutation exhausts it too: the straight-line code after
    /// the cut — which a permutation may move ahead of it — is executed
    /// as well, and a trap there is returned instead.
    pub fn record(program: &Program, options: ExecOptions) -> Result<Option<Self>, SimError> {
        Self::record_within(program, options, MAX_RECORDING_BYTES)
    }

    /// [`record`](Self::record) with a cap of `cap` bytes.
    fn record_within(
        program: &Program,
        options: ExecOptions,
        cap: usize,
    ) -> Result<Option<Self>, SimError> {
        if options.memory_words as u64 > 1 << 32 {
            return Ok(None);
        }
        let fuel = options.max_steps;
        let longest = program
            .functions()
            .iter()
            .map(|function| function.instrs().len() as u64)
            .max()
            .unwrap_or(0);
        let mut exec = Executor::new(
            program,
            ExecOptions {
                max_steps: fuel.saturating_add(longest + 1),
                ..options
            },
        )?;
        let table = TimingTable::new(program);
        let statics = table.entries();
        let mut streams: Vec<Vec<u8>> = vec![Vec::new(); statics.len()];
        let mut last = vec![0_u32; statics.len()];
        let mut taken: Vec<u64> = Vec::new();
        let mut branches = 0_u64;
        let mut bytes = 0_usize;
        let (mut depth, mut max_depth) = (0_usize, 0_usize);
        loop {
            if exec.steps() == fuel && !exec.halted() {
                // Every permutation runs out of fuel at this step unless
                // it moved a trapping instruction of this region visit
                // ahead of the cut; run on to the next control
                // instruction to find out.
                while let Some(info) = exec.step()? {
                    if info.class.is_control() {
                        break;
                    }
                }
                return Err(SimError::StepLimitExceeded { limit: fuel });
            }
            let Some(info) = exec.step()? else {
                break;
            };
            let slot = table.slot(info.func, info.pc);
            let stream = &mut streams[slot];
            if statics[slot].flags & VECTOR != 0 {
                stream.push(info.vlen as u8);
                bytes += 1;
            }
            if let Some((addr, _)) = info.mem {
                let addr = addr as u32;
                let delta = addr.wrapping_sub(last[slot]) as i32;
                if (-127..=127).contains(&delta) {
                    stream.push(delta as u8);
                    bytes += 1;
                } else {
                    stream.push(WIDE);
                    stream.extend_from_slice(&addr.to_le_bytes());
                    bytes += 5;
                }
                last[slot] = addr;
            }
            match info.control {
                ControlEvent::Branch { taken: outcome } => {
                    if branches.is_multiple_of(64) {
                        taken.push(0);
                        bytes += 8;
                    }
                    if outcome {
                        *taken.last_mut().expect("pushed above") |= 1 << (branches % 64);
                    }
                    branches += 1;
                }
                ControlEvent::Call => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                ControlEvent::Return => depth -= 1,
                _ => {}
            }
            if bytes > cap {
                return Ok(None);
            }
        }
        let mut starts = Vec::with_capacity(streams.len() + 1);
        let mut facts = Vec::with_capacity(bytes);
        for stream in &streams {
            starts.push(facts.len() as u32);
            facts.extend_from_slice(stream);
        }
        starts.push(facts.len() as u32);
        Ok(Some(Recording {
            shape: program
                .functions()
                .iter()
                .map(|function| function.instrs().len() as u32)
                .collect(),
            statics: statics.to_vec(),
            starts,
            facts,
            taken,
            branches,
            instructions: exec.steps(),
            census: *exec.census(),
            max_depth,
            memory_words: options.memory_words,
        }))
    }

    /// Dynamic instructions the recorded run executed.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Heap bytes the recording holds.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.facts.len()
            + 4 * self.starts.len()
            + 8 * self.taken.len()
            + 4 * self.shape.len()
            + std::mem::size_of::<StaticTiming>() * self.statics.len()
    }

    /// Times `program` on `config` from the recording, reporting exactly
    /// what [`simulate`](crate::simulate) reports for it (block-cache
    /// counters aside, which stay zero).
    ///
    /// `program` must be a region permutation of the recorded program, and
    /// `origin[slot]` the flat slot (functions in order, instructions in
    /// order) of the recorded instruction that `program`'s flat `slot`
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotARecordedPermutation`] when `program` and
    /// `origin` do not fit the recording: a different shape, an
    /// instruction paired with one of other timing facts, a moved control
    /// instruction, or a walk that leaves the recorded path.
    pub fn replay(
        &self,
        program: &Program,
        origin: &[u32],
        config: &MachineConfig,
    ) -> Result<SimReport, SimError> {
        let timing = self.walk::<true>(program, origin, config)?;
        Ok(finish_report(
            program,
            config,
            self.census,
            &timing,
            BlockCacheStats::default(),
        ))
    }

    /// [`replay`](Self::replay) without stall attribution: the same walk
    /// and the same issue cycles, but only the counts a sweep cell keeps.
    /// They equal the report's, since attribution never moves an issue.
    ///
    /// # Errors
    ///
    /// As [`replay`](Self::replay).
    pub fn replay_cycles(
        &self,
        program: &Program,
        origin: &[u32],
        config: &MachineConfig,
    ) -> Result<ReplayCycles, SimError> {
        let timing = self.walk::<false>(program, origin, config)?;
        Ok(ReplayCycles {
            instructions: self.instructions,
            machine_cycles: timing.machine_cycles(),
            base_cycles: timing.base_cycles(),
        })
    }

    /// Walks `program` along the recorded path, issuing every instruction
    /// through the cycle step and, when `ACCOUNT`, the attribution step.
    fn walk<const ACCOUNT: bool>(
        &self,
        program: &Program,
        origin: &[u32],
        config: &MachineConfig,
    ) -> Result<TimingModel, SimError> {
        const MISMATCH: SimError = SimError::NotARecordedPermutation;
        let shape_fits = program.functions().len() == self.shape.len()
            && program
                .functions()
                .iter()
                .zip(&self.shape)
                .all(|(function, &len)| function.instrs().len() == len as usize)
            && origin.len() == self.statics.len();
        if !shape_fits {
            return Err(MISMATCH);
        }
        let table = TimingTable::new(program);
        let mut steps = Vec::with_capacity(origin.len());
        for (index, function) in program.functions().iter().enumerate() {
            let base = table.bases()[index] as usize;
            for (pc, instr) in function.instrs().iter().enumerate() {
                let slot = base + pc;
                let from = origin[slot] as usize;
                let facts = table.entries()[slot];
                if self.statics.get(from) != Some(&facts)
                    || (instr.is_control() && from != slot)
                    || !(base..base + function.instrs().len()).contains(&from)
                {
                    return Err(MISMATCH);
                }
                let resolve = |label| function.try_resolve(label).ok_or(MISMATCH);
                let (walk, target) = match instr {
                    Instr::Br { target, .. } => (Walk::Branch, resolve(*target)?),
                    Instr::Jmp { target } => (Walk::Jump, resolve(*target)?),
                    Instr::Call { target } if target.index() < self.shape.len() => {
                        (Walk::Call, target.index())
                    }
                    Instr::Call { .. } => return Err(MISMATCH),
                    Instr::Ret => (Walk::Return, 0),
                    Instr::Halt => (Walk::Halt, 0),
                    _ => (Walk::Next, 0),
                };
                steps.push(Step {
                    facts,
                    walk,
                    target: target as u32,
                    origin: from as u32,
                });
            }
        }
        let entry = program.entry().ok_or(MISMATCH)?;

        let mut timing = TimingModel::new(config, self.memory_words);
        if ACCOUNT {
            timing.track_producers(program);
        }
        let mut cursor = self.starts[..origin.len()].to_vec();
        let mut last = vec![0_u32; origin.len()];
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(self.max_depth);
        let bases = table.bases();
        let mut func = entry.index();
        let mut base = bases[func] as usize;
        let mut len = self.shape[func] as usize;
        let mut pc = 0_usize;
        let mut branch = 0_u64;
        for _ in 0..self.instructions {
            if pc >= len {
                return Err(MISMATCH);
            }
            let slot = base + pc;
            let step = steps[slot];
            let (mut addr, mut vlen) = (0_usize, 0_u32);
            if step.facts.flags & (VECTOR | MEM) != 0 {
                let from = step.origin as usize;
                let at = cursor[from] as usize;
                let stream = &self.facts[at..self.starts[from + 1] as usize];
                let mut used = 0;
                if step.facts.flags & VECTOR != 0 {
                    vlen = u32::from(*stream.first().ok_or(MISMATCH)?);
                    used = 1;
                }
                if step.facts.flags & MEM != 0 {
                    let delta = *stream.get(used).ok_or(MISMATCH)?;
                    let word = if delta == WIDE {
                        let wide = stream.get(used + 1..used + 5).ok_or(MISMATCH)?;
                        used += 5;
                        u32::from_le_bytes([wide[0], wide[1], wide[2], wide[3]])
                    } else {
                        used += 1;
                        last[from].wrapping_add(delta as i8 as u32)
                    };
                    last[from] = word;
                    addr = word as usize;
                }
                cursor[from] = (at + used) as u32;
            }
            let mut transfers = true;
            match step.walk {
                Walk::Next => {
                    transfers = false;
                    pc += 1;
                }
                Walk::Branch => {
                    if branch == self.branches {
                        return Err(MISMATCH);
                    }
                    transfers = self.taken[(branch / 64) as usize] >> (branch % 64) & 1 != 0;
                    branch += 1;
                    pc = if transfers {
                        step.target as usize
                    } else {
                        pc + 1
                    };
                }
                Walk::Jump => pc = step.target as usize,
                Walk::Call => {
                    stack.push((func, pc + 1));
                    func = step.target as usize;
                    (base, len, pc) = (bases[func] as usize, self.shape[func] as usize, 0);
                }
                Walk::Return => match stack.pop() {
                    Some((caller, resume)) => {
                        func = caller;
                        (base, len, pc) = (bases[func] as usize, self.shape[func] as usize, resume);
                    }
                    None => {
                        transfers = false;
                        len = 0;
                    }
                },
                Walk::Halt => {
                    transfers = false;
                    len = 0;
                }
            }
            let cycle = timing.cycle_step(step.facts, addr, vlen, transfers);
            if ACCOUNT {
                timing.attribute(step.facts, slot as u32, &cycle);
            }
        }
        // The recorded run ended with its last instruction: so must this.
        if len != 0 || branch != self.branches {
            return Err(MISMATCH);
        }
        Ok(timing)
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

    fn options(max_steps: u64) -> ExecOptions {
        ExecOptions {
            memory_words: 1024,
            max_steps,
            ..ExecOptions::default()
        }
    }

    /// A straight line whose last instruction stores below word 0.
    fn late_trap() -> Program {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), -5);
        asm.movi(r(2), 1);
        asm.add(r(3), r(2), 1.into());
        asm.store(r(2), r(1), 0);
        asm.halt();
        asm.finish_program()
    }

    #[test]
    fn fuel_cut_before_a_trap_in_its_region_is_a_trap() {
        // Every region permutation may move the faulting store ahead of
        // the cut, so the run counts as trapped, not as out of fuel.
        assert!(matches!(
            Recording::record(&late_trap(), options(2)),
            Err(SimError::MemoryOutOfBounds { addr: -5, .. })
        ));
        // Past the last control instruction nothing can move: fuel.
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        asm.bind(top);
        asm.add(r(1), r(1), 1.into());
        asm.jmp(top);
        assert_eq!(
            Recording::record(&asm.finish_program(), options(7)).unwrap_err(),
            SimError::StepLimitExceeded { limit: 7 }
        );
    }

    #[test]
    fn a_recording_over_the_cap_is_not_kept() {
        let mut asm = AsmBuilder::new("main");
        for word in 0..8 {
            asm.store(r(1), IntReg::GP, 100 * word);
        }
        asm.halt();
        let program = asm.finish_program();
        let kept = Recording::record_within(&program, options(100), 64).unwrap();
        assert!(kept.is_some());
        assert!(Recording::record_within(&program, options(100), 8)
            .unwrap()
            .is_none());
    }

    #[test]
    fn replay_refuses_a_program_it_did_not_record() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 3);
        asm.store(r(1), IntReg::GP, 4);
        asm.halt();
        let program = asm.finish_program();
        let recording = Recording::record(&program, options(100)).unwrap().unwrap();
        let machine = presets::base();
        assert!(recording.replay(&program, &[0, 1, 2], &machine).is_ok());
        // The store paired with the movi: different timing facts.
        assert_eq!(
            recording
                .replay(&program, &[1, 0, 2], &machine)
                .unwrap_err(),
            SimError::NotARecordedPermutation
        );
        // A different shape.
        assert_eq!(
            recording
                .replay(&late_trap(), &[0, 1, 2, 3, 4], &machine)
                .unwrap_err(),
            SimError::NotARecordedPermutation
        );
    }
}
