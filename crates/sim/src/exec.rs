//! Architectural (functional) execution.
//!
//! The executor interprets a program one instruction at a time, maintaining
//! registers, word-addressed memory and a call stack. Each step reports a
//! compact [`StepInfo`] that the timing model and cache simulator consume,
//! so functional and timing simulation run in lockstep without materializing
//! a trace.

use crate::error::SimError;
use crate::paged::PagedArray;
use supersym_isa::{
    ClassCensus, FpCmpOp, FpOp, FuncId, Function, Instr, InstrClass, IntOp, IntReg, IsaError,
    Operand, Program, Reg, Uses, MAX_VLEN, NUM_FP_REGS, NUM_INT_REGS, NUM_VEC_REGS,
};

/// Control-flow outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// Ordinary fall-through.
    None,
    /// A conditional branch, with its outcome.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An unconditional jump.
    Jump,
    /// A call entered a new function.
    Call,
    /// A return to the caller.
    Return,
    /// The program halted.
    Halt,
}

impl ControlEvent {
    /// Whether control left the fall-through path: a taken branch, a
    /// jump, a call or a return.
    #[must_use]
    #[inline]
    pub fn transfers(self) -> bool {
        match self {
            ControlEvent::Branch { taken } => taken,
            ControlEvent::Jump | ControlEvent::Call | ControlEvent::Return => true,
            ControlEvent::None | ControlEvent::Halt => false,
        }
    }
}

/// What one executed instruction did, as needed by timing and cache models.
#[derive(Debug, Clone, Copy)]
pub struct StepInfo {
    /// The function executed in.
    pub func: FuncId,
    /// Index of the instruction within the function.
    pub pc: usize,
    /// The instruction's class.
    pub class: InstrClass,
    /// Registers read (zero register omitted).
    pub uses: Uses,
    /// Register written, if any (zero register omitted).
    pub def: Option<Reg>,
    /// First memory word touched, with `true` for stores.
    pub mem: Option<(usize, bool)>,
    /// Vector length of a vector instruction (0 for scalar instructions);
    /// vector memory operations touch `mem.0 .. mem.0 + vlen`.
    pub vlen: u32,
    /// Control-flow outcome.
    pub control: ControlEvent,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Simulated memory size in words (default 1 MiW = 8 MiB).
    pub memory_words: usize,
    /// Call-stack depth limit.
    pub max_call_depth: usize,
    /// Dynamic instruction limit (guards against runaway programs).
    pub max_steps: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            memory_words: 1 << 20,
            max_call_depth: 1 << 14,
            max_steps: 2_000_000_000,
        }
    }
}

/// Discriminant of a predecoded micro-operation. Operand-carrying opcode
/// families keep their sub-opcode inline so dispatch is one two-level match
/// with no further field decoding.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    /// Integer ALU, register right-hand side.
    IntOpR(IntOp),
    /// Integer ALU, immediate right-hand side (in `imm`).
    IntOpI(IntOp),
    MovI,
    FpOp(FpOp),
    FpCmp(FpCmpOp),
    /// `imm` holds the f64 payload as bits.
    MovF,
    FMov,
    IToF,
    FToI,
    Load,
    LoadF,
    Store,
    StoreF,
    SetVl,
    VLoad,
    VStore,
    VOp(FpOp),
    VOpS(FpOp),
    /// `imm` holds the pre-resolved target pc.
    Br {
        /// Branch sense: taken when `(cond != 0) == expect`.
        expect: bool,
    },
    /// `imm` holds the pre-resolved target pc.
    Jmp,
    /// `imm` holds the callee's function index.
    Call,
    Ret,
    Halt,
}

/// One predecoded micro-operation: the [`Instr`] payload flattened into a
/// fixed 16-byte record, with branch/jump labels resolved to instruction
/// indices so the hot loop never touches the label table.
///
/// Field meaning is per-kind: `dst`/`a`/`b` are register indices in
/// whichever file the opcode addresses (`a` is the left operand or address
/// base, `b` the right operand or store source), `imm` is the immediate,
/// address offset, f64 bit pattern, or resolved control target.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    dst: u8,
    a: u8,
    b: u8,
    imm: i64,
}

/// One predecoded instruction record: the executable [`Op`] plus the
/// [`StepInfo`] metadata (`class`/`uses`/`def` are pure functions of the
/// static instruction). One table keeps the per-step path to a single
/// indexed load.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    op: Op,
    class: InstrClass,
    uses: Uses,
    def: Option<Reg>,
}

/// The architectural interpreter.
///
/// Constructed over a validated program; driven by [`Executor::step`] until
/// it reports `None` (halt).
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    /// `decode_base[func]`, cached for the executing function.
    cur_base: usize,
    /// Instruction count of the executing function, cached likewise.
    cur_len: usize,
    /// Flat-table base offset of each function's instructions.
    decode_base: Vec<usize>,
    /// Instruction count per function.
    func_len: Vec<usize>,
    /// Predecode table, indexed by `decode_base[func] + pc`: everything
    /// the per-step path needs, computed once per static instruction at
    /// construction.
    decoded: Vec<Decoded>,
    int: [i64; NUM_INT_REGS],
    fp: [f64; NUM_FP_REGS],
    vec: [[f64; MAX_VLEN]; NUM_VEC_REGS],
    vl: usize,
    memory: PagedArray<i64>,
    func: FuncId,
    pc: usize,
    call_stack: Vec<(FuncId, usize)>,
    halted: bool,
    steps: u64,
    census: ClassCensus,
    options: ExecOptions,
}

impl<'p> Executor<'p> {
    /// Creates an executor positioned at the program entry.
    ///
    /// Initializes the stack pointer to the top of memory, the global
    /// pointer to the base of the global region (word 0), and loads the
    /// program's data image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program fails
    /// [`Program::validate`], and [`SimError::MemoryOutOfBounds`] if the
    /// globals or data image do not fit in memory.
    pub fn new(program: &'p Program, options: ExecOptions) -> Result<Self, SimError> {
        program.validate()?;
        // `validate` checks for an entry today, but the executor must not
        // rely on that coupling: a missing entry is a typed error, not a
        // panic, even if validation semantics drift.
        let entry = program
            .entry()
            .ok_or(SimError::InvalidProgram(IsaError::MissingEntry))?;
        if program.globals_words() > options.memory_words {
            return Err(SimError::MemoryOutOfBounds {
                addr: program.globals_words() as i64,
                memory_words: options.memory_words,
            });
        }
        let mut memory = PagedArray::new(options.memory_words);
        for &(addr, value) in program.data() {
            if addr >= memory.len() {
                return Err(SimError::MemoryOutOfBounds {
                    addr: addr as i64,
                    memory_words: options.memory_words,
                });
            }
            memory.set(addr, value);
        }
        let mut int = [0_i64; NUM_INT_REGS];
        int[IntReg::SP.index() as usize] = options.memory_words as i64;
        int[IntReg::GP.index() as usize] = 0;
        let mut decode_base = Vec::with_capacity(program.functions().len());
        let mut func_len = Vec::with_capacity(program.functions().len());
        let mut decoded = Vec::new();
        for (index, function) in program.functions().iter().enumerate() {
            decode_base.push(decoded.len());
            func_len.push(function.instrs().len());
            for instr in function.instrs() {
                decoded.push(Decoded {
                    op: predecode(instr, function, FuncId::new(index as u32))?,
                    class: instr.class(),
                    uses: instr.uses(),
                    def: instr.def(),
                });
            }
        }
        program
            .try_function(entry)
            .ok_or(SimError::UnknownFunction(entry))?;
        let cur_base = decode_base[entry.index()];
        let cur_len = func_len[entry.index()];
        Ok(Executor {
            program,
            cur_base,
            cur_len,
            decode_base,
            func_len,
            decoded,
            int,
            fp: [0.0; NUM_FP_REGS],
            vec: [[0.0; MAX_VLEN]; NUM_VEC_REGS],
            vl: 0,
            memory,
            func: entry,
            pc: 0,
            call_stack: Vec::new(),
            halted: false,
            steps: 0,
            census: ClassCensus::new(),
            options,
        })
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Packed `(func << 32) | pc` of the *next* instruction to execute —
    /// the trace cache's break rule peeks at where control went.
    pub(crate) fn cursor(&self) -> u64 {
        (u64::from(self.func.index() as u32) << 32) | self.pc as u64
    }

    /// The dynamic instruction census so far.
    #[must_use]
    pub fn census(&self) -> &ClassCensus {
        &self.census
    }

    /// Reads an integer register.
    #[must_use]
    pub fn int_reg(&self, reg: IntReg) -> i64 {
        if reg.is_zero() {
            0
        } else {
            self.int[reg.index() as usize]
        }
    }

    /// Reads a floating-point register.
    #[must_use]
    pub fn fp_reg(&self, reg: supersym_isa::FpReg) -> f64 {
        self.fp[reg.index() as usize]
    }

    /// Reads one element of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `element >= MAX_VLEN`.
    #[must_use]
    pub fn vec_elem(&self, reg: supersym_isa::VecReg, element: usize) -> f64 {
        self.vec[reg.index() as usize][element]
    }

    /// The current vector length.
    #[must_use]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Reads a memory word (for checksum assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn memory_word(&self, addr: usize) -> i64 {
        self.memory.get(addr)
    }

    #[inline]
    fn addr(&self, base: u8, offset: i64) -> Result<usize, SimError> {
        let addr = self.int[base as usize].wrapping_add(offset);
        if addr < 0 || addr as usize >= self.memory.len() {
            Err(SimError::MemoryOutOfBounds {
                addr,
                memory_words: self.memory.len(),
            })
        } else {
            Ok(addr as usize)
        }
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` once the program has halted.
    ///
    /// # Errors
    ///
    /// Propagates memory faults, call-stack overflow, step-limit overruns,
    /// and falling off the end of a function.
    // Always inlined: the simulation loops are generic over their event
    // target, and with a plain `#[inline]` LLVM calls an out-of-line copy
    // from each instantiation instead, which made the benchmark's sweep
    // and profile workloads about 30% slower on a 2-vCPU Xeon.
    #[inline(always)]
    pub fn step(&mut self) -> Result<Option<StepInfo>, SimError> {
        if self.halted {
            return Ok(None);
        }
        if self.steps >= self.options.max_steps {
            return Err(SimError::StepLimitExceeded {
                limit: self.options.max_steps,
            });
        }
        if self.pc >= self.cur_len {
            return Err(SimError::FellOffFunction(self.func));
        }
        let info_pc = self.pc;
        let info_func = self.func;
        let slot = self.cur_base + self.pc;
        let Decoded {
            op,
            class,
            uses,
            def,
        } = self.decoded[slot];
        let mut mem = None;
        let mut vlen = 0_u32;
        let mut control = ControlEvent::None;
        let mut next_pc = self.pc + 1;

        // Register reads index the file directly: `int[0]` (the zero
        // register) is never written, so reads need no zero check; only
        // integer writes are guarded.
        match op.kind {
            OpKind::IntOpR(int_op) => {
                let value = eval_int_op(int_op, self.int[op.a as usize], self.int[op.b as usize]);
                if op.dst != 0 {
                    self.int[op.dst as usize] = value;
                }
            }
            OpKind::IntOpI(int_op) => {
                let value = eval_int_op(int_op, self.int[op.a as usize], op.imm);
                if op.dst != 0 {
                    self.int[op.dst as usize] = value;
                }
            }
            OpKind::MovI => {
                if op.dst != 0 {
                    self.int[op.dst as usize] = op.imm;
                }
            }
            OpKind::FpOp(fp_op) => {
                let a = self.fp[op.a as usize];
                let b = self.fp[op.b as usize];
                self.fp[op.dst as usize] = eval_fp_op(fp_op, a, b);
            }
            OpKind::FpCmp(cmp) => {
                let a = self.fp[op.a as usize];
                let b = self.fp[op.b as usize];
                let value = match cmp {
                    FpCmpOp::FEq => a == b,
                    FpCmpOp::FNe => a != b,
                    FpCmpOp::FLt => a < b,
                    FpCmpOp::FLe => a <= b,
                    FpCmpOp::FGt => a > b,
                    FpCmpOp::FGe => a >= b,
                };
                if op.dst != 0 {
                    self.int[op.dst as usize] = i64::from(value);
                }
            }
            OpKind::MovF => self.fp[op.dst as usize] = f64::from_bits(op.imm as u64),
            OpKind::FMov => self.fp[op.dst as usize] = self.fp[op.a as usize],
            OpKind::IToF => self.fp[op.dst as usize] = self.int[op.a as usize] as f64,
            OpKind::FToI => {
                let value = self.fp[op.a as usize];
                if op.dst != 0 {
                    self.int[op.dst as usize] = value as i64;
                }
            }
            OpKind::Load => {
                let addr = self.addr(op.a, op.imm)?;
                let value = self.memory.get(addr);
                if op.dst != 0 {
                    self.int[op.dst as usize] = value;
                }
                mem = Some((addr, false));
            }
            OpKind::LoadF => {
                let addr = self.addr(op.a, op.imm)?;
                self.fp[op.dst as usize] = f64::from_bits(self.memory.get(addr) as u64);
                mem = Some((addr, false));
            }
            OpKind::Store => {
                let addr = self.addr(op.a, op.imm)?;
                self.memory.set(addr, self.int[op.b as usize]);
                mem = Some((addr, true));
            }
            OpKind::StoreF => {
                let addr = self.addr(op.a, op.imm)?;
                self.memory
                    .set(addr, self.fp[op.b as usize].to_bits() as i64);
                mem = Some((addr, true));
            }
            OpKind::SetVl => {
                let requested = self.int[op.a as usize];
                self.vl = requested.clamp(0, MAX_VLEN as i64) as usize;
            }
            OpKind::VLoad => {
                let addr = self.addr(op.a, op.imm)?;
                if addr + self.vl > self.memory.len() {
                    return Err(SimError::MemoryOutOfBounds {
                        addr: (addr + self.vl) as i64,
                        memory_words: self.memory.len(),
                    });
                }
                for k in 0..self.vl {
                    self.vec[op.dst as usize][k] = f64::from_bits(self.memory.get(addr + k) as u64);
                }
                mem = Some((addr, false));
                vlen = self.vl as u32;
            }
            OpKind::VStore => {
                let addr = self.addr(op.a, op.imm)?;
                if addr + self.vl > self.memory.len() {
                    return Err(SimError::MemoryOutOfBounds {
                        addr: (addr + self.vl) as i64,
                        memory_words: self.memory.len(),
                    });
                }
                for k in 0..self.vl {
                    self.memory
                        .set(addr + k, self.vec[op.b as usize][k].to_bits() as i64);
                }
                mem = Some((addr, true));
                vlen = self.vl as u32;
            }
            OpKind::VOp(fp_op) => {
                for k in 0..self.vl {
                    let a = self.vec[op.a as usize][k];
                    let b = self.vec[op.b as usize][k];
                    self.vec[op.dst as usize][k] = eval_fp_op(fp_op, a, b);
                }
                vlen = self.vl as u32;
            }
            OpKind::VOpS(fp_op) => {
                let b = self.fp[op.b as usize];
                for k in 0..self.vl {
                    let a = self.vec[op.a as usize][k];
                    self.vec[op.dst as usize][k] = eval_fp_op(fp_op, a, b);
                }
                vlen = self.vl as u32;
            }
            OpKind::Br { expect } => {
                let taken = (self.int[op.a as usize] != 0) == expect;
                if taken {
                    next_pc = op.imm as usize;
                }
                control = ControlEvent::Branch { taken };
            }
            OpKind::Jmp => {
                next_pc = op.imm as usize;
                control = ControlEvent::Jump;
            }
            OpKind::Call => {
                if self.call_stack.len() >= self.options.max_call_depth {
                    return Err(SimError::CallStackOverflow {
                        limit: self.options.max_call_depth,
                    });
                }
                let target = FuncId::new(op.imm as u32);
                if target.index() >= self.program.functions().len() {
                    return Err(SimError::UnknownFunction(target));
                }
                self.call_stack.push((self.func, self.pc + 1));
                self.func = target;
                self.cur_base = self.decode_base[target.index()];
                self.cur_len = self.func_len[target.index()];
                next_pc = 0;
                control = ControlEvent::Call;
            }
            OpKind::Ret => match self.call_stack.pop() {
                Some((func, pc)) => {
                    self.func = func;
                    self.cur_base = self.decode_base[func.index()];
                    self.cur_len = self.func_len[func.index()];
                    next_pc = pc;
                    control = ControlEvent::Return;
                }
                None => {
                    self.halted = true;
                    control = ControlEvent::Halt;
                }
            },
            OpKind::Halt => {
                self.halted = true;
                control = ControlEvent::Halt;
            }
        }

        self.pc = next_pc;
        self.steps += 1;
        self.census.record(class);
        Ok(Some(StepInfo {
            func: info_func,
            pc: info_pc,
            class,
            uses,
            def,
            mem,
            vlen,
            control,
        }))
    }

    /// Runs to completion, discarding step information.
    ///
    /// # Errors
    ///
    /// Propagates the first execution error.
    pub fn run(&mut self) -> Result<(), SimError> {
        while self.step()?.is_some() {}
        Ok(())
    }
}

/// Flattens one static instruction into its [`Op`] record, resolving
/// branch/jump labels to instruction indices. Post-[`Program::validate`]
/// the label lookups cannot fail, but a dangling label is still reported as
/// a typed error rather than a panic.
fn predecode(instr: &Instr, function: &Function, func: FuncId) -> Result<Op, SimError> {
    let op = |kind: OpKind, dst: u8, a: u8, b: u8, imm: i64| Op {
        kind,
        dst,
        a,
        b,
        imm,
    };
    let resolve = |label: supersym_isa::Label| {
        function.try_resolve(label).ok_or(SimError::DanglingLabel {
            func,
            slot: label.slot(),
        })
    };
    Ok(match instr {
        Instr::IntOp {
            op: int_op,
            dst,
            lhs,
            rhs,
        } => match rhs {
            Operand::Reg(r) => op(
                OpKind::IntOpR(*int_op),
                dst.index(),
                lhs.index(),
                r.index(),
                0,
            ),
            Operand::Imm(v) => op(OpKind::IntOpI(*int_op), dst.index(), lhs.index(), 0, *v),
        },
        Instr::MovI { dst, imm } => op(OpKind::MovI, dst.index(), 0, 0, *imm),
        Instr::FpOp {
            op: fp_op,
            dst,
            lhs,
            rhs,
        } => op(
            OpKind::FpOp(*fp_op),
            dst.index(),
            lhs.index(),
            rhs.index(),
            0,
        ),
        Instr::FpCmp {
            op: cmp,
            dst,
            lhs,
            rhs,
        } => op(
            OpKind::FpCmp(*cmp),
            dst.index(),
            lhs.index(),
            rhs.index(),
            0,
        ),
        Instr::MovF { dst, imm } => op(OpKind::MovF, dst.index(), 0, 0, imm.to_bits() as i64),
        Instr::FMov { dst, src } => op(OpKind::FMov, dst.index(), src.index(), 0, 0),
        Instr::IToF { dst, src } => op(OpKind::IToF, dst.index(), src.index(), 0, 0),
        Instr::FToI { dst, src } => op(OpKind::FToI, dst.index(), src.index(), 0, 0),
        Instr::Load {
            dst, base, offset, ..
        } => op(OpKind::Load, dst.index(), base.index(), 0, *offset),
        Instr::LoadF {
            dst, base, offset, ..
        } => op(OpKind::LoadF, dst.index(), base.index(), 0, *offset),
        Instr::Store {
            src, base, offset, ..
        } => op(OpKind::Store, 0, base.index(), src.index(), *offset),
        Instr::StoreF {
            src, base, offset, ..
        } => op(OpKind::StoreF, 0, base.index(), src.index(), *offset),
        Instr::SetVl { src } => op(OpKind::SetVl, 0, src.index(), 0, 0),
        Instr::VLoad {
            dst, base, offset, ..
        } => op(OpKind::VLoad, dst.index(), base.index(), 0, *offset),
        Instr::VStore {
            src, base, offset, ..
        } => op(OpKind::VStore, 0, base.index(), src.index(), *offset),
        Instr::VOp {
            op: fp_op,
            dst,
            lhs,
            rhs,
        } => op(
            OpKind::VOp(*fp_op),
            dst.index(),
            lhs.index(),
            rhs.index(),
            0,
        ),
        Instr::VOpS {
            op: fp_op,
            dst,
            lhs,
            scalar,
        } => op(
            OpKind::VOpS(*fp_op),
            dst.index(),
            lhs.index(),
            scalar.index(),
            0,
        ),
        Instr::Br {
            cond,
            expect,
            target,
        } => op(
            OpKind::Br { expect: *expect },
            0,
            cond.index(),
            0,
            resolve(*target)? as i64,
        ),
        Instr::Jmp { target } => op(OpKind::Jmp, 0, 0, 0, resolve(*target)? as i64),
        Instr::Call { target } => op(OpKind::Call, 0, 0, 0, target.index() as i64),
        Instr::Ret => op(OpKind::Ret, 0, 0, 0, 0),
        Instr::Halt => op(OpKind::Halt, 0, 0, 0, 0),
    })
}

fn eval_fp_op(op: supersym_isa::FpOp, a: f64, b: f64) -> f64 {
    match op {
        supersym_isa::FpOp::FAdd => a + b,
        supersym_isa::FpOp::FSub => a - b,
        supersym_isa::FpOp::FMul => a * b,
        supersym_isa::FpOp::FDiv => a / b,
    }
}

fn eval_int_op(op: IntOp, a: i64, b: i64) -> i64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IntOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Sll => a.wrapping_shl(b as u32 & 63),
        IntOp::Srl => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        IntOp::Sra => a.wrapping_shr(b as u32 & 63),
        IntOp::CmpEq => i64::from(a == b),
        IntOp::CmpNe => i64::from(a != b),
        IntOp::CmpLt => i64::from(a < b),
        IntOp::CmpLe => i64::from(a <= b),
        IntOp::CmpGt => i64::from(a > b),
        IntOp::CmpGe => i64::from(a >= b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_isa::AsmBuilder;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    fn small_options() -> ExecOptions {
        ExecOptions {
            memory_words: 1024,
            max_call_depth: 16,
            max_steps: 100_000,
        }
    }

    #[test]
    fn missing_entry_is_typed_error() {
        let program = Program::new();
        let err = Executor::new(&program, small_options()).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidProgram(IsaError::MissingEntry)
        ));
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 20);
        asm.movi(r(2), 22);
        asm.add(r(3), r(1), r(2).into());
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(r(3)), 42);
        assert_eq!(exec.steps(), 4);
        assert!(exec.halted());
    }

    #[test]
    fn loop_executes_expected_count() {
        // r1 = 10; while (r1 > 0) r1 -= 1
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        asm.movi(r(1), 10);
        asm.bind(top);
        asm.sub(r(1), r(1), 1.into());
        asm.cmp_gt(r(2), r(1), 0.into());
        asm.br_true(r(2), top);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(r(1)), 0);
        // movi + 10 * (sub, cmp, br) + halt
        assert_eq!(exec.steps(), 1 + 30 + 1);
    }

    #[test]
    fn memory_roundtrip() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 123);
        asm.movi(r(2), 100); // address
        asm.store(r(1), r(2), 5);
        asm.load(r(3), r(2), 5);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(r(3)), 123);
        assert_eq!(exec.memory_word(105), 123);
    }

    #[test]
    fn fp_roundtrip_through_memory() {
        use supersym_isa::FpReg;
        let f1 = FpReg::new(1).unwrap();
        let f2 = FpReg::new(2).unwrap();
        let mut asm = AsmBuilder::new("main");
        asm.movf(f1, 2.5);
        asm.movf(f2, 4.0);
        asm.fmul(f1, f1, f2);
        asm.storef(f1, IntReg::GP, 10);
        asm.loadf(f2, IntReg::GP, 10);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.fp_reg(f2), 10.0);
    }

    #[test]
    fn zero_register_immutable() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(IntReg::ZERO, 99);
        asm.add(r(1), IntReg::ZERO, 1.into());
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(IntReg::ZERO), 0);
        assert_eq!(exec.int_reg(r(1)), 1);
    }

    #[test]
    fn call_and_return() {
        use supersym_isa::{Function, Instr, Program};
        // callee: r1 = r1 * 2; ret
        let callee = Function::new(
            "double",
            vec![
                Instr::IntOp {
                    op: IntOp::Mul,
                    dst: r(1),
                    lhs: r(1),
                    rhs: Operand::Imm(2),
                },
                Instr::Ret,
            ],
            vec![],
        );
        let mut program = Program::new();
        let callee_id = program.add_function(callee);
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 21);
        asm.call(callee_id);
        asm.halt();
        let main_id = program.add_function(asm.finish());
        program.set_entry(main_id);
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(r(1)), 42);
    }

    #[test]
    fn ret_from_entry_halts() {
        let mut asm = AsmBuilder::new("main");
        asm.ret();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert!(exec.halted());
    }

    #[test]
    fn out_of_bounds_store_faults() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), -5);
        asm.store(r(1), r(1), 0);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        let err = exec.run().unwrap_err();
        assert!(matches!(err, SimError::MemoryOutOfBounds { addr: -5, .. }));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut asm = AsmBuilder::new("main");
        let top = asm.new_label();
        asm.bind(top);
        asm.jmp(top);
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        let err = exec.run().unwrap_err();
        assert!(matches!(err, SimError::StepLimitExceeded { .. }));
    }

    #[test]
    fn division_by_zero_defined() {
        assert_eq!(eval_int_op(IntOp::Div, 5, 0), 0);
        assert_eq!(eval_int_op(IntOp::Rem, 5, 0), 5);
        assert_eq!(eval_int_op(IntOp::Div, i64::MIN, -1), i64::MIN); // wrapping
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(eval_int_op(IntOp::Sll, 1, 64), 1);
        assert_eq!(eval_int_op(IntOp::Srl, -1, 1), i64::MAX);
        assert_eq!(eval_int_op(IntOp::Sra, -8, 2), -2);
    }

    #[test]
    fn census_counts_classes() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 1);
        asm.add(r(2), r(1), 1.into());
        asm.and(r(3), r(1), r(2).into());
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.census().count(InstrClass::IntAdd), 2); // movi + add
        assert_eq!(exec.census().count(InstrClass::Logical), 1);
        assert_eq!(exec.census().count(InstrClass::Jump), 1); // halt
    }

    #[test]
    fn branch_step_info_reports_taken() {
        let mut asm = AsmBuilder::new("main");
        let skip = asm.new_label();
        asm.movi(r(1), 1);
        asm.br_true(r(1), skip);
        asm.movi(r(2), 99); // skipped
        asm.bind(skip);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        let mut taken_seen = false;
        while let Some(info) = exec.step().unwrap() {
            if let ControlEvent::Branch { taken } = info.control {
                taken_seen = taken;
            }
        }
        assert!(taken_seen);
        assert_eq!(exec.int_reg(r(2)), 0);
    }

    #[test]
    fn call_depth_limit() {
        use supersym_isa::{Function, Instr, Program};
        let mut program = Program::new();
        // fn f() { f(); }
        let f = Function::new(
            "f",
            vec![
                Instr::Call {
                    target: supersym_isa::FuncId::new(0),
                },
                Instr::Ret,
            ],
            vec![],
        );
        let id = program.add_function(f);
        program.set_entry(id);
        let mut exec = Executor::new(&program, small_options()).unwrap();
        let err = exec.run().unwrap_err();
        assert!(matches!(err, SimError::CallStackOverflow { limit: 16 }));
    }

    #[test]
    fn vector_roundtrip_and_arithmetic() {
        use supersym_isa::{FpOp, FpReg, VecReg};
        let v1 = VecReg::new(1).unwrap();
        let v2 = VecReg::new(2).unwrap();
        let f1 = FpReg::new(1).unwrap();
        let mut asm = AsmBuilder::new("main");
        // Fill memory[100..108] via scalar stores, then vector-process.
        for k in 0..8 {
            asm.movf(f1, k as f64 + 1.0);
            asm.storef(f1, IntReg::GP, 100 + k);
        }
        asm.movi(r(1), 8);
        asm.setvl(r(1));
        asm.movi(r(2), 100);
        asm.vload(v1, r(2), 0);
        asm.vop(FpOp::FAdd, v2, v1, v1); // v2 = 2*x
        asm.movf(f1, 10.0);
        asm.vop_s(FpOp::FMul, v2, v2, f1); // v2 = 20*x
        asm.vstore(v2, r(2), 100); // memory[200..208]
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.vl(), 8);
        for k in 0..8 {
            assert_eq!(exec.vec_elem(v1, k), k as f64 + 1.0);
            assert_eq!(
                f64::from_bits(exec.memory_word(200 + k) as u64),
                (k as f64 + 1.0) * 20.0
            );
        }
    }

    #[test]
    fn setvl_clamps() {
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 1000);
        asm.setvl(r(1));
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.vl(), supersym_isa::MAX_VLEN);
    }

    #[test]
    fn vector_load_bounds_checked() {
        use supersym_isa::VecReg;
        let mut asm = AsmBuilder::new("main");
        asm.movi(r(1), 8);
        asm.setvl(r(1));
        asm.movi(r(2), 1020); // 1020 + 8 > 1024
        asm.vload(VecReg::new(1).unwrap(), r(2), 0);
        asm.halt();
        let program = asm.finish_program();
        let mut exec = Executor::new(&program, small_options()).unwrap();
        assert!(matches!(
            exec.run(),
            Err(SimError::MemoryOutOfBounds { .. })
        ));
    }

    #[test]
    fn data_image_loaded() {
        let mut asm = AsmBuilder::new("main");
        asm.load(r(1), IntReg::GP, 3);
        asm.halt();
        let mut program = asm.finish_program();
        program.alloc_globals(8);
        program.add_data(3, 777);
        let mut exec = Executor::new(&program, small_options()).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.int_reg(r(1)), 777);
    }
}
