//! IR → machine-code lowering.
//!
//! Responsibilities: instruction selection, expression-temporary assignment
//! (with spilling when the configured temporary pool runs dry — the paper's
//! register-pressure effect, §4.4), frame layout, the calling convention
//! (`r1..r8`/`f1..f8` argument registers, results in `r1`/`f1`), home-
//! register moves for promoted variables, and [`MemAlias`] disambiguation
//! tags consumed by the scheduler.

use supersym_ir as ir;
use supersym_ir::{GlobalKind, Inst, Terminator, VReg, VarRef};
use supersym_isa::{
    FpCmpOp, FpOp, FpReg, Function, Instr, IntOp, IntReg, Label, MemAlias, Operand, Program,
};
use supersym_lang::ast::Ty;
use supersym_regalloc::{Home, HomeAllocation, TempPool};
use supersym_rng::HashMap;

/// The smallest temporary pool lowering can work with, per register file:
/// a binary operation needs two operand registers plus a result, and the
/// spill path needs one more to reload into while both operands are held.
/// Callers with a configurable split must check against this *before*
/// calling [`lower_program`] (the pipeline surfaces it as a typed
/// `RegisterSplit` error); the assert below is the last-line defense.
pub const MIN_TEMP_REGS: usize = 4;

/// Lowers an IR module (with homes allocated) to a machine program.
///
/// Requires [`crate::split_live_across_calls`] to have run; lowering
/// `debug_assert`s that no vreg is live across a call.
///
/// # Panics
///
/// Panics if the IR is malformed (use [`ir::Module::validate`] first) or if
/// a temporary pool holds fewer than [`MIN_TEMP_REGS`] registers.
#[must_use]
pub fn lower_program(module: &ir::Module, homes: &HomeAllocation) -> Program {
    assert!(
        homes.int_temps().len() >= MIN_TEMP_REGS && homes.fp_temps().len() >= MIN_TEMP_REGS,
        "temporary pools must hold at least {MIN_TEMP_REGS} registers"
    );
    let mut program = Program::new();
    program.alloc_globals(homes.globals_words());
    // Data image for memory-resident scalars.
    for (index, global) in module.globals.iter().enumerate() {
        if let GlobalKind::Scalar { init } = global.kind {
            if let Home::GlobalMem(addr) = homes.global_home(ir::GlobalId(index as u32)) {
                let bits = match global.ty {
                    Ty::Int => init as i64,
                    Ty::Float => init.to_bits() as i64,
                };
                if bits != 0 {
                    program.add_data(addr, bits);
                }
            }
        }
    }
    let mut next_stack_sym = module.globals.len() as u32;
    for (func_index, func) in module.funcs.iter().enumerate() {
        let lowered = FnLower::new(module, homes, func_index, func, &mut next_stack_sym).run();
        program.add_function(lowered);
    }
    program.set_entry(supersym_isa::FuncId::new(module.entry as u32));
    program
}

/// Where a vreg's value currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loc {
    /// In a temporary integer register.
    TempInt(IntReg),
    /// In a temporary FP register.
    TempFp(FpReg),
    /// Readable from a variable's home register (until that variable is
    /// written).
    PinnedInt(IntReg, VarRef),
    /// Readable from a variable's FP home register.
    PinnedFp(FpReg, VarRef),
    /// A known integer constant, not yet materialized (folded into
    /// immediate operands where the ISA allows).
    Imm(i64),
    /// Spilled to a frame slot.
    Spill(usize),
}

struct FnLower<'a> {
    module: &'a ir::Module,
    homes: &'a HomeAllocation,
    func_index: usize,
    func: &'a ir::Function,
    out: Vec<Instr>,
    labels: Vec<usize>,
    int_pool: TempPool<IntReg>,
    fp_pool: TempPool<FpReg>,
    locs: HashMap<VReg, Loc>,
    /// Per-vreg positions of uses within the current block (terminator =
    /// `insts.len()`).
    use_positions: HashMap<VReg, Vec<usize>>,
    cur_pos: usize,
    /// vreg -> lowering position of its definition (for alias-tag validity).
    def_pos: HashMap<VReg, usize>,
    /// var -> position of the last tag-clearing event (write or call).
    last_clear: HashMap<VarRef, usize>,
    /// index-base fingerprint -> current alias base tag.
    cur_tags: HashMap<u64, u32>,
    /// var -> index-base fingerprints whose tags it invalidates.
    base_vars: HashMap<VarRef, Vec<u64>>,
    next_tag: u32,
    spill_slots: HashMap<VReg, usize>,
    spill_count: usize,
    frame_patch: Vec<usize>,
    /// Stack alias symbols: one per frame/spill slot.
    slot_syms: HashMap<usize, u32>,
    next_stack_sym: &'a mut u32,
}

impl<'a> FnLower<'a> {
    fn new(
        module: &'a ir::Module,
        homes: &'a HomeAllocation,
        func_index: usize,
        func: &'a ir::Function,
        next_stack_sym: &'a mut u32,
    ) -> Self {
        FnLower {
            module,
            homes,
            func_index,
            func,
            out: Vec::new(),
            labels: vec![0; func.blocks.len()],
            int_pool: TempPool::new(homes.int_temps().to_vec()),
            fp_pool: TempPool::new(homes.fp_temps().to_vec()),
            locs: HashMap::default(),
            use_positions: HashMap::default(),
            cur_pos: 0,
            def_pos: HashMap::default(),
            last_clear: HashMap::default(),
            cur_tags: HashMap::default(),
            base_vars: HashMap::default(),
            next_tag: 0,
            spill_slots: HashMap::default(),
            spill_count: 0,
            frame_patch: Vec::new(),
            slot_syms: HashMap::default(),
            next_stack_sym,
        }
    }

    fn run(mut self) -> Function {
        self.emit_prologue();
        if self.func_index == self.module.entry {
            self.emit_global_reg_inits();
        }
        for block_index in 0..self.func.blocks.len() {
            self.labels[block_index] = self.out.len();
            self.lower_block(block_index);
        }
        // Patch frame-size immediates.
        let total = self.homes.frame_words(self.func_index) + self.spill_count;
        for &pos in &self.frame_patch {
            if let Instr::IntOp { rhs, .. } = &mut self.out[pos] {
                *rhs = Operand::Imm(total as i64);
            }
        }
        Function::new(self.func.name.clone(), self.out, self.labels)
    }

    fn emit(&mut self, instr: Instr) {
        self.out.push(instr);
    }

    fn emit_prologue(&mut self) {
        // sp -= frame (patched once spill count is known).
        self.frame_patch.push(self.out.len());
        self.emit(Instr::IntOp {
            op: IntOp::Sub,
            dst: IntReg::SP,
            lhs: IntReg::SP,
            rhs: Operand::Imm(0),
        });
        // Move parameters from argument registers to their homes.
        let mut int_seen = 0_u8;
        let mut fp_seen = 0_u8;
        let mut params: Vec<(usize, usize)> = self
            .func
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.param_index.map(|p| (p, i)))
            .collect();
        params.sort_unstable();
        for (_, var_index) in params {
            let var = ir::LocalId(var_index as u32);
            let ty = self.func.vars[var_index].ty;
            let home = self.homes.local_home(self.func_index, var);
            match ty {
                Ty::Int => {
                    int_seen += 1;
                    let arg = IntReg::new_unchecked(int_seen);
                    match home {
                        Home::IntReg(r) => self.emit(Instr::IntOp {
                            op: IntOp::Add,
                            dst: r,
                            lhs: arg,
                            rhs: Operand::Imm(0),
                        }),
                        Home::Frame(slot) => {
                            let alias = self.slot_alias(slot);
                            self.emit(Instr::Store {
                                src: arg,
                                base: IntReg::SP,
                                offset: slot as i64,
                                alias,
                            });
                        }
                        _ => unreachable!("locals live in registers or frames"),
                    }
                }
                Ty::Float => {
                    fp_seen += 1;
                    let arg = FpReg::new_unchecked(fp_seen);
                    match home {
                        Home::FpReg(r) => self.emit(Instr::FMov { dst: r, src: arg }),
                        Home::Frame(slot) => {
                            let alias = self.slot_alias(slot);
                            self.emit(Instr::StoreF {
                                src: arg,
                                base: IntReg::SP,
                                offset: slot as i64,
                                alias,
                            });
                        }
                        _ => unreachable!("locals live in registers or frames"),
                    }
                }
            }
        }
    }

    /// Initial values for globals promoted to registers (entry function
    /// preamble).
    fn emit_global_reg_inits(&mut self) {
        for (index, global) in self.module.globals.iter().enumerate() {
            let GlobalKind::Scalar { init } = global.kind else {
                continue;
            };
            if init == 0.0 {
                continue; // registers reset to zero
            }
            match self.homes.global_home(ir::GlobalId(index as u32)) {
                Home::IntReg(r) => self.emit(Instr::MovI {
                    dst: r,
                    imm: init as i64,
                }),
                Home::FpReg(r) => self.emit(Instr::MovF { dst: r, imm: init }),
                _ => {}
            }
        }
    }

    fn slot_sym(&mut self, key: usize) -> u32 {
        if let Some(&sym) = self.slot_syms.get(&key) {
            sym
        } else {
            let sym = *self.next_stack_sym;
            *self.next_stack_sym += 1;
            self.slot_syms.insert(key, sym);
            sym
        }
    }

    fn slot_alias(&mut self, slot: usize) -> MemAlias {
        let sym = self.slot_sym(slot);
        MemAlias::stack(sym).with_offset(0)
    }

    fn lower_block(&mut self, block_index: usize) {
        let block = &self.func.blocks[block_index];
        // Reset per-block state.
        self.int_pool.reset();
        self.fp_pool.reset();
        self.locs.clear();
        self.use_positions.clear();
        self.def_pos.clear();
        self.last_clear.clear();
        self.cur_tags.clear();
        self.base_vars.clear();
        // Use positions.
        for (pos, inst) in block.insts.iter().enumerate() {
            inst.for_each_use(|v| self.use_positions.entry(v).or_default().push(pos));
        }
        if let Some(v) = block.term.used_vreg() {
            self.use_positions
                .entry(v)
                .or_default()
                .push(block.insts.len());
        }

        for (pos, inst) in block.insts.iter().enumerate() {
            self.cur_pos = pos;
            self.lower_inst(inst);
        }
        self.cur_pos = block.insts.len();
        self.lower_terminator(block_index, &block.term);
    }

    fn next_use(&self, vreg: VReg, after: usize) -> Option<usize> {
        self.use_positions
            .get(&vreg)
            .and_then(|uses| uses.iter().copied().find(|&u| u > after))
    }

    fn is_dead_after(&self, vreg: VReg, pos: usize) -> bool {
        self.next_use(vreg, pos).is_none()
    }

    fn release_loc(&mut self, vreg: VReg) {
        match self.locs.remove(&vreg) {
            Some(Loc::TempInt(r)) => self.int_pool.release(r),
            Some(Loc::TempFp(r)) => self.fp_pool.release(r),
            _ => {}
        }
    }

    fn release_if_dead(&mut self, vreg: VReg) {
        if self.is_dead_after(vreg, self.cur_pos) {
            self.release_loc(vreg);
        }
    }

    /// Allocates an integer temp, spilling the temp whose next use is
    /// farthest if the pool is dry. `locked` registers are exempt.
    fn alloc_int(&mut self, locked: &[IntReg]) -> IntReg {
        if let Some(r) = self.int_pool.alloc() {
            return r;
        }
        // Pick a victim.
        let victim = self
            .locs
            .iter()
            .filter_map(|(&v, &loc)| match loc {
                Loc::TempInt(r) if !locked.contains(&r) => {
                    Some((v, r, self.next_use(v, self.cur_pos).unwrap_or(usize::MAX)))
                }
                _ => None,
            })
            .max_by_key(|&(_, _, next)| next)
            .map(|(v, r, _)| (v, r))
            .expect("an unlocked integer temp must exist");
        let (victim_vreg, reg) = victim;
        let slot = self.spill_slot(victim_vreg);
        let alias = self.spill_alias(slot);
        self.emit(Instr::Store {
            src: reg,
            base: IntReg::SP,
            offset: self.spill_offset(slot),
            alias,
        });
        self.locs.insert(victim_vreg, Loc::Spill(slot));
        reg
    }

    fn alloc_fp(&mut self, locked: &[FpReg]) -> FpReg {
        if let Some(r) = self.fp_pool.alloc() {
            return r;
        }
        let victim = self
            .locs
            .iter()
            .filter_map(|(&v, &loc)| match loc {
                Loc::TempFp(r) if !locked.contains(&r) => {
                    Some((v, r, self.next_use(v, self.cur_pos).unwrap_or(usize::MAX)))
                }
                _ => None,
            })
            .max_by_key(|&(_, _, next)| next)
            .map(|(v, r, _)| (v, r))
            .expect("an unlocked FP temp must exist");
        let (victim_vreg, reg) = victim;
        let slot = self.spill_slot(victim_vreg);
        let alias = self.spill_alias(slot);
        self.emit(Instr::StoreF {
            src: reg,
            base: IntReg::SP,
            offset: self.spill_offset(slot),
            alias,
        });
        self.locs.insert(victim_vreg, Loc::Spill(slot));
        reg
    }

    fn spill_slot(&mut self, vreg: VReg) -> usize {
        if let Some(&slot) = self.spill_slots.get(&vreg) {
            slot
        } else {
            let slot = self.spill_count;
            self.spill_count += 1;
            self.spill_slots.insert(vreg, slot);
            slot
        }
    }

    /// Spill slots live after the frame words.
    fn spill_offset(&self, slot: usize) -> i64 {
        (self.homes.frame_words(self.func_index) + slot) as i64
    }

    fn spill_alias(&mut self, slot: usize) -> MemAlias {
        // Spill slots share the frame-slot keyspace at frame_words + slot.
        let key = self.homes.frame_words(self.func_index) + slot;
        let sym = self.slot_sym(key);
        MemAlias::stack(sym).with_offset(0)
    }

    /// Fetches a vreg into an integer register.
    fn use_int(&mut self, vreg: VReg, locked: &[IntReg]) -> IntReg {
        match self.locs.get(&vreg).copied() {
            Some(Loc::TempInt(r)) | Some(Loc::PinnedInt(r, _)) => r,
            Some(Loc::Imm(value)) => {
                let r = self.alloc_int(locked);
                self.emit(Instr::MovI { dst: r, imm: value });
                self.locs.insert(vreg, Loc::TempInt(r));
                r
            }
            Some(Loc::Spill(slot)) => {
                let r = self.alloc_int(locked);
                let alias = self.spill_alias(slot);
                self.emit(Instr::Load {
                    dst: r,
                    base: IntReg::SP,
                    offset: self.spill_offset(slot),
                    alias,
                });
                self.locs.insert(vreg, Loc::TempInt(r));
                r
            }
            other => panic!("vreg {vreg:?} not in an int location: {other:?}"),
        }
    }

    /// Fetches a vreg as an ALU operand, using an immediate when possible.
    fn use_int_operand(&mut self, vreg: VReg, locked: &[IntReg]) -> Operand {
        if let Some(&Loc::Imm(value)) = self.locs.get(&vreg) {
            Operand::Imm(value)
        } else {
            Operand::Reg(self.use_int(vreg, locked))
        }
    }

    /// The constant a vreg holds, if it is an unmaterialized immediate.
    fn const_of(&self, vreg: VReg) -> Option<i64> {
        match self.locs.get(&vreg) {
            Some(&Loc::Imm(value)) => Some(value),
            _ => None,
        }
    }

    fn use_fp(&mut self, vreg: VReg, locked: &[FpReg]) -> FpReg {
        match self.locs.get(&vreg).copied() {
            Some(Loc::TempFp(r)) | Some(Loc::PinnedFp(r, _)) => r,
            Some(Loc::Spill(slot)) => {
                let r = self.alloc_fp(locked);
                let alias = self.spill_alias(slot);
                self.emit(Instr::LoadF {
                    dst: r,
                    base: IntReg::SP,
                    offset: self.spill_offset(slot),
                    alias,
                });
                self.locs.insert(vreg, Loc::TempFp(r));
                r
            }
            other => panic!("vreg {vreg:?} not in an fp location: {other:?}"),
        }
    }

    /// Allocates the destination register for a (re)defined vreg.
    fn def_int(&mut self, vreg: VReg, locked: &[IntReg]) -> IntReg {
        self.release_loc(vreg); // redefinition drops the old location
        let r = self.alloc_int(locked);
        self.locs.insert(vreg, Loc::TempInt(r));
        self.def_pos.insert(vreg, self.cur_pos);
        r
    }

    fn def_fp(&mut self, vreg: VReg, locked: &[FpReg]) -> FpReg {
        self.release_loc(vreg);
        let r = self.alloc_fp(locked);
        self.locs.insert(vreg, Loc::TempFp(r));
        self.def_pos.insert(vreg, self.cur_pos);
        r
    }

    /// Current alias tag for an index base fingerprint (fresh after any of
    /// its variables is written or clobbered by a call).
    fn tag_for(&mut self, base: u64) -> u32 {
        if let Some(&tag) = self.cur_tags.get(&base) {
            tag
        } else {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.cur_tags.insert(base, tag);
            tag
        }
    }

    fn elem_alias(
        &mut self,
        arr: ir::GlobalId,
        index: VReg,
        origin: Option<&ir::IndexOrigin>,
    ) -> MemAlias {
        let base_alias = MemAlias::global(arr.0);
        match origin {
            None => base_alias,
            Some(ir::IndexOrigin::Absolute(delta)) => base_alias.with_offset(*delta),
            Some(ir::IndexOrigin::Relative { base, vars, delta }) => {
                // The tag is valid only if no clearing event (a write to any
                // base variable, or a call when one is global) occurred
                // since the index was computed.
                let defined = self.def_pos.get(&index).copied().unwrap_or(0);
                for var in vars {
                    if let Some(&cleared) = self.last_clear.get(var) {
                        if cleared >= defined {
                            return base_alias;
                        }
                    }
                }
                let tag = self.tag_for(*base);
                for var in vars {
                    self.base_vars.entry(*var).or_default().push(*base);
                }
                base_alias.with_base(tag).with_offset(*delta)
            }
        }
    }

    /// Invalidates alias tags whose base expressions read `var`.
    fn clear_tags_for_var(&mut self, var: VarRef) {
        self.last_clear.insert(var, self.cur_pos);
        if let Some(bases) = self.base_vars.remove(&var) {
            for base in bases {
                self.cur_tags.remove(&base);
            }
        }
    }

    fn arr_base(&self, arr: ir::GlobalId) -> i64 {
        match self.homes.global_home(arr) {
            Home::GlobalMem(addr) => addr as i64,
            _ => unreachable!("arrays always live in memory"),
        }
    }

    fn lower_inst(&mut self, inst: &Inst) {
        match inst {
            Inst::ConstInt { dst, value } => {
                // Deferred: most uses fold the constant into an immediate
                // operand; only register-position uses materialize a MovI.
                self.release_loc(*dst);
                self.locs.insert(*dst, Loc::Imm(*value));
                self.def_pos.insert(*dst, self.cur_pos);
                self.release_if_dead(*dst);
            }
            Inst::ConstFloat { dst, value } => {
                let r = self.def_fp(*dst, &[]);
                self.emit(Instr::MovF {
                    dst: r,
                    imm: *value,
                });
                self.release_if_dead(*dst);
            }
            Inst::IntBin { op, dst, lhs, rhs } => {
                // Fold a constant into the immediate operand slot; commute
                // when the constant is on the left and the op allows it.
                let (mut lhs, mut rhs) = (*lhs, *rhs);
                if self.const_of(lhs).is_some()
                    && self.const_of(rhs).is_none()
                    && op.is_commutative()
                {
                    std::mem::swap(&mut lhs, &mut rhs);
                }
                let a = self.use_int(lhs, &[]);
                let b = self.use_int_operand(rhs, &[a]);
                self.release_if_dead(lhs);
                self.release_if_dead(rhs);
                let locked = match b {
                    Operand::Reg(r) => vec![a, r],
                    Operand::Imm(_) => vec![a],
                };
                let d = self.def_int(*dst, &locked);
                self.emit(Instr::IntOp {
                    op: int_op(*op),
                    dst: d,
                    lhs: a,
                    rhs: b,
                });
                self.release_if_dead(*dst);
            }
            Inst::FloatBin { op, dst, lhs, rhs } => {
                let a = self.use_fp(*lhs, &[]);
                let b = self.use_fp(*rhs, &[a]);
                self.release_if_dead(*lhs);
                self.release_if_dead(*rhs);
                let d = self.def_fp(*dst, &[a, b]);
                self.emit(Instr::FpOp {
                    op: fp_op(*op),
                    dst: d,
                    lhs: a,
                    rhs: b,
                });
                self.release_if_dead(*dst);
            }
            Inst::FloatCmp { op, dst, lhs, rhs } => {
                let a = self.use_fp(*lhs, &[]);
                let b = self.use_fp(*rhs, &[a]);
                self.release_if_dead(*lhs);
                self.release_if_dead(*rhs);
                let d = self.def_int(*dst, &[]);
                self.emit(Instr::FpCmp {
                    op: fp_cmp(*op),
                    dst: d,
                    lhs: a,
                    rhs: b,
                });
                self.release_if_dead(*dst);
            }
            Inst::Cast { dst, src, to } => match to {
                Ty::Float => {
                    let s = self.use_int(*src, &[]);
                    self.release_if_dead(*src);
                    let d = self.def_fp(*dst, &[]);
                    self.emit(Instr::IToF { dst: d, src: s });
                    self.release_if_dead(*dst);
                }
                Ty::Int => {
                    let s = self.use_fp(*src, &[]);
                    self.release_if_dead(*src);
                    let d = self.def_int(*dst, &[]);
                    self.emit(Instr::FToI { dst: d, src: s });
                    self.release_if_dead(*dst);
                }
            },
            Inst::ReadVar { dst, var } => {
                self.def_pos.insert(*dst, self.cur_pos);
                self.release_loc(*dst);
                match self.homes.home(self.func_index, *var) {
                    Home::IntReg(r) => {
                        self.locs.insert(*dst, Loc::PinnedInt(r, *var));
                    }
                    Home::FpReg(r) => {
                        self.locs.insert(*dst, Loc::PinnedFp(r, *var));
                    }
                    Home::GlobalMem(addr) => {
                        let sym = self.var_sym(*var);
                        let alias = MemAlias::global(sym).with_offset(0);
                        match self.func.vreg_ty(*dst) {
                            Ty::Int => {
                                let d = self.def_int(*dst, &[]);
                                self.emit(Instr::Load {
                                    dst: d,
                                    base: IntReg::GP,
                                    offset: addr as i64,
                                    alias,
                                });
                            }
                            Ty::Float => {
                                let d = self.def_fp(*dst, &[]);
                                self.emit(Instr::LoadF {
                                    dst: d,
                                    base: IntReg::GP,
                                    offset: addr as i64,
                                    alias,
                                });
                            }
                        }
                    }
                    Home::Frame(slot) => {
                        let alias = self.slot_alias(slot);
                        match self.func.vreg_ty(*dst) {
                            Ty::Int => {
                                let d = self.def_int(*dst, &[]);
                                self.emit(Instr::Load {
                                    dst: d,
                                    base: IntReg::SP,
                                    offset: slot as i64,
                                    alias,
                                });
                            }
                            Ty::Float => {
                                let d = self.def_fp(*dst, &[]);
                                self.emit(Instr::LoadF {
                                    dst: d,
                                    base: IntReg::SP,
                                    offset: slot as i64,
                                    alias,
                                });
                            }
                        }
                    }
                }
                self.release_if_dead(*dst);
            }
            Inst::WriteVar { var, src } => {
                // Materialize pinned readers of the old value first. When
                // none are needed, the defining instruction of `src` can
                // often be retargeted to write the home register directly.
                let retarget_ok = !self.has_needed_pinned(*var);
                self.unpin_var(*var);
                self.clear_tags_for_var(*var);
                match self.homes.home(self.func_index, *var) {
                    Home::IntReg(home) => {
                        if let Some(&Loc::Imm(value)) = self.locs.get(src) {
                            self.emit(Instr::MovI {
                                dst: home,
                                imm: value,
                            });
                        } else if retarget_ok && self.try_retarget_int(*src, home) {
                            // Defining instruction now writes the home.
                        } else {
                            let s = self.use_int(*src, &[]);
                            self.emit(Instr::IntOp {
                                op: IntOp::Add,
                                dst: home,
                                lhs: s,
                                rhs: Operand::Imm(0),
                            });
                        }
                    }
                    Home::FpReg(home) => {
                        if retarget_ok && self.try_retarget_fp(*src, home) {
                            // Defining instruction now writes the home.
                        } else {
                            let s = self.use_fp(*src, &[]);
                            self.emit(Instr::FMov { dst: home, src: s });
                        }
                    }
                    Home::GlobalMem(addr) => {
                        let sym = self.var_sym(*var);
                        let alias = MemAlias::global(sym).with_offset(0);
                        match self.func.vreg_ty(*src) {
                            Ty::Int => {
                                let s = self.use_int(*src, &[]);
                                self.emit(Instr::Store {
                                    src: s,
                                    base: IntReg::GP,
                                    offset: addr as i64,
                                    alias,
                                });
                            }
                            Ty::Float => {
                                let s = self.use_fp(*src, &[]);
                                self.emit(Instr::StoreF {
                                    src: s,
                                    base: IntReg::GP,
                                    offset: addr as i64,
                                    alias,
                                });
                            }
                        }
                    }
                    Home::Frame(slot) => {
                        let alias = self.slot_alias(slot);
                        match self.func.vreg_ty(*src) {
                            Ty::Int => {
                                let s = self.use_int(*src, &[]);
                                self.emit(Instr::Store {
                                    src: s,
                                    base: IntReg::SP,
                                    offset: slot as i64,
                                    alias,
                                });
                            }
                            Ty::Float => {
                                let s = self.use_fp(*src, &[]);
                                self.emit(Instr::StoreF {
                                    src: s,
                                    base: IntReg::SP,
                                    offset: slot as i64,
                                    alias,
                                });
                            }
                        }
                    }
                }
                self.release_if_dead(*src);
            }
            Inst::ReadElem {
                dst,
                arr,
                index,
                origin,
            } => {
                let alias = self.elem_alias(*arr, *index, origin.as_ref());
                let mut base = self.arr_base(*arr);
                let idx = if let Some(k) = self.const_of(*index) {
                    // Wrapping: a huge constant index must fold into the
                    // same (bogus) address the add instruction would have
                    // computed, for the executor's bounds check to reject
                    // — not overflow at compile time.
                    base = base.wrapping_add(k);
                    IntReg::GP
                } else {
                    self.use_int(*index, &[])
                };
                self.release_if_dead(*index);
                match self.func.vreg_ty(*dst) {
                    Ty::Int => {
                        let d = self.def_int(*dst, &[idx]);
                        self.emit(Instr::Load {
                            dst: d,
                            base: idx,
                            offset: base,
                            alias,
                        });
                    }
                    Ty::Float => {
                        let d = self.def_fp(*dst, &[]);
                        self.emit(Instr::LoadF {
                            dst: d,
                            base: idx,
                            offset: base,
                            alias,
                        });
                    }
                }
                self.release_if_dead(*dst);
            }
            Inst::WriteElem {
                arr,
                index,
                src,
                origin,
            } => {
                let alias = self.elem_alias(*arr, *index, origin.as_ref());
                let mut base = self.arr_base(*arr);
                let idx = if let Some(k) = self.const_of(*index) {
                    // Wrapping, as for `ReadElem` above.
                    base = base.wrapping_add(k);
                    IntReg::GP
                } else {
                    self.use_int(*index, &[])
                };
                match self.func.vreg_ty(*src) {
                    Ty::Int => {
                        let s = self.use_int(*src, &[idx]);
                        self.emit(Instr::Store {
                            src: s,
                            base: idx,
                            offset: base,
                            alias,
                        });
                    }
                    Ty::Float => {
                        let s = self.use_fp(*src, &[]);
                        self.emit(Instr::StoreF {
                            src: s,
                            base: idx,
                            offset: base,
                            alias,
                        });
                    }
                }
                self.release_if_dead(*index);
                self.release_if_dead(*src);
            }
            Inst::Call { dst, callee, args } => {
                // Marshal arguments.
                let mut int_seen = 0_u8;
                let mut fp_seen = 0_u8;
                for &arg in args {
                    match self.func.vreg_ty(arg) {
                        Ty::Int => {
                            int_seen += 1;
                            assert!(
                                (int_seen as usize) <= supersym_regalloc::NUM_ARG_REGS,
                                "too many integer arguments"
                            );
                            let dst = IntReg::new_unchecked(int_seen);
                            if let Some(&Loc::Imm(value)) = self.locs.get(&arg) {
                                self.emit(Instr::MovI { dst, imm: value });
                            } else {
                                let s = self.use_int(arg, &[]);
                                self.emit(Instr::IntOp {
                                    op: IntOp::Add,
                                    dst,
                                    lhs: s,
                                    rhs: Operand::Imm(0),
                                });
                            }
                        }
                        Ty::Float => {
                            fp_seen += 1;
                            assert!(
                                (fp_seen as usize) <= supersym_regalloc::NUM_ARG_REGS,
                                "too many FP arguments"
                            );
                            let s = self.use_fp(arg, &[]);
                            self.emit(Instr::FMov {
                                dst: FpReg::new_unchecked(fp_seen),
                                src: s,
                            });
                        }
                    }
                    self.release_if_dead(arg);
                }
                // The callee may write any global: pinned globals and their
                // alias tags are invalid afterwards.
                let pinned_globals: Vec<VReg> = self
                    .locs
                    .iter()
                    .filter_map(|(&v, &loc)| match loc {
                        Loc::PinnedInt(_, VarRef::Global(_))
                        | Loc::PinnedFp(_, VarRef::Global(_)) => Some(v),
                        _ => None,
                    })
                    .collect();
                for v in pinned_globals {
                    // Either the vreg is dead, or split_live_across_calls
                    // arranged a re-read that redefines it after this call;
                    // in both cases the stale pinned location must go.
                    self.locs.remove(&v);
                }
                for index in 0..self.module.globals.len() {
                    if matches!(self.module.globals[index].kind, GlobalKind::Scalar { .. }) {
                        let var = VarRef::Global(ir::GlobalId(index as u32));
                        self.clear_tags_for_var(var);
                    }
                }
                self.emit(Instr::Call {
                    target: supersym_isa::FuncId::new(*callee),
                });
                if let Some(dst) = dst {
                    match self.func.vreg_ty(*dst) {
                        Ty::Int => {
                            let d = self.def_int(*dst, &[]);
                            self.emit(Instr::IntOp {
                                op: IntOp::Add,
                                dst: d,
                                lhs: IntReg::new_unchecked(1),
                                rhs: Operand::Imm(0),
                            });
                        }
                        Ty::Float => {
                            let d = self.def_fp(*dst, &[]);
                            self.emit(Instr::FMov {
                                dst: d,
                                src: FpReg::new_unchecked(1),
                            });
                        }
                    }
                    self.release_if_dead(*dst);
                }
            }
        }
    }

    /// Whether any vreg pinned to `var`'s home register still has uses at
    /// or after the current position.
    fn has_needed_pinned(&self, var: VarRef) -> bool {
        self.locs.iter().any(|(&v, &loc)| match loc {
            Loc::PinnedInt(_, pvar) | Loc::PinnedFp(_, pvar) if pvar == var => self
                .use_positions
                .get(&v)
                .is_some_and(|uses| uses.iter().any(|&p| p >= self.cur_pos)),
            _ => false,
        })
    }

    /// If the most recently emitted instruction defines `src`'s register
    /// and `src` dies here, rewrites that instruction to write `home`
    /// directly (eliding the register move). Returns success.
    fn try_retarget_int(&mut self, src: VReg, home: IntReg) -> bool {
        let Some(&Loc::TempInt(reg)) = self.locs.get(&src) else {
            return false;
        };
        if !self.is_dead_after(src, self.cur_pos) {
            return false;
        }
        let Some(last) = self.out.last_mut() else {
            return false;
        };
        if last.def() != Some(supersym_isa::Reg::Int(reg)) {
            return false;
        }
        match last {
            Instr::IntOp { dst, .. }
            | Instr::MovI { dst, .. }
            | Instr::FpCmp { dst, .. }
            | Instr::FToI { dst, .. }
            | Instr::Load { dst, .. } => *dst = home,
            _ => return false,
        }
        self.release_loc(src);
        true
    }

    /// FP counterpart of [`Self::try_retarget_int`].
    fn try_retarget_fp(&mut self, src: VReg, home: FpReg) -> bool {
        let Some(&Loc::TempFp(reg)) = self.locs.get(&src) else {
            return false;
        };
        if !self.is_dead_after(src, self.cur_pos) {
            return false;
        }
        let Some(last) = self.out.last_mut() else {
            return false;
        };
        if last.def() != Some(supersym_isa::Reg::Fp(reg)) {
            return false;
        }
        match last {
            Instr::FpOp { dst, .. }
            | Instr::MovF { dst, .. }
            | Instr::FMov { dst, .. }
            | Instr::IToF { dst, .. }
            | Instr::LoadF { dst, .. } => *dst = home,
            _ => return false,
        }
        self.release_loc(src);
        true
    }

    /// Materializes still-needed vregs pinned to `var`'s home register
    /// before the variable is overwritten.
    fn unpin_var(&mut self, var: VarRef) {
        let pinned: Vec<(VReg, Loc)> = self
            .locs
            .iter()
            .filter_map(|(&v, &loc)| match loc {
                Loc::PinnedInt(_, pvar) | Loc::PinnedFp(_, pvar) if pvar == var => Some((v, loc)),
                _ => None,
            })
            .collect();
        for (vreg, loc) in pinned {
            let needed = self
                .use_positions
                .get(&vreg)
                .is_some_and(|uses| uses.iter().any(|&p| p >= self.cur_pos));
            if !needed {
                self.locs.remove(&vreg);
                continue;
            }
            match loc {
                Loc::PinnedInt(home, _) => {
                    let r = self.alloc_int(&[home]);
                    self.emit(Instr::IntOp {
                        op: IntOp::Add,
                        dst: r,
                        lhs: home,
                        rhs: Operand::Imm(0),
                    });
                    self.locs.insert(vreg, Loc::TempInt(r));
                }
                Loc::PinnedFp(home, _) => {
                    let r = self.alloc_fp(&[home]);
                    self.emit(Instr::FMov { dst: r, src: home });
                    self.locs.insert(vreg, Loc::TempFp(r));
                }
                _ => unreachable!(),
            }
        }
    }

    /// Alias symbol for a memory-resident global scalar (locals in memory
    /// use frame-slot aliases instead).
    fn var_sym(&mut self, var: VarRef) -> u32 {
        match var {
            VarRef::Global(g) => g.0,
            VarRef::Local(_) => unreachable!("memory-resident locals use slot aliases"),
        }
    }

    fn lower_terminator(&mut self, block_index: usize, term: &Terminator) {
        let next = block_index + 1;
        match term {
            Terminator::Jump(target) => {
                if target.index() != next {
                    self.emit(Instr::Jmp {
                        target: Label::new(target.0),
                    });
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.use_int(*cond, &[]);
                self.release_if_dead(*cond);
                if else_bb.index() == next {
                    self.emit(Instr::Br {
                        cond: c,
                        expect: true,
                        target: Label::new(then_bb.0),
                    });
                } else if then_bb.index() == next {
                    self.emit(Instr::Br {
                        cond: c,
                        expect: false,
                        target: Label::new(else_bb.0),
                    });
                } else {
                    self.emit(Instr::Br {
                        cond: c,
                        expect: true,
                        target: Label::new(then_bb.0),
                    });
                    self.emit(Instr::Jmp {
                        target: Label::new(else_bb.0),
                    });
                }
            }
            Terminator::Return(value) => {
                if let Some(value) = value {
                    match self.func.vreg_ty(*value) {
                        Ty::Int => {
                            if let Some(&Loc::Imm(imm)) = self.locs.get(value) {
                                self.emit(Instr::MovI {
                                    dst: IntReg::new_unchecked(1),
                                    imm,
                                });
                            } else {
                                let s = self.use_int(*value, &[]);
                                self.emit(Instr::IntOp {
                                    op: IntOp::Add,
                                    dst: IntReg::new_unchecked(1),
                                    lhs: s,
                                    rhs: Operand::Imm(0),
                                });
                            }
                        }
                        Ty::Float => {
                            let s = self.use_fp(*value, &[]);
                            self.emit(Instr::FMov {
                                dst: FpReg::new_unchecked(1),
                                src: s,
                            });
                        }
                    }
                    self.release_if_dead(*value);
                }
                self.frame_patch.push(self.out.len());
                self.emit(Instr::IntOp {
                    op: IntOp::Add,
                    dst: IntReg::SP,
                    lhs: IntReg::SP,
                    rhs: Operand::Imm(0),
                });
                self.emit(Instr::Ret);
            }
        }
    }
}

fn int_op(op: ir::IntBinOp) -> IntOp {
    use ir::{CmpOp, IntBinOp};
    match op {
        IntBinOp::Add => IntOp::Add,
        IntBinOp::Sub => IntOp::Sub,
        IntBinOp::Mul => IntOp::Mul,
        IntBinOp::Div => IntOp::Div,
        IntBinOp::Rem => IntOp::Rem,
        IntBinOp::And => IntOp::And,
        IntBinOp::Or => IntOp::Or,
        IntBinOp::Xor => IntOp::Xor,
        IntBinOp::Shl => IntOp::Sll,
        IntBinOp::Shr => IntOp::Sra,
        IntBinOp::Cmp(CmpOp::Eq) => IntOp::CmpEq,
        IntBinOp::Cmp(CmpOp::Ne) => IntOp::CmpNe,
        IntBinOp::Cmp(CmpOp::Lt) => IntOp::CmpLt,
        IntBinOp::Cmp(CmpOp::Le) => IntOp::CmpLe,
        IntBinOp::Cmp(CmpOp::Gt) => IntOp::CmpGt,
        IntBinOp::Cmp(CmpOp::Ge) => IntOp::CmpGe,
    }
}

fn fp_op(op: ir::FloatBinOp) -> FpOp {
    match op {
        ir::FloatBinOp::Add => FpOp::FAdd,
        ir::FloatBinOp::Sub => FpOp::FSub,
        ir::FloatBinOp::Mul => FpOp::FMul,
        ir::FloatBinOp::Div => FpOp::FDiv,
    }
}

fn fp_cmp(op: ir::CmpOp) -> FpCmpOp {
    match op {
        ir::CmpOp::Eq => FpCmpOp::FEq,
        ir::CmpOp::Ne => FpCmpOp::FNe,
        ir::CmpOp::Lt => FpCmpOp::FLt,
        ir::CmpOp::Le => FpCmpOp::FLe,
        ir::CmpOp::Gt => FpCmpOp::FGt,
        ir::CmpOp::Ge => FpCmpOp::FGe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_machine::RegisterSplit;

    fn compile(src: &str, promote: bool) -> Program {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        let mut ir = supersym_ir::lower(&ast).unwrap();
        crate::split_live_across_calls(&mut ir);
        ir.validate().unwrap();
        let homes = supersym_regalloc::allocate(&ir, RegisterSplit::paper_default(), promote);
        let program = lower_program(&ir, &homes);
        program.validate().unwrap();
        program
    }

    #[test]
    fn lowers_arithmetic_program() {
        let program = compile("fn main() -> int { return 6 * 7; }", true);
        assert_eq!(program.functions().len(), 1);
        assert!(program.static_size() >= 4);
    }

    #[test]
    fn lowers_calls_and_params() {
        let program = compile(
            "fn add(int a, int b) -> int { return a + b; }
             fn main() -> int { return add(20, 22); }",
            true,
        );
        assert_eq!(program.functions().len(), 2);
        let main = program.function_by_name("main").unwrap().1;
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn promoted_global_init_in_entry() {
        let program = compile(
            "global var g = 42;
             fn main() -> int { g = g + 1; return g; }",
            true,
        );
        let main = program.function_by_name("main").unwrap().1;
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::MovI { imm: 42, .. })));
        // Promoted: no loads/stores for g.
        assert!(!main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Load { .. } | Instr::Store { .. })));
    }

    #[test]
    fn unpromoted_global_in_memory() {
        let program = compile(
            "global var g = 42;
             fn main() -> int { g = g + 1; return g; }",
            false,
        );
        let main = program.function_by_name("main").unwrap().1;
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Load { .. })));
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Store { .. })));
        // Initial value in the data image instead of a MovI 42.
        assert!(program.data().iter().any(|&(_, v)| v == 42));
    }

    #[test]
    fn array_access_uses_base_offset() {
        let program = compile(
            "global var pad; global arr a[8];
             fn main() -> int { a[3] = 9; return a[3]; }",
            false,
        );
        let main = program.function_by_name("main").unwrap().1;
        // Array sits after the scalar (base 1); the constant index 3 folds
        // into a GP-relative store at offset 4.
        assert!(main.instrs().iter().any(|i| matches!(
            i,
            Instr::Store {
                offset: 4,
                base: IntReg::GP,
                ..
            }
        )));
    }

    #[test]
    fn branch_fallthrough() {
        let program = compile(
            "fn main(int x) -> int { if (x > 0) { return 1; } return 2; }",
            true,
        );
        let main = program.function_by_name("main").unwrap().1;
        let jumps = main
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Jmp { .. }))
            .count();
        // Fallthrough elision keeps unconditional jumps rare.
        assert!(jumps <= 1, "found {jumps} jumps");
    }

    #[test]
    fn frame_patched_for_recursive_function() {
        let program = compile(
            "fn fib(int n) -> int {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }
             fn main() -> int { return fib(6); }",
            true,
        );
        let fib = program.function_by_name("fib").unwrap().1;
        // Prologue must reserve at least n's slot + call temporaries.
        let Instr::IntOp {
            op: IntOp::Sub,
            rhs: Operand::Imm(frame),
            ..
        } = &fib.instrs()[0]
        else {
            panic!("prologue missing: {:?}", fib.instrs()[0]);
        };
        assert!(*frame >= 1, "frame {frame}");
    }

    #[test]
    fn spilling_under_tiny_pool() {
        // Deep expression tree forces spills with a 4-temp pool.
        let split = RegisterSplit {
            int_temps: 4,
            int_globals: 0,
            fp_temps: 4,
            fp_globals: 0,
        };
        // Right-nested expression keeps many partial values live at once.
        let src = "global var a; global var b; global var c; global var d;
             global var e; global var f;
             fn main() -> int {
                 return a + b * (c + d * (e + f * (a + b * (c + d * (e + f)))));
             }";
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        let mut ir = supersym_ir::lower(&ast).unwrap();
        crate::split_live_across_calls(&mut ir);
        let homes = supersym_regalloc::allocate(&ir, split, false);
        let program = lower_program(&ir, &homes);
        program.validate().unwrap();
        let main = program.function_by_name("main").unwrap().1;
        // Spill traffic: stores to the frame (sp-based).
        let sp_stores = main
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Store { base, .. } if *base == IntReg::SP))
            .count();
        assert!(sp_stores > 0, "expected spill stores");
    }

    #[test]
    fn alias_tags_on_disambiguated_accesses() {
        let program = compile(
            "global arr a[100];
             fn main() {
                 for (i = 0; i < 99; i = i + 1) { a[i + 1] = a[i]; }
             }",
            true,
        );
        let main = program.function_by_name("main").unwrap().1;
        let load_alias = main.instrs().iter().find_map(|i| match i {
            Instr::Load { alias, .. } => Some(*alias),
            _ => None,
        });
        let store_alias = main.instrs().iter().find_map(|i| match i {
            Instr::Store { alias, base, .. } if *base != IntReg::SP => Some(*alias),
            _ => None,
        });
        let (Some(load_alias), Some(store_alias)) = (load_alias, store_alias) else {
            panic!("missing element accesses");
        };
        assert!(
            !load_alias.may_conflict(&store_alias),
            "a[i] vs a[i+1] must be provably disjoint: {load_alias:?} vs {store_alias:?}"
        );
    }

    #[test]
    fn fp_programs_lower() {
        let program = compile(
            "global farr x[16]; global fvar s;
             fn main() {
                 for (i = 0; i < 16; i = i + 1) { s = s + x[i] * 2.0; }
             }",
            true,
        );
        let main = program.function_by_name("main").unwrap().1;
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::FpOp { .. })));
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::LoadF { .. })));
    }
}

#[cfg(test)]
mod peephole_tests {
    use super::*;
    use supersym_machine::RegisterSplit;
    use supersym_sim::{ExecOptions, Executor};

    fn compile_and_run(src: &str) -> (Program, i64) {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        let mut ir = supersym_ir::lower(&ast).unwrap();
        supersym_opt::run_local(&mut ir);
        supersym_opt::dead_store_elimination(&mut ir);
        supersym_opt::run_local(&mut ir);
        crate::split_live_across_calls(&mut ir);
        let homes = supersym_regalloc::allocate(&ir, RegisterSplit::paper_default(), true);
        let program = lower_program(&ir, &homes);
        program.validate().unwrap();
        let mut exec = Executor::new(&program, ExecOptions::default()).unwrap();
        exec.run().unwrap();
        let result = exec.int_reg(IntReg::new_unchecked(1));
        (program, result)
    }

    #[test]
    fn retarget_elides_register_moves() {
        // `s = s + i` with both promoted: the add should write s's home
        // directly, with no `add home, tmp, #0` move.
        let (program, result) = compile_and_run(
            "global var s;
             fn main() -> int {
                 for (i = 0; i < 10; i = i + 1) { s = s + i; }
                 return s;
             }",
        );
        assert_eq!(result, 45);
        let main = program.function_by_name("main").unwrap().1;
        let moves = main
            .instrs()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::IntOp {
                        op: IntOp::Add,
                        rhs: Operand::Imm(0),
                        lhs,
                        dst,
                    } if !lhs.is_zero() && *dst != IntReg::SP && dst.index() > 8
                )
            })
            .count();
        assert_eq!(moves, 0, "unexpected register-register moves:\n{main}");
    }

    #[test]
    fn constants_fold_into_immediates() {
        let (program, result) = compile_and_run(
            "fn main() -> int {
                 var x = 5;
                 return x * 3 + 7;
             }",
        );
        assert_eq!(result, 22);
        let main = program.function_by_name("main").unwrap().1;
        // LVN folds the whole expression; at most one MovI materializes the
        // final constant into r1.
        let movis = main
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::MovI { .. }))
            .count();
        assert!(movis <= 1, "{main}");
    }

    #[test]
    fn constant_array_index_uses_gp() {
        let (program, result) = compile_and_run(
            "global arr a[4];
             fn main() -> int { a[2] = 9; return a[2]; }",
        );
        assert_eq!(result, 9);
        let main = program.function_by_name("main").unwrap().1;
        assert!(main.instrs().iter().any(|i| matches!(
            i,
            Instr::Store {
                base: IntReg::GP,
                offset: 2,
                ..
            }
        )));
    }

    #[test]
    fn fp_retarget_into_home() {
        let (program, result) = compile_and_run(
            "global fvar acc;
             fn main() -> int {
                 for (i = 0; i < 8; i = i + 1) { acc = acc + 1.5; }
                 return ftoi(acc);
             }",
        );
        assert_eq!(result, 12);
        let main = program.function_by_name("main").unwrap().1;
        let fmovs = main
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::FMov { .. }))
            .count();
        assert_eq!(
            fmovs, 0,
            "FP accumulator should be updated in place:\n{main}"
        );
    }

    #[test]
    fn immediate_argument_and_return() {
        let (program, result) = compile_and_run(
            "fn id(int x) -> int { return x; }
             fn main() -> int { return id(41) + 1; }",
        );
        assert_eq!(result, 42);
        let main = program.function_by_name("main").unwrap().1;
        // The literal argument lands in r1 via MovI, not via a temp + move.
        assert!(main
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::MovI { imm: 41, dst } if dst.index() == 1)));
    }
}
