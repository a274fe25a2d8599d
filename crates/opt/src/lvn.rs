//! Local value numbering: constant folding, algebraic simplification,
//! common-subexpression elimination, copy propagation and store-to-load
//! forwarding — all within single basic blocks (the paper's "intra-block
//! optimizations").
//!
//! Algebraic simplification is *data-driven*: instead of hard-coded
//! identities, the pass consults the machine-verified rule table from
//! `supersym-rules` (every rule proven by a sound certifier before it
//! ships). The only residual built-in is `x / 1 == x` — division sits
//! outside the synthesis grammar, so its identity keeps a hand-written
//! (and separately tested) special case here.

use supersym_ir::{CmpOp, FloatBinOp, GlobalId, Inst, IntBinOp, Module, Terminator, VReg, VarRef};
use supersym_rng::HashMap;
use supersym_rules::{default_table, Rewrite, RuleTable, SimplifyCtx};

/// A compile-time constant (floats compared by bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Const {
    Int(i64),
    Float(u64),
}

/// CSE keys over value numbers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(Const),
    IntBin(IntBinOp, usize, usize),
    FloatBin(FloatBinOp, usize, usize),
    FloatCmp(CmpOp, usize, usize),
    Cast(bool, usize), // true = to float
}

#[derive(Default)]
struct BlockState {
    /// vreg -> value number.
    vn: HashMap<VReg, usize>,
    /// value number -> known constant.
    consts: HashMap<usize, Const>,
    /// value number -> a vreg holding it, still live in this block.
    repr: HashMap<usize, VReg>,
    /// expression -> value number.
    exprs: HashMap<Key, usize>,
    /// variable -> value number of its current contents.
    var_val: HashMap<VarRef, usize>,
    /// (array, index-vn) -> value number of the element.
    elem_val: HashMap<(GlobalId, usize), usize>,
    /// vreg replacement map (old -> representative).
    replace: HashMap<VReg, VReg>,
    /// value number -> the integer expression it names (reverse of
    /// `exprs`, integer ops only): what the rule matcher walks to match
    /// nested patterns.
    int_expr: HashMap<usize, (IntBinOp, usize, usize)>,
    next_vn: usize,
}

impl SimplifyCtx for BlockState {
    fn const_of(&self, vn: usize) -> Option<i64> {
        match self.consts.get(&vn) {
            Some(&Const::Int(v)) => Some(v),
            _ => None,
        }
    }

    fn expr_of(&self, vn: usize) -> Option<(IntBinOp, usize, usize)> {
        self.int_expr.get(&vn).copied()
    }
}

impl BlockState {
    fn fresh_vn(&mut self) -> usize {
        self.next_vn += 1;
        self.next_vn - 1
    }

    fn vn_of(&mut self, vreg: VReg) -> usize {
        if let Some(&vn) = self.vn.get(&vreg) {
            vn
        } else {
            let vn = self.fresh_vn();
            self.vn.insert(vreg, vn);
            self.repr.entry(vn).or_insert(vreg);
            vn
        }
    }

    fn resolve(&self, vreg: VReg) -> VReg {
        *self.replace.get(&vreg).unwrap_or(&vreg)
    }

    /// Records that `dst` holds value `vn`; if a representative already
    /// exists the instruction is redundant and `dst` is aliased to it.
    /// Returns `true` when the defining instruction should be kept.
    fn define(&mut self, dst: VReg, vn: usize) -> bool {
        if let Some(&rep) = self.repr.get(&vn) {
            self.replace.insert(dst, rep);
            self.vn.insert(dst, vn);
            false
        } else {
            self.repr.insert(vn, dst);
            self.vn.insert(dst, vn);
            true
        }
    }
}

/// Runs local value numbering over every block of every function, with
/// the default (checked-in, machine-verified) rule table.
/// Returns `true` if anything changed.
pub fn local_value_numbering(module: &mut Module) -> bool {
    local_value_numbering_with(module, default_table())
}

/// [`local_value_numbering`] with an explicit rule table — pass
/// [`RuleTable::empty`](supersym_rules::RuleTable::empty) to measure the
/// optimizer without algebraic rules.
pub fn local_value_numbering_with(module: &mut Module, table: &RuleTable) -> bool {
    let mut changed = false;
    for func in &mut module.funcs {
        for block in &mut func.blocks {
            let mut state = BlockState::default();
            let original_len = block.insts.len();
            let mut kept: Vec<Inst> = Vec::with_capacity(original_len);
            for inst in block.insts.drain(..) {
                if let Some(new_inst) = process(inst, &mut state, table) {
                    kept.push(new_inst);
                }
            }
            // Rewrite the terminator's operand.
            match &mut block.term {
                Terminator::Branch { cond, .. } => {
                    let resolved = state.resolve(*cond);
                    if resolved != *cond {
                        *cond = resolved;
                    }
                    // Branch folding on constant conditions.
                    if let Some(&vn) = state.vn.get(cond) {
                        if let Some(Const::Int(value)) = state.consts.get(&vn) {
                            let Terminator::Branch {
                                then_bb, else_bb, ..
                            } = block.term
                            else {
                                unreachable!()
                            };
                            block.term =
                                Terminator::Jump(if *value != 0 { then_bb } else { else_bb });
                            changed = true;
                        }
                    }
                }
                Terminator::Return(Some(vreg)) => {
                    *vreg = state.resolve(*vreg);
                }
                _ => {}
            }
            if kept.len() != original_len || !state.replace.is_empty() {
                changed = true;
            }
            block.insts = kept;
        }
    }
    changed
}

fn process(inst: Inst, state: &mut BlockState, table: &RuleTable) -> Option<Inst> {
    match inst {
        Inst::ConstInt { dst, value } => {
            let key = Key::Const(Const::Int(value));
            let vn = lookup_or_insert(state, key, Some(Const::Int(value)));
            state
                .define(dst, vn)
                .then_some(Inst::ConstInt { dst, value })
        }
        Inst::ConstFloat { dst, value } => {
            let c = Const::Float(value.to_bits());
            let key = Key::Const(c);
            let vn = lookup_or_insert(state, key, Some(c));
            state
                .define(dst, vn)
                .then_some(Inst::ConstFloat { dst, value })
        }
        Inst::IntBin { op, dst, lhs, rhs } => {
            let lhs = state.resolve(lhs);
            let rhs = state.resolve(rhs);
            let (mut a, mut b) = (state.vn_of(lhs), state.vn_of(rhs));
            let (mut lhs, mut rhs) = (lhs, rhs);
            if op.is_commutative() && b < a {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut lhs, &mut rhs);
            }
            // Constant folding.
            if let (Some(&Const::Int(x)), Some(&Const::Int(y))) =
                (state.consts.get(&a), state.consts.get(&b))
            {
                let value = eval_int(op, x, y);
                return process(Inst::ConstInt { dst, value }, state, table);
            }
            // Algebraic simplifications.
            if let Some(simplified) = simplify_int(table, op, a, b, state) {
                return match simplified {
                    Simplified::Vn(vn) => {
                        if let Some(&rep) = state.repr.get(&vn) {
                            state.replace.insert(dst, rep);
                            state.vn.insert(dst, vn);
                            None
                        } else {
                            // No representative vreg: keep the instruction.
                            let key = Key::IntBin(op, a, b);
                            let vn = lookup_or_insert(state, key, None);
                            state
                                .define(dst, vn)
                                .then_some(Inst::IntBin { op, dst, lhs, rhs })
                        }
                    }
                    Simplified::Const(value) => {
                        process(Inst::ConstInt { dst, value }, state, table)
                    }
                };
            }
            let key = Key::IntBin(op, a, b);
            let vn = lookup_or_insert(state, key, None);
            state
                .define(dst, vn)
                .then_some(Inst::IntBin { op, dst, lhs, rhs })
        }
        Inst::FloatBin { op, dst, lhs, rhs } => {
            let lhs = state.resolve(lhs);
            let rhs = state.resolve(rhs);
            let (mut a, mut b) = (state.vn_of(lhs), state.vn_of(rhs));
            let (mut lhs, mut rhs) = (lhs, rhs);
            if op.is_commutative() && b < a {
                std::mem::swap(&mut a, &mut b);
                std::mem::swap(&mut lhs, &mut rhs);
            }
            if let (Some(&Const::Float(x)), Some(&Const::Float(y))) =
                (state.consts.get(&a), state.consts.get(&b))
            {
                let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                let value = match op {
                    FloatBinOp::Add => x + y,
                    FloatBinOp::Sub => x - y,
                    FloatBinOp::Mul => x * y,
                    FloatBinOp::Div => x / y,
                };
                return process(Inst::ConstFloat { dst, value }, state, table);
            }
            let key = Key::FloatBin(op, a, b);
            let vn = lookup_or_insert(state, key, None);
            state
                .define(dst, vn)
                .then_some(Inst::FloatBin { op, dst, lhs, rhs })
        }
        Inst::FloatCmp { op, dst, lhs, rhs } => {
            let lhs = state.resolve(lhs);
            let rhs = state.resolve(rhs);
            let (a, b) = (state.vn_of(lhs), state.vn_of(rhs));
            if let (Some(&Const::Float(x)), Some(&Const::Float(y))) =
                (state.consts.get(&a), state.consts.get(&b))
            {
                let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                let value = i64::from(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                });
                return process(Inst::ConstInt { dst, value }, state, table);
            }
            let key = Key::FloatCmp(op, a, b);
            let vn = lookup_or_insert(state, key, None);
            state
                .define(dst, vn)
                .then_some(Inst::FloatCmp { op, dst, lhs, rhs })
        }
        Inst::Cast { dst, src, to } => {
            let src = state.resolve(src);
            let vn_src = state.vn_of(src);
            let to_float = to == supersym_lang::ast::Ty::Float;
            if let Some(&c) = state.consts.get(&vn_src) {
                return match (c, to_float) {
                    (Const::Int(v), true) => process(
                        Inst::ConstFloat {
                            dst,
                            value: v as f64,
                        },
                        state,
                        table,
                    ),
                    (Const::Float(bits), false) => process(
                        Inst::ConstInt {
                            dst,
                            value: f64::from_bits(bits) as i64,
                        },
                        state,
                        table,
                    ),
                    _ => {
                        let key = Key::Cast(to_float, vn_src);
                        let vn = lookup_or_insert(state, key, None);
                        state.define(dst, vn).then_some(Inst::Cast { dst, src, to })
                    }
                };
            }
            let key = Key::Cast(to_float, vn_src);
            let vn = lookup_or_insert(state, key, None);
            state.define(dst, vn).then_some(Inst::Cast { dst, src, to })
        }
        Inst::ReadVar { dst, var } => {
            if let Some(&vn) = state.var_val.get(&var) {
                if state.repr.contains_key(&vn) {
                    let kept = state.define(dst, vn);
                    debug_assert!(!kept, "representative exists");
                    return None;
                }
            }
            let vn = state.fresh_vn();
            state.var_val.insert(var, vn);
            state.define(dst, vn);
            Some(Inst::ReadVar { dst, var })
        }
        Inst::WriteVar { var, src } => {
            let src = state.resolve(src);
            let vn = state.vn_of(src);
            if state.var_val.get(&var) == Some(&vn) {
                // The variable already holds this value: dead store.
                return None;
            }
            state.var_val.insert(var, vn);
            Some(Inst::WriteVar { var, src })
        }
        Inst::ReadElem {
            dst,
            arr,
            index,
            origin,
        } => {
            let index = state.resolve(index);
            let index_vn = state.vn_of(index);
            if let Some(&vn) = state.elem_val.get(&(arr, index_vn)) {
                if state.repr.contains_key(&vn) {
                    state.define(dst, vn);
                    return None;
                }
            }
            let vn = state.fresh_vn();
            state.elem_val.insert((arr, index_vn), vn);
            state.define(dst, vn);
            Some(Inst::ReadElem {
                dst,
                arr,
                index,
                origin,
            })
        }
        Inst::WriteElem {
            arr,
            index,
            src,
            origin,
        } => {
            let index = state.resolve(index);
            let src = state.resolve(src);
            let index_vn = state.vn_of(index);
            let src_vn = state.vn_of(src);
            // A store to arr[i] invalidates everything known about arr.
            state.elem_val.retain(|&(a, _), _| a != arr);
            state.elem_val.insert((arr, index_vn), src_vn);
            Some(Inst::WriteElem {
                arr,
                index,
                src,
                origin,
            })
        }
        Inst::Call { dst, callee, args } => {
            let args = args.into_iter().map(|a| state.resolve(a)).collect();
            // The callee may read/write any global or array element.
            state.elem_val.clear();
            state
                .var_val
                .retain(|var, _| matches!(var, VarRef::Local(_)));
            if let Some(dst) = dst {
                let vn = state.fresh_vn();
                state.define(dst, vn);
            }
            Some(Inst::Call { dst, callee, args })
        }
    }
}

fn lookup_or_insert(state: &mut BlockState, key: Key, constant: Option<Const>) -> usize {
    if let Some(&vn) = state.exprs.get(&key) {
        vn
    } else {
        let vn = state.fresh_vn();
        if let Key::IntBin(op, a, b) = key {
            state.int_expr.insert(vn, (op, a, b));
        }
        state.exprs.insert(key, vn);
        if let Some(c) = constant {
            state.consts.insert(vn, c);
        }
        vn
    }
}

enum Simplified {
    Vn(usize),
    Const(i64),
}

/// Algebraic identities on integer operations, driven by the verified
/// rule table: patterns are matched over value numbers (`a`/`b`), with
/// nested subpatterns resolved through the block's expression map. The
/// sole hand-written residual is `x / 1 == x`: division is outside the
/// synthesis grammar (no sound certifier covers it), so its identity
/// cannot ship as a table rule.
fn simplify_int(
    table: &RuleTable,
    op: IntBinOp,
    a: usize,
    b: usize,
    state: &BlockState,
) -> Option<Simplified> {
    if let Some(rewrite) = supersym_rules::simplify(table, op, a, b, state) {
        return Some(match rewrite {
            Rewrite::Operand(vn) => Simplified::Vn(vn),
            Rewrite::Const(value) => Simplified::Const(value),
        });
    }
    if op == IntBinOp::Div && state.const_of(b) == Some(1) {
        return Some(Simplified::Vn(a));
    }
    None
}

/// Integer evaluation matching the simulator's semantics exactly.
fn eval_int(op: IntBinOp, a: i64, b: i64) -> i64 {
    match op {
        IntBinOp::Add => a.wrapping_add(b),
        IntBinOp::Sub => a.wrapping_sub(b),
        IntBinOp::Mul => a.wrapping_mul(b),
        IntBinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IntBinOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        IntBinOp::And => a & b,
        IntBinOp::Or => a | b,
        IntBinOp::Xor => a ^ b,
        IntBinOp::Shl => a.wrapping_shl(b as u32 & 63),
        IntBinOp::Shr => a.wrapping_shr(b as u32 & 63),
        IntBinOp::Cmp(cmp) => i64::from(match cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }),
    }
}

/// Strength reduction: rewrites `x * 2^k` (constant operand) into
/// `x << k`, inserting the shift-amount constant. A separate pass so the
/// value-numbering state stays simple; run it between LVN rounds.
/// Returns `true` if anything changed.
pub fn strength_reduce(module: &mut Module) -> bool {
    let mut changed = false;
    for func in &mut module.funcs {
        for block_index in 0..func.blocks.len() {
            // Constant values of vregs defined in this block.
            let mut consts: HashMap<VReg, i64> = HashMap::default();
            let mut rewrites: Vec<(usize, VReg, VReg)> = Vec::new(); // (pos, lhs, mul-dst)
            for (pos, inst) in func.blocks[block_index].insts.iter().enumerate() {
                // Redefinitions (e.g. the re-reads split_live_across_calls
                // inserts) invalidate any recorded constant.
                if let Some(dst) = inst.dst() {
                    if !matches!(inst, Inst::ConstInt { .. }) {
                        consts.remove(&dst);
                    }
                }
                match inst {
                    Inst::ConstInt { dst, value } => {
                        consts.insert(*dst, *value);
                    }
                    Inst::IntBin {
                        op: IntBinOp::Mul,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        // Commuted constant operands were canonicalized to
                        // the right by LVN; check both sides anyway.
                        let candidate = match (consts.get(lhs), consts.get(rhs)) {
                            (_, Some(&c)) if c > 1 && c & (c - 1) == 0 => Some((*lhs, c)),
                            (Some(&c), _) if c > 1 && c & (c - 1) == 0 => Some((*rhs, c)),
                            _ => None,
                        };
                        if let Some((operand, _)) = candidate {
                            rewrites.push((pos, operand, *dst));
                        }
                    }
                    _ => {}
                }
            }
            // Apply in reverse so positions stay valid.
            for (pos, operand, dst) in rewrites.into_iter().rev() {
                let constant = {
                    let Inst::IntBin { lhs, rhs, .. } = &func.blocks[block_index].insts[pos] else {
                        unreachable!("recorded position holds the multiply")
                    };
                    let other = if *lhs == operand { *rhs } else { *lhs };
                    consts[&other]
                };
                let amount = func.new_vreg(supersym_lang::ast::Ty::Int);
                let shift = Inst::IntBin {
                    op: IntBinOp::Shl,
                    dst,
                    lhs: operand,
                    rhs: amount,
                };
                let block = &mut func.blocks[block_index];
                block.insts[pos] = shift;
                block.insts.insert(
                    pos,
                    Inst::ConstInt {
                        dst: amount,
                        value: constant.trailing_zeros() as i64,
                    },
                );
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepare(src: &str) -> Module {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        supersym_ir::lower(&ast).unwrap()
    }

    fn optimize(src: &str) -> Module {
        let mut module = prepare(src);
        crate::run_local(&mut module);
        module.validate().unwrap();
        module
    }

    fn count_insts(module: &Module) -> usize {
        module.funcs.iter().map(|f| f.inst_count()).sum()
    }

    #[test]
    fn folds_constants() {
        let module = optimize("fn main() -> int { return 2 + 3 * 4; }");
        // A single constant remains.
        assert_eq!(count_insts(&module), 1);
        assert!(module.funcs[0].blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ConstInt { value: 14, .. })));
    }

    #[test]
    fn cse_within_block() {
        let before = prepare(
            "global var g;
             fn main() -> int { return (g * 3 + 1) + (g * 3 + 1); }",
        );
        let after = optimize(
            "global var g;
             fn main() -> int { return (g * 3 + 1) + (g * 3 + 1); }",
        );
        assert!(count_insts(&after) < before.funcs[0].inst_count());
        // g*3+1 computed once: one read, one mul, two consts (3, 1), one
        // add, plus the final add = 6.
        assert_eq!(count_insts(&after), 6);
    }

    #[test]
    fn store_to_load_forwarding() {
        let module = optimize("fn main() -> int { var x = 7; return x; }");
        // x = 7; return 7 — the ReadVar is forwarded.
        let f = &module.funcs[0];
        assert!(!f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ReadVar { .. })));
    }

    #[test]
    fn array_load_forwarding() {
        let module = optimize(
            "global arr a[4];
             fn main() -> int { a[2] = 5; return a[2]; }",
        );
        let f = &module.funcs[0];
        assert!(!f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ReadElem { .. })));
    }

    #[test]
    fn array_store_invalidates_other_indices() {
        let module = optimize(
            "global arr a[4];
             fn main(int i, int j) -> int { var x = a[i]; a[j] = 0; return x + a[i]; }",
        );
        let reads = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::ReadElem { .. }))
            .count();
        assert_eq!(reads, 2, "a[i] must be re-read after a[j] store");
    }

    #[test]
    fn calls_invalidate_globals_not_locals() {
        let module = optimize(
            "global var g;
             fn f() { g = g + 1; }
             fn main() -> int { var x = 3; var a = g; f(); return x + a + g; }",
        );
        let main = module.funcs.iter().find(|f| f.name == "main").unwrap();
        let global_reads = main.blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::ReadVar {
                        var: VarRef::Global(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(global_reads, 2, "g re-read after the call");
        let local_reads = main.blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::ReadVar {
                        var: VarRef::Local(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(local_reads, 0, "locals forwarded across the call");
    }

    #[test]
    fn algebraic_identities() {
        let module = optimize("fn main(int x) -> int { return (x + 0) * 1 + (x - x) + (x ^ x); }");
        // Everything folds to x: read + maybe nothing else... final add of
        // zero folds too. Expect just the parameter read.
        assert_eq!(count_insts(&module), 1);
    }

    #[test]
    fn nested_rule_simplification() {
        // `(x + y) - y => x` is a depth-2 synthesized rule: the matcher
        // walks the value-numbered expression map to match the inner add.
        let module = optimize("fn main(int x, int y) -> int { return (x + y) - y; }");
        assert_eq!(count_insts(&module), 1, "collapses to the read of x");
    }

    #[test]
    fn empty_table_disables_algebraic_rules() {
        let mut module = prepare("fn main(int x) -> int { return x + 0; }");
        local_value_numbering_with(&mut module, &RuleTable::empty());
        crate::dead_code_elimination(&mut module);
        let adds = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::IntBin { .. }))
            .count();
        assert_eq!(adds, 1, "without rules the add survives");
    }

    #[test]
    fn division_by_one_residual_identity() {
        // Div is outside the rule grammar; its identity is the one
        // remaining hard-coded simplification.
        let module = optimize("fn main(int x) -> int { return x / 1; }");
        assert_eq!(count_insts(&module), 1);
    }

    #[test]
    fn branch_folding() {
        let module = optimize("fn main() -> int { if (1) { return 5; } return 6; }");
        assert!(matches!(
            module.funcs[0].blocks[0].term,
            Terminator::Jump(_)
        ));
    }

    #[test]
    fn redundant_writevar_removed() {
        let module = optimize("fn main() -> int { var x = 4; x = 4; x = 4; return x; }");
        let writes = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::WriteVar { .. }))
            .count();
        assert_eq!(writes, 1);
    }

    #[test]
    fn eval_matches_simulator_semantics() {
        assert_eq!(eval_int(IntBinOp::Div, 5, 0), 0);
        assert_eq!(eval_int(IntBinOp::Rem, 5, 0), 5);
        assert_eq!(eval_int(IntBinOp::Shl, 1, 64), 1);
        assert_eq!(eval_int(IntBinOp::Cmp(CmpOp::Lt), -1, 1), 1);
    }

    #[test]
    fn strength_reduction_mul_to_shift() {
        let module = optimize(
            "global var g;
             fn main() -> int { return g * 8 + g * 3; }",
        );
        let f = &module.funcs[0];
        let shifts = f.blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::IntBin {
                        op: IntBinOp::Shl,
                        ..
                    }
                )
            })
            .count();
        let muls = f.blocks[0]
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::IntBin {
                        op: IntBinOp::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(shifts, 1, "g * 8 becomes g << 3");
        assert_eq!(muls, 1, "g * 3 stays a multiply");
    }

    #[test]
    fn float_constant_folding() {
        let module = optimize("fn main() -> float { return 1.5 * 2.0 + 0.5; }");
        assert_eq!(count_insts(&module), 1);
        assert!(module.funcs[0].blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ConstFloat { value, .. } if *value == 3.5)));
    }
}
