//! Value-range analysis of address arithmetic.
//!
//! Bounds every integer variable by an [`Interval`] at each block
//! boundary, following the same transfer structure as constant propagation
//! but over an infinite-height lattice: the join widens once a per-solve
//! budget of changing joins is spent, so loop counters settle at
//! `[init, MAX]`-shaped ranges instead of climbing forever. Masking idioms
//! (`x & 15`) keep their precision regardless of widening because the
//! bound comes from the transfer function, not the join.
//!
//! The out-of-bounds lint uses these intervals: an array access whose
//! index range is provably disjoint from `[0, len)` will fault on every
//! execution that reaches it.

use crate::consts::eval_int;
use crate::engine::{Analysis, Direction};
use crate::lattice::{Interval, JoinSemiLattice};
use std::cell::Cell;
use std::collections::BTreeMap;
use supersym_ir::{BlockId, Function, Inst, IntBinOp, Module, VReg, VarRef};
use supersym_lang::ast::Ty;
use supersym_rng::HashMap;

/// The range state at a block boundary: interval bounds for integer
/// variables. `vars: None` means unreached; an absent variable is
/// unbounded ([`Interval::FULL`]), so the map stores only useful facts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeState {
    /// Bounded integer variables, `None` when unreached.
    pub vars: Option<BTreeMap<VarRef, Interval>>,
}

/// The value-range analysis (forward, widening join).
#[derive(Debug)]
pub struct Ranges<'m> {
    module: &'m Module,
    /// Remaining changing-joins before widening kicks in; refilled at
    /// [`Analysis::boundary`], i.e. once per solve.
    fuel: Cell<usize>,
}

impl<'m> Ranges<'m> {
    /// Creates the analysis for functions of `module`.
    #[must_use]
    pub fn new(module: &'m Module) -> Self {
        Ranges {
            module,
            fuel: Cell::new(0),
        }
    }

    fn var_ty(&self, func: &Function, var: VarRef) -> Ty {
        match var {
            VarRef::Global(g) => self.module.globals[g.0 as usize].ty,
            VarRef::Local(l) => func.vars[l.0 as usize].ty,
        }
    }

    /// Walks `block` from `vars_in`, calling `visit(index, inst, vregs)`
    /// before applying each instruction's effect (`vregs` holds the
    /// intervals of previously-defined vregs; absent means unbounded).
    pub fn walk_block(
        &self,
        func: &Function,
        block: BlockId,
        vars_in: &BTreeMap<VarRef, Interval>,
        mut visit: impl FnMut(usize, &Inst, &HashMap<VReg, Interval>),
    ) -> BTreeMap<VarRef, Interval> {
        let mut vars = vars_in.clone();
        let mut vregs: HashMap<VReg, Interval> = HashMap::default();
        for (index, inst) in func.blocks[block.index()].insts.iter().enumerate() {
            visit(index, inst, &vregs);
            match inst {
                Inst::ConstInt { dst, value } => {
                    vregs.insert(*dst, Interval::constant(*value));
                }
                Inst::IntBin { op, dst, lhs, rhs } => {
                    let a = vregs.get(lhs).copied().unwrap_or(Interval::FULL);
                    let b = vregs.get(rhs).copied().unwrap_or(Interval::FULL);
                    let out = eval_range(*op, &a, &b);
                    if out != Interval::FULL {
                        vregs.insert(*dst, out);
                    }
                }
                Inst::FloatCmp { dst, .. } => {
                    vregs.insert(*dst, Interval::new(0, 1));
                }
                Inst::ReadVar { dst, var } => {
                    if let Some(&iv) = vars.get(var) {
                        vregs.insert(*dst, iv);
                    }
                }
                Inst::WriteVar { var, src } => match vregs.get(src) {
                    Some(&iv) if self.var_ty(func, *var) == Ty::Int => {
                        vars.insert(*var, iv);
                    }
                    _ => {
                        vars.remove(var);
                    }
                },
                Inst::Call { .. } => {
                    vars.retain(|var, _| matches!(var, VarRef::Local(_)));
                }
                Inst::ConstFloat { .. }
                | Inst::FloatBin { .. }
                | Inst::Cast { .. }
                | Inst::ReadElem { .. }
                | Inst::WriteElem { .. } => {}
            }
        }
        vars
    }
}

/// Abstract interpretation of one integer operation over intervals,
/// conservative with respect to [`eval_int`]'s wrapping semantics.
#[must_use]
pub fn eval_range(op: IntBinOp, a: &Interval, b: &Interval) -> Interval {
    // Singleton inputs evaluate exactly — this keeps odd cases (negative
    // shifts, division) correct by construction.
    if let (Some(x), Some(y)) = (a.as_constant(), b.as_constant()) {
        return Interval::constant(eval_int(op, x, y));
    }
    match op {
        IntBinOp::Add => a.add(b),
        IntBinOp::Sub => a.sub(b),
        IntBinOp::Mul => a.mul(b),
        IntBinOp::And => a.and_mask(b),
        IntBinOp::Or | IntBinOp::Xor => a.or_xor(b),
        IntBinOp::Rem => match b.as_constant() {
            Some(divisor) if divisor > 0 => a.rem_const(divisor),
            _ => Interval::FULL,
        },
        IntBinOp::Div => match b.as_constant() {
            // Non-negative dividends divided by a positive constant shrink.
            Some(divisor) if divisor > 0 && a.lo >= 0 => {
                Interval::new(a.lo / divisor, a.hi / divisor)
            }
            _ => Interval::FULL,
        },
        IntBinOp::Cmp(_) => Interval::new(0, 1),
        IntBinOp::Shl | IntBinOp::Shr => Interval::FULL,
    }
}

impl Analysis for Ranges<'_> {
    type State = RangeState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, func: &Function) -> RangeState {
        // Refill the widening budget for this solve: a few rounds of
        // precise joins, then widen.
        self.fuel.set(8 * func.blocks.len().max(4));
        RangeState {
            vars: Some(BTreeMap::new()),
        }
    }

    fn bottom(&self, _func: &Function) -> RangeState {
        RangeState::default()
    }

    fn transfer(&self, func: &Function, block: BlockId, state: &mut RangeState) {
        let Some(vars) = state.vars.take() else {
            return;
        };
        state.vars = Some(self.walk_block(func, block, &vars, |_, _, _| {}));
    }

    fn join(&self, into: &mut RangeState, from: &RangeState) -> bool {
        let Some(from_vars) = &from.vars else {
            return false;
        };
        match &mut into.vars {
            None => {
                into.vars = Some(from_vars.clone());
                true
            }
            Some(into_vars) => {
                let widening = self.fuel.get() == 0;
                let mut changed = false;
                into_vars.retain(|var, iv| {
                    match from_vars.get(var) {
                        Some(other) => {
                            let previous = *iv;
                            if iv.join(other) {
                                changed = true;
                                if widening {
                                    *iv = iv.widen(&previous);
                                }
                            }
                            *iv != Interval::FULL
                        }
                        None => {
                            // Joined with unbounded: the fact dissolves.
                            changed = true;
                            false
                        }
                    }
                });
                if changed && !widening {
                    self.fuel.set(self.fuel.get() - 1);
                }
                changed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::solve;
    use supersym_ir::{Block, CmpOp, LocalId, Terminator, VarInfo};

    fn local(i: u32) -> VarRef {
        VarRef::Local(LocalId(i))
    }

    /// for (i = 0; i < 8; i = i + 1) { } — as blocks:
    /// bb0: i = 0; jump bb1. bb1: c = i < 8; branch bb2/bb3.
    /// bb2: i = i + 1; jump bb1. bb3: return.
    fn counting_loop() -> Function {
        Function {
            name: "f".into(),
            vars: vec![VarInfo {
                name: "i".into(),
                ty: Ty::Int,
                param_index: None,
            }],
            ret: None,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(0),
                            value: 0,
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(0),
                        },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block {
                    insts: vec![
                        Inst::ReadVar {
                            dst: VReg(1),
                            var: local(0),
                        },
                        Inst::ConstInt {
                            dst: VReg(2),
                            value: 8,
                        },
                        Inst::IntBin {
                            op: IntBinOp::Cmp(CmpOp::Lt),
                            dst: VReg(3),
                            lhs: VReg(1),
                            rhs: VReg(2),
                        },
                    ],
                    term: Terminator::Branch {
                        cond: VReg(3),
                        then_bb: BlockId(2),
                        else_bb: BlockId(3),
                    },
                },
                Block {
                    insts: vec![
                        Inst::ReadVar {
                            dst: VReg(4),
                            var: local(0),
                        },
                        Inst::ConstInt {
                            dst: VReg(5),
                            value: 1,
                        },
                        Inst::IntBin {
                            op: IntBinOp::Add,
                            dst: VReg(6),
                            lhs: VReg(4),
                            rhs: VReg(5),
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(6),
                        },
                    ],
                    term: Terminator::Jump(BlockId(1)),
                },
                Block::empty(Terminator::Return(None)),
            ],
            vreg_tys: vec![Ty::Int; 7],
        }
    }

    #[test]
    fn loop_counter_widens_to_termination() {
        let module = Module {
            globals: vec![],
            funcs: vec![counting_loop()],
            entry: 0,
        };
        let analysis = Ranges::new(&module);
        let solution = solve(&analysis, &module.funcs[0]);
        // Widening forces the climbing counter to a fixed point fast
        // instead of stepping the upper bound once per iteration. Under
        // wrapping semantics the widened `[0, MAX]` then loses its floor
        // through `i + 1` (the concrete successor set wraps), so the
        // header fact soundly dissolves to unbounded rather than keeping
        // a floor the machine does not guarantee.
        let header = solution.entry_of(BlockId(1)).vars.as_ref().unwrap();
        let i = header.get(&local(0)).copied().unwrap_or(Interval::FULL);
        assert_eq!(i, Interval::FULL, "no unsound floor: {i:?}");
        assert!(
            solution.iterations < 100,
            "terminated well under the engine budget: {}",
            solution.iterations
        );
        // Straight-line precision is unaffected: the init block still
        // proves i = 0 on its exit edge.
        let init = solution.exit_of(BlockId(0)).vars.as_ref().unwrap();
        assert_eq!(init[&local(0)], Interval::constant(0));
    }

    #[test]
    fn mask_bounds_index() {
        // x = read global (unbounded); i = x & 15.
        let module = Module {
            globals: vec![],
            funcs: vec![Function {
                name: "f".into(),
                vars: vec![
                    VarInfo {
                        name: "x".into(),
                        ty: Ty::Int,
                        param_index: Some(0),
                    },
                    VarInfo {
                        name: "i".into(),
                        ty: Ty::Int,
                        param_index: None,
                    },
                ],
                ret: None,
                blocks: vec![Block {
                    insts: vec![
                        Inst::ReadVar {
                            dst: VReg(0),
                            var: local(0),
                        },
                        Inst::ConstInt {
                            dst: VReg(1),
                            value: 15,
                        },
                        Inst::IntBin {
                            op: IntBinOp::And,
                            dst: VReg(2),
                            lhs: VReg(0),
                            rhs: VReg(1),
                        },
                        Inst::WriteVar {
                            var: local(1),
                            src: VReg(2),
                        },
                    ],
                    term: Terminator::Return(None),
                }],
                vreg_tys: vec![Ty::Int; 3],
            }],
            entry: 0,
        };
        let analysis = Ranges::new(&module);
        let solution = solve(&analysis, &module.funcs[0]);
        let exit = solution.exit_of(BlockId(0)).vars.as_ref().unwrap();
        assert_eq!(exit[&local(1)], Interval::new(0, 15));
    }

    #[test]
    fn exact_singleton_fold() {
        assert_eq!(
            eval_range(
                IntBinOp::Div,
                &Interval::constant(7),
                &Interval::constant(0)
            ),
            Interval::constant(0),
            "singletons use the simulator's exact semantics"
        );
    }
}
