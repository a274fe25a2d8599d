//! Conditional constant propagation.
//!
//! Tracks which integer variables hold compile-time constants at each block
//! boundary, *pruning provably-dead CFG edges as it goes*: when a block's
//! branch condition evaluates to a constant, facts only flow down the taken
//! edge, and blocks reachable solely through untaken edges never pollute
//! the solution (the "conditional" in Wegman–Zadeck's conditional constant
//! propagation, here over block-local vreg evaluation instead of SSA).
//!
//! Integer evaluation mirrors the simulator exactly ([`eval_int`] — the
//! wrapping semantics, division by zero yielding 0, remainder by zero
//! yielding the dividend), so a folded fact is precisely what the machine
//! would compute.

use crate::engine::{Analysis, Direction};
use std::collections::BTreeMap;
use supersym_ir::{BlockId, CmpOp, Function, Inst, IntBinOp, Module, Terminator, VReg, VarRef};
use supersym_lang::ast::Ty;
use supersym_rng::HashMap;

/// The constant-propagation state at a block boundary.
///
/// `vars: None` means the point is unreached (lattice bottom). In a
/// reached state, a variable mapped to `v` is *known equal to `v`*; an
/// absent variable is varying (lattice top), so the map only stores
/// positive facts and the pointwise join is key intersection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstState {
    /// Known-constant integer variables, `None` when unreached.
    pub vars: Option<BTreeMap<VarRef, i64>>,
    /// For exit states of blocks ending in a two-way branch: the branch
    /// verdict when the condition is provably constant. Always `None` on
    /// entry states.
    pub branch: Option<bool>,
}

/// The conditional constant propagation analysis (forward).
#[derive(Debug, Clone, Copy)]
pub struct ConstProp<'m> {
    module: &'m Module,
}

impl<'m> ConstProp<'m> {
    /// Creates the analysis for functions of `module`.
    #[must_use]
    pub fn new(module: &'m Module) -> Self {
        ConstProp { module }
    }

    fn var_ty(&self, func: &Function, var: VarRef) -> Ty {
        match var {
            VarRef::Global(g) => self.module.globals[g.0 as usize].ty,
            VarRef::Local(l) => func.vars[l.0 as usize].ty,
        }
    }

    /// Walks `block` from `vars_in`, calling `visit(index, inst, vregs)`
    /// before applying each instruction's effect (`vregs` maps every
    /// previously-defined known-constant vreg to its value). Returns the
    /// variable map at block exit and the branch verdict, if any.
    pub fn walk_block(
        &self,
        func: &Function,
        block: BlockId,
        vars_in: &BTreeMap<VarRef, i64>,
        mut visit: impl FnMut(usize, &Inst, &HashMap<VReg, i64>),
    ) -> (BTreeMap<VarRef, i64>, Option<bool>) {
        let mut vars = vars_in.clone();
        let mut vregs: HashMap<VReg, i64> = HashMap::default();
        let block_data = &func.blocks[block.index()];
        for (index, inst) in block_data.insts.iter().enumerate() {
            visit(index, inst, &vregs);
            match inst {
                Inst::ConstInt { dst, value } => {
                    vregs.insert(*dst, *value);
                }
                Inst::IntBin { op, dst, lhs, rhs } => {
                    if let (Some(&a), Some(&b)) = (vregs.get(lhs), vregs.get(rhs)) {
                        vregs.insert(*dst, eval_int(*op, a, b));
                    }
                }
                Inst::ReadVar { dst, var } => {
                    if let Some(&v) = vars.get(var) {
                        vregs.insert(*dst, v);
                    }
                }
                Inst::WriteVar { var, src } => match vregs.get(src) {
                    Some(&v) if self.var_ty(func, *var) == Ty::Int => {
                        vars.insert(*var, v);
                    }
                    _ => {
                        vars.remove(var);
                    }
                },
                Inst::Call { .. } => {
                    // The callee may write any global.
                    vars.retain(|var, _| matches!(var, VarRef::Local(_)));
                }
                // Floats, casts and array reads are not tracked: their
                // destinations stay varying.
                Inst::ConstFloat { .. }
                | Inst::FloatBin { .. }
                | Inst::FloatCmp { .. }
                | Inst::Cast { .. }
                | Inst::ReadElem { .. }
                | Inst::WriteElem { .. } => {}
            }
        }
        let branch = match &block_data.term {
            Terminator::Branch { cond, .. } => vregs.get(cond).map(|&v| v != 0),
            _ => None,
        };
        (vars, branch)
    }
}

impl Analysis for ConstProp<'_> {
    type State = ConstState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _func: &Function) -> ConstState {
        // Nothing is known at entry: parameters and globals are varying.
        ConstState {
            vars: Some(BTreeMap::new()),
            branch: None,
        }
    }

    fn bottom(&self, _func: &Function) -> ConstState {
        ConstState::default()
    }

    fn transfer(&self, func: &Function, block: BlockId, state: &mut ConstState) {
        let Some(vars) = state.vars.take() else {
            return; // unreached; nothing to transfer
        };
        let (vars, branch) = self.walk_block(func, block, &vars, |_, _, _| {});
        state.vars = Some(vars);
        state.branch = branch;
    }

    fn join(&self, into: &mut ConstState, from: &ConstState) -> bool {
        into.branch = None;
        let Some(from_vars) = &from.vars else {
            return false;
        };
        match &mut into.vars {
            None => {
                into.vars = Some(from_vars.clone());
                true
            }
            Some(into_vars) => {
                let before = into_vars.len();
                into_vars.retain(|var, value| from_vars.get(var) == Some(value));
                before != into_vars.len()
            }
        }
    }

    fn edge_is_live(&self, func: &Function, from: BlockId, to: BlockId, exit: &ConstState) -> bool {
        let Some(taken) = exit.branch else {
            return true;
        };
        match &func.blocks[from.index()].term {
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    return true;
                }
                if taken {
                    to == *then_bb
                } else {
                    to == *else_bb
                }
            }
            _ => true,
        }
    }
}

/// Integer evaluation matching the simulator's semantics exactly: wrapping
/// arithmetic, `x / 0 = 0`, `x rem 0 = x`, shift counts modulo 64.
#[must_use]
pub fn eval_int(op: IntBinOp, a: i64, b: i64) -> i64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::solve;
    use supersym_ir::{Block, GlobalId, LocalId, VarInfo};

    fn local(i: u32) -> VarRef {
        VarRef::Local(LocalId(i))
    }

    fn int_var(name: &str) -> VarInfo {
        VarInfo {
            name: name.into(),
            ty: Ty::Int,
            param_index: None,
        }
    }

    /// bb0: x = 5; if (x > 3) goto bb1 else bb2.
    /// bb1: y = x + 1; return. bb2 (dead): y = 0; return.
    fn constant_branch_func() -> Function {
        Function {
            name: "f".into(),
            vars: vec![int_var("x"), int_var("y")],
            ret: None,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(0),
                            value: 5,
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(0),
                        },
                        Inst::ConstInt {
                            dst: VReg(1),
                            value: 3,
                        },
                        Inst::IntBin {
                            op: IntBinOp::Cmp(CmpOp::Gt),
                            dst: VReg(2),
                            lhs: VReg(0),
                            rhs: VReg(1),
                        },
                    ],
                    term: Terminator::Branch {
                        cond: VReg(2),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                Block {
                    insts: vec![
                        Inst::ReadVar {
                            dst: VReg(3),
                            var: local(0),
                        },
                        Inst::ConstInt {
                            dst: VReg(4),
                            value: 1,
                        },
                        Inst::IntBin {
                            op: IntBinOp::Add,
                            dst: VReg(5),
                            lhs: VReg(3),
                            rhs: VReg(4),
                        },
                        Inst::WriteVar {
                            var: local(1),
                            src: VReg(5),
                        },
                    ],
                    term: Terminator::Return(None),
                },
                Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(6),
                            value: 0,
                        },
                        Inst::WriteVar {
                            var: local(1),
                            src: VReg(6),
                        },
                    ],
                    term: Terminator::Return(None),
                },
            ],
            vreg_tys: vec![Ty::Int; 7],
        }
    }

    #[test]
    fn constant_branch_prunes_dead_edge() {
        let module = Module {
            globals: vec![],
            funcs: vec![constant_branch_func()],
            entry: 0,
        };
        let analysis = ConstProp::new(&module);
        let solution = solve(&analysis, &module.funcs[0]);
        // bb2 is only reachable through the untaken edge.
        assert!(solution.is_reached(BlockId(1)));
        assert!(!solution.is_reached(BlockId(2)));
        // x = 5 flows into bb1; y = 6 at its exit.
        assert_eq!(
            solution.entry_of(BlockId(1)).vars.as_ref().unwrap()[&local(0)],
            5
        );
        assert_eq!(
            solution.exit_of(BlockId(1)).vars.as_ref().unwrap()[&local(1)],
            6
        );
        // The branch verdict is recorded on bb0's exit.
        assert_eq!(solution.exit_of(BlockId(0)).branch, Some(true));
    }

    #[test]
    fn join_intersects_disagreeing_facts() {
        let mut a = ConstState {
            vars: Some(BTreeMap::from([(local(0), 1), (local(1), 7)])),
            branch: Some(true),
        };
        let b = ConstState {
            vars: Some(BTreeMap::from([(local(0), 2), (local(1), 7)])),
            branch: None,
        };
        let module = Module::default();
        let analysis = ConstProp::new(&module);
        assert!(analysis.join(&mut a, &b));
        assert_eq!(a.vars, Some(BTreeMap::from([(local(1), 7)])));
        assert_eq!(a.branch, None, "entry states carry no branch verdict");
    }

    #[test]
    fn eval_matches_simulator_edge_cases() {
        assert_eq!(eval_int(IntBinOp::Div, 5, 0), 0);
        assert_eq!(eval_int(IntBinOp::Rem, 5, 0), 5);
        assert_eq!(eval_int(IntBinOp::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(eval_int(IntBinOp::Div, i64::MIN, -1), i64::MIN);
        assert_eq!(eval_int(IntBinOp::Rem, i64::MIN, -1), 0);
        assert_eq!(eval_int(IntBinOp::Shl, 1, 64), 1, "shift counts wrap at 64");
        assert_eq!(eval_int(IntBinOp::Cmp(CmpOp::Le), 3, 3), 1);
    }

    #[test]
    fn calls_invalidate_globals_only() {
        let module = Module {
            globals: vec![supersym_ir::GlobalInfo {
                name: "g".into(),
                ty: Ty::Int,
                kind: supersym_ir::GlobalKind::Scalar { init: 0.0 },
            }],
            funcs: vec![Function {
                name: "f".into(),
                vars: vec![int_var("x")],
                ret: None,
                blocks: vec![Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(0),
                            value: 9,
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(0),
                        },
                        Inst::WriteVar {
                            var: VarRef::Global(GlobalId(0)),
                            src: VReg(0),
                        },
                        Inst::Call {
                            dst: None,
                            callee: 0,
                            args: vec![],
                        },
                    ],
                    term: Terminator::Return(None),
                }],
                vreg_tys: vec![Ty::Int],
            }],
            entry: 0,
        };
        let analysis = ConstProp::new(&module);
        let solution = solve(&analysis, &module.funcs[0]);
        let exit = solution.exit_of(BlockId(0)).vars.as_ref().unwrap();
        assert_eq!(exit.get(&local(0)), Some(&9), "locals survive calls");
        assert_eq!(
            exit.get(&VarRef::Global(GlobalId(0))),
            None,
            "globals are clobbered by calls"
        );
    }
}
