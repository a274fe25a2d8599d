//! Variable liveness (backward dataflow over blocks).
//!
//! Vregs are block-local by construction, so the only values with
//! inter-block lifetimes are *variables*. This analysis tells dead-store
//! elimination which `WriteVar`s matter and the register allocator which
//! locals are worth home registers.

use crate::func::{BlockId, Function, Module};
use crate::inst::{Inst, VarRef};
use supersym_rng::HashSet;

/// Per-block live-in/live-out variable sets.
#[derive(Debug, Clone)]
pub struct VarLiveness {
    /// Variables live at block entry.
    pub live_in: Vec<HashSet<VarRef>>,
    /// Variables live at block exit.
    pub live_out: Vec<HashSet<VarRef>>,
}

impl VarLiveness {
    /// Whether `var` is live out of `block`.
    #[must_use]
    pub fn is_live_out(&self, block: BlockId, var: VarRef) -> bool {
        self.live_out[block.index()].contains(&var)
    }
}

/// Computes variable liveness for one function.
///
/// Globals are treated as live-out of every block that can leave the
/// function (returns and calls can expose them), so stores to globals are
/// never considered dead here. Calls also *use* every global (the callee
/// may read it) and *define* none (conservatively, the callee may write it —
/// handled by treating calls as uses of globals downstream too).
#[must_use]
pub fn var_liveness(module: &Module, func: &Function) -> VarLiveness {
    let n = func.blocks.len();
    // use[b]: read before any write in b. def[b]: written in b before read.
    let mut use_sets = vec![HashSet::default(); n];
    let mut def_sets: Vec<HashSet<VarRef>> = vec![HashSet::default(); n];
    for (index, block) in func.blocks.iter().enumerate() {
        for inst in &block.insts {
            match inst {
                Inst::ReadVar { var, .. } if !def_sets[index].contains(var) => {
                    use_sets[index].insert(*var);
                }
                Inst::ReadVar { .. } => {}
                Inst::WriteVar { var, .. } => {
                    def_sets[index].insert(*var);
                }
                Inst::Call { .. } => {
                    // The callee may read any global: treat all globals as
                    // used here unless already (re)defined... a write before
                    // the call still reaches the callee, so calls *use*
                    // globals regardless of def_sets.
                    for g in 0..module.globals.len() {
                        use_sets[index].insert(VarRef::Global(crate::func::GlobalId(g as u32)));
                    }
                    // And may write any global: kill nothing (conservative).
                }
                _ => {}
            }
        }
    }
    let mut live_in = vec![HashSet::default(); n];
    let mut live_out: Vec<HashSet<VarRef>> = vec![HashSet::default(); n];
    // Returns expose globals.
    let globals_set: HashSet<VarRef> = (0..module.globals.len())
        .map(|g| VarRef::Global(crate::func::GlobalId(g as u32)))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for index in (0..n).rev() {
            let block = &func.blocks[index];
            let mut out: HashSet<VarRef> = HashSet::default();
            if block.term.successors().is_empty() {
                out.extend(globals_set.iter().copied());
            }
            for succ in block.term.successors() {
                out.extend(live_in[succ.index()].iter().copied());
            }
            let mut inn = out.clone();
            inn.retain(|v| !def_sets[index].contains(v));
            inn.extend(use_sets[index].iter().copied());
            if out != live_out[index] || inn != live_in[index] {
                live_out[index] = out;
                live_in[index] = inn;
                changed = true;
            }
        }
    }
    VarLiveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, GlobalId, GlobalInfo, GlobalKind, LocalId, VarInfo};
    use crate::inst::{Terminator, VReg};
    use supersym_lang::ast::Ty;

    fn local(i: u32) -> VarRef {
        VarRef::Local(LocalId(i))
    }

    fn make_module(func: Function) -> Module {
        Module {
            globals: vec![GlobalInfo {
                name: "g".into(),
                ty: Ty::Int,
                kind: GlobalKind::Scalar { init: 0.0 },
            }],
            funcs: vec![func],
            entry: 0,
        }
    }

    #[test]
    fn straightline_local_dead_after_last_read() {
        // bb0: write l0; jump bb1. bb1: read l0; return.
        let func = Function {
            name: "f".into(),
            vars: vec![VarInfo {
                name: "x".into(),
                ty: Ty::Int,
                param_index: None,
            }],
            ret: None,
            blocks: vec![
                Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(0),
                            value: 1,
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(0),
                        },
                    ],
                    term: Terminator::Jump(crate::func::BlockId(1)),
                },
                Block {
                    insts: vec![Inst::ReadVar {
                        dst: VReg(1),
                        var: local(0),
                    }],
                    term: Terminator::Return(None),
                },
            ],
            vreg_tys: vec![Ty::Int, Ty::Int],
        };
        let module = make_module(func);
        let live = var_liveness(&module, &module.funcs[0]);
        assert!(live.is_live_out(crate::func::BlockId(0), local(0)));
        assert!(!live.is_live_out(crate::func::BlockId(1), local(0)));
    }

    #[test]
    fn globals_live_at_returns() {
        let func = Function {
            name: "f".into(),
            vars: vec![],
            ret: None,
            blocks: vec![Block::empty(Terminator::Return(None))],
            vreg_tys: vec![],
        };
        let module = make_module(func);
        let live = var_liveness(&module, &module.funcs[0]);
        assert!(live.is_live_out(crate::func::BlockId(0), VarRef::Global(GlobalId(0))));
    }

    #[test]
    fn calls_keep_globals_live() {
        // bb0: write g; call f; return — the write must stay live.
        let func = Function {
            name: "f".into(),
            vars: vec![],
            ret: None,
            blocks: vec![Block {
                insts: vec![
                    Inst::ConstInt {
                        dst: VReg(0),
                        value: 1,
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
        };
        let module = make_module(func);
        let live = var_liveness(&module, &module.funcs[0]);
        // The global is in the block's use set (the call reads it), so it is
        // live-in as well.
        assert!(live.live_in[0].contains(&VarRef::Global(GlobalId(0))));
    }

    #[test]
    fn loop_carried_local_stays_live() {
        // bb0 -> bb1(header, reads l0) -> {bb1 via bb2(writes l0), bb3}.
        let func = Function {
            name: "f".into(),
            vars: vec![VarInfo {
                name: "i".into(),
                ty: Ty::Int,
                param_index: None,
            }],
            ret: None,
            blocks: vec![
                Block::empty(Terminator::Jump(crate::func::BlockId(1))),
                Block {
                    insts: vec![Inst::ReadVar {
                        dst: VReg(0),
                        var: local(0),
                    }],
                    term: Terminator::Branch {
                        cond: VReg(0),
                        then_bb: crate::func::BlockId(2),
                        else_bb: crate::func::BlockId(3),
                    },
                },
                Block {
                    insts: vec![
                        Inst::ConstInt {
                            dst: VReg(1),
                            value: 1,
                        },
                        Inst::WriteVar {
                            var: local(0),
                            src: VReg(1),
                        },
                    ],
                    term: Terminator::Jump(crate::func::BlockId(1)),
                },
                Block::empty(Terminator::Return(None)),
            ],
            vreg_tys: vec![Ty::Int, Ty::Int],
        };
        let module = make_module(func);
        let live = var_liveness(&module, &module.funcs[0]);
        // The write in the latch feeds the header's read on the next trip.
        assert!(live.is_live_out(crate::func::BlockId(2), local(0)));
        assert!(live.live_in[1].contains(&local(0)));
    }
}
