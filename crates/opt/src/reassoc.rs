//! Reassociation: rebalancing long chains of associative operations.
//!
//! §4.4: "In careful unrolling, we reassociate long strings of additions or
//! multiplications to maximize the parallelism." A left-leaning chain
//! `((((a+b)+c)+d)+e)` has depth 4; the balanced form `((a+b)+(c+d))+e` has
//! depth 3 and exposes independent adds to the scheduler.
//!
//! Float reassociation changes rounding and is therefore only run when the
//! pipeline explicitly asks for it (the paper's "requires us to use
//! knowledge of operator associativity").
//!
//! *Which* integer operators may be chained is not hard-coded: an operator
//! qualifies exactly when the verified rule table proves it both
//! commutative and associative (`prop <op> comm` + `prop <op> assoc`),
//! which extends the pass beyond `+`/`*` to `&`, `|` and `^` — and keeps
//! `-`, `<<`, `>>` out, because no certifier can prove them chainable.
//! Float chains stay a policy decision (add/mul only), since float
//! associativity is genuinely false and is opted into, not proven.

use supersym_ir::{FloatBinOp, Inst, IntBinOp, Module, VReg};
use supersym_rng::HashMap;
use supersym_rules::{default_table, RuleTable};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainOp {
    Int(IntBinOp),
    Float(FloatBinOp),
}

fn chain_op(inst: &Inst, table: &RuleTable) -> Option<(ChainOp, VReg, VReg, VReg)> {
    match inst {
        Inst::IntBin { op, dst, lhs, rhs } if table.chainable(*op) => {
            Some((ChainOp::Int(*op), *dst, *lhs, *rhs))
        }
        Inst::FloatBin {
            op: op @ (FloatBinOp::Add | FloatBinOp::Mul),
            dst,
            lhs,
            rhs,
        } => Some((ChainOp::Float(*op), *dst, *lhs, *rhs)),
        _ => None,
    }
}

fn make_inst(op: ChainOp, dst: VReg, lhs: VReg, rhs: VReg) -> Inst {
    match op {
        ChainOp::Int(op) => Inst::IntBin { op, dst, lhs, rhs },
        ChainOp::Float(op) => Inst::FloatBin { op, dst, lhs, rhs },
    }
}

/// Rebalances associative chains of four or more leaves in every block,
/// with chainable operators taken from the default (verified) rule table.
/// Returns `true` if anything changed.
pub fn reassociate(module: &mut Module) -> bool {
    reassociate_with(module, default_table())
}

/// [`reassociate`] with an explicit rule table deciding which integer
/// operators are chainable.
pub fn reassociate_with(module: &mut Module, table: &RuleTable) -> bool {
    let mut changed = false;
    for func in &mut module.funcs {
        for block_index in 0..func.blocks.len() {
            // Bounded retry: each rewrite may expose another chain.
            for _ in 0..8 {
                if !reassociate_block(func, block_index, table) {
                    break;
                }
                changed = true;
            }
        }
    }
    changed
}

fn reassociate_block(
    func: &mut supersym_ir::Function,
    block_index: usize,
    table: &RuleTable,
) -> bool {
    let block = &func.blocks[block_index];
    // Use counts of vregs within the block (including the terminator).
    let mut uses: HashMap<VReg, usize> = HashMap::default();
    for inst in &block.insts {
        inst.for_each_use(|v| *uses.entry(v).or_insert(0) += 1);
    }
    if let Some(v) = block.term.used_vreg() {
        *uses.entry(v).or_insert(0) += 1;
    }
    // Positions of defining instructions.
    let mut def_pos: HashMap<VReg, usize> = HashMap::default();
    for (index, inst) in block.insts.iter().enumerate() {
        if let Some(dst) = inst.dst() {
            def_pos.insert(dst, index);
        }
    }

    // Find a maximal chain root.
    for (index, inst) in block.insts.iter().enumerate().rev() {
        let Some((op, dst, _, _)) = chain_op(inst, table) else {
            continue;
        };
        // Maximal: dst is not consumed (exactly once) by a same-op inst.
        if uses.get(&dst) == Some(&1) {
            let consumer = block.insts.iter().find(|other| {
                let mut found = false;
                other.for_each_use(|v| found |= v == dst);
                found
            });
            if let Some(consumer) = consumer {
                if chain_op(consumer, table).is_some_and(|(cop, _, _, _)| cop == op) {
                    continue;
                }
            }
        }
        // Expand the chain: an operand joins the chain when it is defined in
        // this block by a same-op inst and used exactly once.
        let mut leaves: Vec<VReg> = Vec::new();
        let mut interior: Vec<usize> = Vec::new();
        let mut stack = vec![(index, false)];
        while let Some((pos, _)) = stack.pop() {
            let (cop, _, lhs, rhs) = chain_op(&block.insts[pos], table).expect("chain member");
            debug_assert_eq!(cop, op);
            for operand in [lhs, rhs] {
                let expandable = def_pos.get(&operand).is_some_and(|&p| {
                    uses.get(&operand) == Some(&1)
                        && chain_op(&block.insts[p], table).is_some_and(|(o, _, _, _)| o == op)
                });
                if expandable {
                    let p = def_pos[&operand];
                    interior.push(p);
                    stack.push((p, false));
                } else {
                    leaves.push(operand);
                }
            }
        }
        if leaves.len() < 4 {
            continue;
        }
        // Sort leaves by definition position so the rebuilt tree pairs
        // early-available values first (and stays valid: all leaves are
        // defined before `index`, where the new instructions go).
        leaves.sort_by_key(|v| def_pos.get(v).copied().unwrap_or(0));
        let ty = func.vreg_ty(dst);
        // Build the balanced reduction.
        let mut new_insts: Vec<Inst> = Vec::new();
        let mut level: Vec<VReg> = leaves;
        while level.len() > 2 {
            let mut next: Vec<VReg> = Vec::new();
            let mut iter = level.chunks_exact(2);
            for pair in iter.by_ref() {
                let mid = func.new_vreg(ty);
                new_insts.push(make_inst(op, mid, pair[0], pair[1]));
                next.push(mid);
            }
            if let [odd] = iter.remainder() {
                next.push(*odd);
            }
            level = next;
        }
        new_insts.push(make_inst(op, dst, level[0], level[1]));

        // Rebuild the block: drop interior + root, splice new insts at root.
        let mut to_remove: Vec<usize> = interior;
        to_remove.push(index);
        to_remove.sort_unstable();
        let block = &mut func.blocks[block_index];
        let mut rebuilt: Vec<Inst> = Vec::with_capacity(block.insts.len() + new_insts.len());
        for (pos, inst) in block.insts.drain(..).enumerate() {
            if pos == index {
                rebuilt.append(&mut new_insts);
            }
            if to_remove.binary_search(&pos).is_err() {
                rebuilt.push(inst);
            }
        }
        block.insts = rebuilt;
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_ir::Terminator;
    use supersym_lang::ast::Ty;

    /// Builds `dst = ((((a?b)?c)?d)?e)` for `op` in one block.
    fn left_chain_of(n: usize, op: IntBinOp) -> supersym_ir::Module {
        use supersym_ir::{Block, Function, LocalId, VarRef};
        let mut func = Function {
            name: "f".into(),
            vars: Vec::new(),
            ret: None,
            blocks: Vec::new(),
            vreg_tys: Vec::new(),
        };
        for k in 0..n {
            func.new_local(format!("x{k}"), Ty::Int);
        }
        let mut insts = Vec::new();
        let mut leaves = Vec::new();
        for k in 0..n {
            let v = func.new_vreg(Ty::Int);
            insts.push(Inst::ReadVar {
                dst: v,
                var: VarRef::Local(LocalId(k as u32)),
            });
            leaves.push(v);
        }
        let mut acc = leaves[0];
        for &leaf in &leaves[1..] {
            let next = func.new_vreg(Ty::Int);
            insts.push(Inst::IntBin {
                op,
                dst: next,
                lhs: acc,
                rhs: leaf,
            });
            acc = next;
        }
        let out = func.new_local("out", Ty::Int);
        insts.push(Inst::WriteVar {
            var: VarRef::Local(out),
            src: acc,
        });
        func.blocks.push(Block {
            insts,
            term: Terminator::Return(None),
        });
        supersym_ir::Module {
            globals: vec![],
            funcs: vec![func],
            entry: 0,
        }
    }

    fn left_chain(n: usize) -> supersym_ir::Module {
        left_chain_of(n, IntBinOp::Add)
    }

    /// Depth of the dependence chain feeding the final write.
    fn add_chain_depth(module: &supersym_ir::Module) -> usize {
        let block = &module.funcs[0].blocks[0];
        let mut depth: HashMap<VReg, usize> = HashMap::default();
        let mut max_depth = 0;
        for inst in &block.insts {
            if let Some((_, dst, lhs, rhs)) = chain_op(inst, default_table()) {
                let d = 1 + depth
                    .get(&lhs)
                    .copied()
                    .unwrap_or(0)
                    .max(depth.get(&rhs).copied().unwrap_or(0));
                depth.insert(dst, d);
                max_depth = max_depth.max(d);
            }
        }
        max_depth
    }

    #[test]
    fn balances_eight_leaf_chain() {
        let mut module = left_chain(8);
        assert_eq!(add_chain_depth(&module), 7);
        assert!(reassociate(&mut module));
        module.validate().unwrap();
        assert_eq!(add_chain_depth(&module), 3); // log2(8)
    }

    #[test]
    fn add_count_preserved() {
        let mut module = left_chain(8);
        let adds_before = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| chain_op(i, default_table()).is_some())
            .count();
        reassociate(&mut module);
        let adds_after = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| chain_op(i, default_table()).is_some())
            .count();
        assert_eq!(adds_before, adds_after);
    }

    #[test]
    fn short_chains_untouched() {
        let mut module = left_chain(3);
        assert!(!reassociate(&mut module));
    }

    #[test]
    fn five_leaves_balanced() {
        let mut module = left_chain(5);
        assert_eq!(add_chain_depth(&module), 4);
        assert!(reassociate(&mut module));
        module.validate().unwrap();
        assert!(add_chain_depth(&module) <= 3);
    }

    #[test]
    fn xor_chain_balances_via_proven_props() {
        // Xor is chainable only because the table proves `prop xor comm`
        // and `prop xor assoc`; the pass itself has no opinion.
        let mut module = left_chain_of(8, IntBinOp::Xor);
        assert_eq!(add_chain_depth(&module), 7);
        assert!(reassociate(&mut module));
        module.validate().unwrap();
        assert_eq!(add_chain_depth(&module), 3);
    }

    #[test]
    fn sub_chain_is_never_touched() {
        // Subtraction has no associativity proof, so no table will ever
        // mark it chainable.
        let mut module = left_chain_of(8, IntBinOp::Sub);
        assert!(!reassociate(&mut module));
    }

    #[test]
    fn empty_table_disables_integer_chains() {
        let mut module = left_chain(8);
        assert!(!reassociate_with(&mut module, &RuleTable::empty()));
    }

    #[test]
    fn multiply_used_intermediate_is_a_leaf() {
        // d1 = a + b; d2 = d1 + c; out1 = d1; out2 = d2 — d1 used twice so
        // the chain from d2 must treat d1 as a leaf, not expand it.
        use supersym_ir::{Block, Function, LocalId, VarRef};
        let mut func = Function {
            name: "f".into(),
            vars: Vec::new(),
            ret: None,
            blocks: Vec::new(),
            vreg_tys: Vec::new(),
        };
        for name in ["a", "b", "c", "o1", "o2"] {
            func.new_local(name, Ty::Int);
        }
        let a = func.new_vreg(Ty::Int);
        let b = func.new_vreg(Ty::Int);
        let c = func.new_vreg(Ty::Int);
        let d1 = func.new_vreg(Ty::Int);
        let d2 = func.new_vreg(Ty::Int);
        func.blocks.push(Block {
            insts: vec![
                Inst::ReadVar {
                    dst: a,
                    var: VarRef::Local(LocalId(0)),
                },
                Inst::ReadVar {
                    dst: b,
                    var: VarRef::Local(LocalId(1)),
                },
                Inst::ReadVar {
                    dst: c,
                    var: VarRef::Local(LocalId(2)),
                },
                Inst::IntBin {
                    op: IntBinOp::Add,
                    dst: d1,
                    lhs: a,
                    rhs: b,
                },
                Inst::IntBin {
                    op: IntBinOp::Add,
                    dst: d2,
                    lhs: d1,
                    rhs: c,
                },
                Inst::WriteVar {
                    var: VarRef::Local(LocalId(3)),
                    src: d1,
                },
                Inst::WriteVar {
                    var: VarRef::Local(LocalId(4)),
                    src: d2,
                },
            ],
            term: Terminator::Return(None),
        });
        let mut module = supersym_ir::Module {
            globals: vec![],
            funcs: vec![func],
            entry: 0,
        };
        // Chain has only 2 leaves from d2's perspective (d1, c): no rewrite.
        assert!(!reassociate(&mut module));
        module.validate().unwrap();
    }
}
