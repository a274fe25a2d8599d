//! Dead-code and dead-store elimination.

use supersym_ir::{var_liveness, BlockId, Inst, Module, Terminator, VarRef};
use supersym_rng::HashSet;

/// Removes pure instructions whose results are unused (per block — vregs are
/// block-local) and unreachable blocks. Returns `true` if anything changed.
pub fn dead_code_elimination(module: &mut Module) -> bool {
    let mut changed = false;
    for func in &mut module.funcs {
        for block in &mut func.blocks {
            // Backward sweep: a pure inst is dead if its dst is never used
            // later in the block (including the terminator).
            let mut used: HashSet<supersym_ir::VReg> = HashSet::default();
            if let Some(v) = block.term.used_vreg() {
                used.insert(v);
            }
            let mut keep = vec![true; block.insts.len()];
            for (index, inst) in block.insts.iter().enumerate().rev() {
                let dead = inst.is_pure() && inst.dst().is_some_and(|d| !used.contains(&d));
                if dead {
                    keep[index] = false;
                } else {
                    inst.for_each_use(|v| {
                        used.insert(v);
                    });
                }
            }
            if keep.iter().any(|k| !k) {
                changed = true;
                let mut iter = keep.iter();
                block
                    .insts
                    .retain(|_| *iter.next().expect("keep mask matches"));
            }
        }
    }
    changed |= remove_unreachable_blocks(module);
    changed
}

/// Removes blocks unreachable from each function's entry, compacting block
/// ids. Returns `true` if anything was removed.
pub fn remove_unreachable_blocks(module: &mut Module) -> bool {
    let mut changed = false;
    for func in &mut module.funcs {
        let n = func.blocks.len();
        let mut reachable = vec![false; n];
        let mut work = vec![BlockId(0)];
        reachable[0] = true;
        while let Some(block) = work.pop() {
            for succ in func.blocks[block.index()].term.successors() {
                if !reachable[succ.index()] {
                    reachable[succ.index()] = true;
                    work.push(succ);
                }
            }
        }
        if reachable.iter().all(|&r| r) {
            continue;
        }
        changed = true;
        // Compact: old index -> new index.
        let mut remap = vec![u32::MAX; n];
        let mut next = 0_u32;
        for (index, &r) in reachable.iter().enumerate() {
            if r {
                remap[index] = next;
                next += 1;
            }
        }
        let old_blocks = std::mem::take(&mut func.blocks);
        for (index, mut block) in old_blocks.into_iter().enumerate() {
            if !reachable[index] {
                continue;
            }
            match &mut block.term {
                Terminator::Jump(b) => *b = BlockId(remap[b.index()]),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    *then_bb = BlockId(remap[then_bb.index()]);
                    *else_bb = BlockId(remap[else_bb.index()]);
                }
                Terminator::Return(_) => {}
            }
            func.blocks.push(block);
        }
    }
    changed
}

/// Liveness-driven dead-store elimination: removes `WriteVar`s to *local*
/// variables that are overwritten before any read (within a block) or not
/// live out of their block. Global scalars are never touched (another
/// function may read them). Returns `true` if anything changed.
pub fn dead_store_elimination(module: &mut Module) -> bool {
    let mut changed = false;
    for func_index in 0..module.funcs.len() {
        let liveness = var_liveness(module, &module.funcs[func_index]);
        let func = &mut module.funcs[func_index];
        for (block_index, block) in func.blocks.iter_mut().enumerate() {
            // Backward: a store to a local is dead if the local is not read
            // later in the block and not live-out.
            let mut read_later: HashSet<VarRef> = HashSet::default();
            let mut keep = vec![true; block.insts.len()];
            for (index, inst) in block.insts.iter().enumerate().rev() {
                match inst {
                    Inst::WriteVar {
                        var: var @ VarRef::Local(_),
                        ..
                    } => {
                        if !read_later.contains(var)
                            && !liveness.is_live_out(BlockId(block_index as u32), *var)
                        {
                            keep[index] = false;
                        } else {
                            // This write satisfies the later reads; earlier
                            // writes (with no read in between) are dead.
                            read_later.remove(var);
                        }
                    }
                    Inst::ReadVar { var, .. } => {
                        read_later.insert(*var);
                    }
                    _ => {}
                }
            }
            if keep.iter().any(|k| !k) {
                changed = true;
                let mut iter = keep.iter();
                block
                    .insts
                    .retain(|_| *iter.next().expect("keep mask matches"));
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvn::local_value_numbering;

    fn prepare(src: &str) -> Module {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        supersym_ir::lower(&ast).unwrap()
    }

    #[test]
    fn removes_unused_pure_insts() {
        let mut module = prepare("fn main() -> int { var x = 1 + 2; return 5; }");
        local_value_numbering(&mut module);
        // The write to x stays (DSE's job), but with DSE the chain dies.
        dead_store_elimination(&mut module);
        dead_code_elimination(&mut module);
        module.validate().unwrap();
        let main = &module.funcs[0];
        assert_eq!(main.inst_count(), 1); // just `const 5`
    }

    #[test]
    fn removes_unreachable_blocks() {
        let mut module = prepare("fn main() -> int { return 1; return 2; }");
        let before = module.funcs[0].blocks.len();
        assert!(dead_code_elimination(&mut module));
        module.validate().unwrap();
        assert!(module.funcs[0].blocks.len() < before);
    }

    #[test]
    fn branch_fold_then_unreachable_removal() {
        let mut module = prepare("fn main() -> int { if (0) { return 1; } else { return 2; } }");
        local_value_numbering(&mut module);
        dead_code_elimination(&mut module);
        module.validate().unwrap();
        // Entry jumps straight to the else arm; the then arm is gone.
        let f = &module.funcs[0];
        assert!(f.blocks.len() <= 3);
    }

    #[test]
    fn keeps_live_stores() {
        let mut module = prepare(
            "global var g;
             fn main() -> int { var x = 3; g = x; return g; }",
        );
        local_value_numbering(&mut module);
        dead_store_elimination(&mut module);
        dead_code_elimination(&mut module);
        module.validate().unwrap();
        let f = &module.funcs[0];
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::WriteVar {
                var: VarRef::Global(_),
                ..
            }
        )));
    }

    #[test]
    fn dse_removes_overwritten_local() {
        let mut module = prepare(
            "global var g;
             fn main() -> int { var x = g; x = g + 1; return x; }",
        );
        // Without LVN (which might forward), DSE alone should kill the
        // first write: overwritten with no read between.
        dead_store_elimination(&mut module);
        module.validate().unwrap();
        let writes = module.funcs[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::WriteVar { .. }))
            .count();
        assert_eq!(writes, 1);
    }

    #[test]
    fn dse_respects_loop_liveness() {
        let mut module = prepare(
            "fn main() -> int {
                 var s = 0;
                 for (i = 0; i < 3; i = i + 1) { s = s + i; }
                 return s;
             }",
        );
        dead_store_elimination(&mut module);
        module.validate().unwrap();
        // The s accumulator writes must all survive.
        let writes: usize = module.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::WriteVar { .. }))
            .count();
        assert!(writes >= 3); // s init, s update, i init/update
    }
}
