//! Call legalization: no vreg may be live across a `Call`.
//!
//! Values needed after a call are written to fresh compiler locals before
//! the call and re-read (into the same vreg) after it. This matches the
//! paper's model in which temporaries hold only "short-term expressions":
//! the callee is free to use every temporary register.

use supersym_ir::{Inst, Module, VReg, VarRef};
use supersym_rng::{HashMap, HashSet};

/// Splits vreg live ranges around every call. Idempotent.
pub fn split_live_across_calls(module: &mut Module) {
    for func in &mut module.funcs {
        for block_index in 0..func.blocks.len() {
            loop {
                let block = &func.blocks[block_index];
                // Find the first call with a vreg live across it.
                let mut fix: Option<(usize, Vec<VReg>)> = None;
                'calls: for (pos, inst) in block.insts.iter().enumerate() {
                    if !matches!(inst, Inst::Call { .. }) {
                        continue;
                    }
                    // Defs before (or at) the call...
                    let mut defined_before: HashMap<VReg, ()> = HashMap::default();
                    for earlier in &block.insts[..pos] {
                        if let Some(d) = earlier.dst() {
                            defined_before.insert(d, ());
                        }
                    }
                    // ...used strictly after it.
                    let mut live: Vec<VReg> = Vec::new();
                    let mut redefined: HashMap<VReg, ()> = HashMap::default();
                    if let Some(d) = block.insts[pos].dst() {
                        redefined.insert(d, ());
                    }
                    for later in &block.insts[pos + 1..] {
                        later.for_each_use(|v| {
                            if defined_before.contains_key(&v)
                                && !redefined.contains_key(&v)
                                && !live.contains(&v)
                            {
                                live.push(v);
                            }
                        });
                        if let Some(d) = later.dst() {
                            redefined.insert(d, ());
                        }
                    }
                    if let Some(v) = block.term.used_vreg() {
                        if defined_before.contains_key(&v)
                            && !redefined.contains_key(&v)
                            && !live.contains(&v)
                        {
                            live.push(v);
                        }
                    }
                    if !live.is_empty() {
                        fix = Some((pos, live));
                        break 'calls;
                    }
                }
                let Some((pos, live)) = fix else { break };
                // Insert WriteVar before the call and ReadVar after it.
                let mut pairs = Vec::with_capacity(live.len());
                for vreg in live {
                    let ty = func.vreg_ty(vreg);
                    let tmp = func.new_local(format!("$call{}", vreg.0), ty);
                    pairs.push((vreg, tmp));
                }
                let block = &mut func.blocks[block_index];
                for (offset, &(vreg, tmp)) in pairs.iter().enumerate() {
                    block.insts.insert(
                        pos + offset,
                        Inst::WriteVar {
                            var: VarRef::Local(tmp),
                            src: vreg,
                        },
                    );
                }
                let after = pos + pairs.len() + 1;
                for (offset, &(vreg, tmp)) in pairs.iter().enumerate() {
                    block.insts.insert(
                        after + offset,
                        Inst::ReadVar {
                            dst: vreg,
                            var: VarRef::Local(tmp),
                        },
                    );
                }
            }
        }
    }
}

/// Checks the invariant (used by tests and debug assertions).
#[must_use]
pub fn no_vreg_live_across_calls(module: &Module) -> bool {
    for func in &module.funcs {
        for block in &func.blocks {
            for (pos, inst) in block.insts.iter().enumerate() {
                if !matches!(inst, Inst::Call { .. }) {
                    continue;
                }
                let mut defined_before = HashSet::default();
                for earlier in &block.insts[..pos] {
                    if let Some(d) = earlier.dst() {
                        defined_before.insert(d);
                    }
                }
                let mut redefined = HashSet::default();
                if let Some(d) = block.insts[pos].dst() {
                    redefined.insert(d);
                }
                let mut ok = true;
                for later in &block.insts[pos + 1..] {
                    later.for_each_use(|v| {
                        if defined_before.contains(&v) && !redefined.contains(&v) {
                            ok = false;
                        }
                    });
                    if let Some(d) = later.dst() {
                        redefined.insert(d);
                    }
                }
                if let Some(v) = block.term.used_vreg() {
                    if defined_before.contains(&v) && !redefined.contains(&v) {
                        ok = false;
                    }
                }
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepare(src: &str) -> Module {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        supersym_ir::lower(&ast).unwrap()
    }

    #[test]
    fn splits_value_live_across_call() {
        let mut module = prepare(
            "fn f(int x) -> int { return x; }
             fn main() -> int { var a = 3; return a + f(4); }",
        );
        split_live_across_calls(&mut module);
        module.validate().unwrap();
        assert!(no_vreg_live_across_calls(&module));
    }

    #[test]
    fn idempotent() {
        let mut module = prepare(
            "fn f() -> int { return 1; }
             fn main() -> int { var a = 3; return a + f() + a; }",
        );
        split_live_across_calls(&mut module);
        let once = module.clone();
        split_live_across_calls(&mut module);
        assert_eq!(module, once);
    }

    #[test]
    fn nested_calls() {
        let mut module = prepare(
            "fn f(int x) -> int { return x * 2; }
             fn main() -> int { var a = 1; return a + f(a + f(a)); }",
        );
        split_live_across_calls(&mut module);
        module.validate().unwrap();
        assert!(no_vreg_live_across_calls(&module));
    }

    #[test]
    fn call_result_usable() {
        let mut module = prepare(
            "fn f() -> int { return 7; }
             fn main() -> int { return f() + f(); }",
        );
        split_live_across_calls(&mut module);
        module.validate().unwrap();
        assert!(no_vreg_live_across_calls(&module));
    }
}
