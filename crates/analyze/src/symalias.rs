//! IR-level origin sharpening for memory disambiguation.
//!
//! Array accesses carry an optional [`IndexOrigin`] annotation — the
//! front end's decomposition of the index into *base expression + constant
//! delta* — which the code generator turns into [`MemAlias`] base tags and
//! offsets, and the dependence oracles turn into must-not-alias facts.
//! This pass sharpens those annotations with dataflow evidence the front
//! end (which sees one expression at a time) cannot have:
//!
//! 1. **Constant upgrade.** If conditional constant propagation proves the
//!    index vreg holds the constant `c` on every execution reaching the
//!    access, the origin becomes [`IndexOrigin::Absolute`]`(c)` — even when
//!    the source index was a variable expression, and even when the
//!    constancy is only established across blocks (`i = 0;` in one block,
//!    `a[i]` in another). Two distinct absolute indices of one array can
//!    never collide, so the scheduler may reorder the accesses freely.
//!
//!    The upgrade never loses precision against the `Relative` origin it
//!    replaces: within a scheduling region (straight-line code), if one of
//!    a same-base pair of accesses has a constant index then the shared
//!    base expression is constant at both — any write to a base variable
//!    in between would have changed the base's value, which disambiguation
//!    against the partner already forbids — so the partner's index folds
//!    too and the pair stays disjoint-by-constants.
//!
//! 2. **Linear recovery.** An access the front end left un-annotated (or
//!    one introduced by an optimization) whose index vreg decomposes —
//!    through the block's `ConstInt`/`ReadVar`/add/sub chains — into a sum
//!    of variable reads plus a constant gains a fresh
//!    [`IndexOrigin::Relative`] with a fingerprint of the canonical term
//!    multiset. Recovered fingerprints live in a namespace disjoint from
//!    the front end's expression fingerprints (the hash is salted), so an
//!    equal-fingerprint pair is always two recovered origins with the same
//!    terms: the same runtime value whenever no term variable was written
//!    in between, which is exactly the contract [`IndexOrigin::Relative`]
//!    demands and the code generator's tag invalidation enforces.
//!
//! Deltas use wrapping arithmetic deliberately: the machine computes
//! `base + delta` with wrapping adds, which is injective in `delta` for a
//! fixed base value, so distinct (even wrapped) deltas still prove
//! distinct addresses.
//!
//! [`MemAlias`]: supersym_isa::MemAlias

use crate::consts::ConstProp;
use crate::engine::solve;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use supersym_ir::{BlockId, Function, IndexOrigin, Inst, IntBinOp, Module, VReg, VarRef};
use supersym_rng::HashMap;

/// Salt distinguishing recovered fingerprints from the front end's
/// expression fingerprints (and from any future scheme).
const RECOVERED_SALT: &str = "supersym-analyze/linear-origin-v1";

/// A block-local linear decomposition of an integer vreg: a multiset of
/// signed variable reads plus a constant. Valid only while none of the
/// read variables has been written since the reads.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LinForm {
    /// Signed terms `(negated, var)`, kept sorted as a canonical multiset.
    terms: Vec<(bool, VarRef)>,
    /// Constant addend (wrapping, matching machine arithmetic).
    delta: i64,
}

/// Cap on term-multiset size; larger forms are abandoned (they would be
/// useless for disambiguation anyway).
const MAX_TERMS: usize = 8;

impl LinForm {
    fn constant(delta: i64) -> Self {
        LinForm {
            terms: Vec::new(),
            delta,
        }
    }

    fn var(var: VarRef) -> Self {
        LinForm {
            terms: vec![(false, var)],
            delta: 0,
        }
    }

    /// `self + sign * other`, or `None` when the result grows too large.
    fn combine(&self, other: &LinForm, negate_other: bool) -> Option<Self> {
        if self.terms.len() + other.terms.len() > MAX_TERMS {
            return None;
        }
        let mut terms = self.terms.clone();
        terms.extend(
            other
                .terms
                .iter()
                .map(|&(neg, var)| (neg != negate_other, var)),
        );
        terms.sort_unstable();
        let delta = if negate_other {
            self.delta.wrapping_sub(other.delta)
        } else {
            self.delta.wrapping_add(other.delta)
        };
        Some(LinForm { terms, delta })
    }

    fn mentions(&self, var: VarRef) -> bool {
        self.terms.iter().any(|&(_, v)| v == var)
    }

    /// The [`IndexOrigin::Relative`] this form denotes, `None` for pure
    /// constants (those are the constant-upgrade pass's job).
    fn to_origin(&self) -> Option<IndexOrigin> {
        if self.terms.is_empty() {
            return None;
        }
        let mut hasher = DefaultHasher::new();
        RECOVERED_SALT.hash(&mut hasher);
        for &(neg, var) in &self.terms {
            neg.hash(&mut hasher);
            match var {
                VarRef::Global(g) => (0_u8, g.0).hash(&mut hasher),
                VarRef::Local(l) => (1_u8, l.0).hash(&mut hasher),
            }
        }
        let mut vars: Vec<VarRef> = self.terms.iter().map(|&(_, v)| v).collect();
        vars.sort_unstable();
        vars.dedup();
        Some(IndexOrigin::Relative {
            base: hasher.finish(),
            vars,
            delta: self.delta,
        })
    }
}

/// Sharpens the [`IndexOrigin`] annotations of every array access in
/// `module` using constant propagation and block-local linear
/// decomposition. Returns the number of annotations improved.
///
/// Run after the optimization pipeline, just before instruction selection:
/// the optimizer both creates the constants this pass exploits and may
/// emit un-annotated accesses this pass re-annotates.
pub fn sharpen_origins(module: &mut Module) -> usize {
    // Plan the edits against the immutable module, then apply them.
    let mut edits: BTreeMap<(usize, BlockId, usize), IndexOrigin> = BTreeMap::new();
    let consts = ConstProp::new(module);
    for (func_index, func) in module.funcs.iter().enumerate() {
        let solution = solve(&consts, func);
        for block_index in 0..func.blocks.len() {
            let block = BlockId(block_index as u32);
            if !solution.is_reached(block) {
                continue;
            }
            let Some(vars_in) = solution.entry_of(block).vars.as_ref() else {
                continue;
            };
            // Constant upgrade: any access whose index vreg is proven
            // constant at the access becomes Absolute.
            consts.walk_block(func, block, vars_in, |index, inst, vregs| {
                let (index_vreg, origin) = match inst {
                    Inst::ReadElem { index, origin, .. } => (index, origin),
                    Inst::WriteElem { index, origin, .. } => (index, origin),
                    _ => return,
                };
                if let Some(&value) = vregs.get(index_vreg) {
                    let sharpened = IndexOrigin::Absolute(value);
                    if origin.as_ref() != Some(&sharpened) {
                        edits.insert((func_index, block, index), sharpened);
                    }
                }
            });
            recover_linear_origins(func_index, func, block, &mut edits);
        }
    }
    let count = edits.len();
    for ((func_index, block, index), origin) in edits {
        match &mut module.funcs[func_index].blocks[block.index()].insts[index] {
            Inst::ReadElem { origin: slot, .. } | Inst::WriteElem { origin: slot, .. } => {
                *slot = Some(origin);
            }
            _ => unreachable!("edit sites are array accesses"),
        }
    }
    count
}

/// The linear-recovery pass over one block: tracks a [`LinForm`] per vreg,
/// killing forms whose variables are written, and annotates un-annotated
/// accesses (skipping sites the constant upgrade already claimed).
fn recover_linear_origins(
    func_index: usize,
    func: &Function,
    block: BlockId,
    edits: &mut BTreeMap<(usize, BlockId, usize), IndexOrigin>,
) {
    let mut forms: HashMap<VReg, LinForm> = HashMap::default();
    for (index, inst) in func.blocks[block.index()].insts.iter().enumerate() {
        // Annotate before applying the def (an access never defines its
        // own index, but the symmetry with the other walks is free).
        let access = match inst {
            Inst::ReadElem { index, origin, .. } => Some((index, origin)),
            Inst::WriteElem { index, origin, .. } => Some((index, origin)),
            _ => None,
        };
        if let Some((index_vreg, origin)) = access {
            let site = (func_index, block, index);
            if origin.is_none() && !edits.contains_key(&site) {
                if let Some(sharpened) = forms.get(index_vreg).and_then(LinForm::to_origin) {
                    edits.insert(site, sharpened);
                }
            }
        }
        match inst {
            Inst::ConstInt { dst, value } => {
                forms.insert(*dst, LinForm::constant(*value));
            }
            Inst::ReadVar { dst, var } => {
                forms.insert(*dst, LinForm::var(*var));
            }
            Inst::IntBin { op, dst, lhs, rhs } if matches!(op, IntBinOp::Add | IntBinOp::Sub) => {
                let combined = match (forms.get(lhs), forms.get(rhs)) {
                    (Some(a), Some(b)) => a.combine(b, *op == IntBinOp::Sub),
                    _ => None,
                };
                match combined {
                    Some(form) => {
                        forms.insert(*dst, form);
                    }
                    None => {
                        forms.remove(dst);
                    }
                }
            }
            Inst::WriteVar { var, .. } => {
                // The old reads no longer denote the variable's value.
                forms.retain(|_, form| !form.mentions(*var));
            }
            Inst::Call { dst, .. } => {
                forms.retain(|_, form| {
                    !form
                        .terms
                        .iter()
                        .any(|&(_, v)| matches!(v, VarRef::Global(_)))
                });
                if let Some(dst) = dst {
                    forms.remove(dst);
                }
            }
            _ => {
                if let Some(dst) = inst.dst() {
                    forms.remove(&dst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_ir::{Block, GlobalId, GlobalInfo, GlobalKind, LocalId, Terminator, VarInfo};
    use supersym_lang::ast::Ty;

    fn local(i: u32) -> VarRef {
        VarRef::Local(LocalId(i))
    }

    fn array_global(name: &str, len: usize) -> GlobalInfo {
        GlobalInfo {
            name: name.into(),
            ty: Ty::Float,
            kind: GlobalKind::Array { len },
        }
    }

    fn origin_of(module: &Module, func: usize, block: u32, index: usize) -> Option<IndexOrigin> {
        match &module.funcs[func].blocks[block as usize].insts[index] {
            Inst::ReadElem { origin, .. } | Inst::WriteElem { origin, .. } => origin.clone(),
            other => panic!("not an access: {other:?}"),
        }
    }

    /// bb0: i = 2; jump bb1. bb1: a[i] (origin Relative) — the constant
    /// flows across the block boundary and upgrades the origin.
    #[test]
    fn cross_block_constant_upgrade() {
        let relative = IndexOrigin::Relative {
            base: 42,
            vars: vec![local(0)],
            delta: 0,
        };
        let mut module = Module {
            globals: vec![array_global("a", 8)],
            funcs: vec![Function {
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
                                value: 2,
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
                            Inst::ReadElem {
                                dst: VReg(2),
                                arr: GlobalId(0),
                                index: VReg(1),
                                origin: Some(relative),
                            },
                        ],
                        term: Terminator::Return(None),
                    },
                ],
                vreg_tys: vec![Ty::Int, Ty::Int, Ty::Float],
            }],
            entry: 0,
        };
        assert_eq!(sharpen_origins(&mut module), 1);
        assert_eq!(origin_of(&module, 0, 1, 1), Some(IndexOrigin::Absolute(2)));
        // Idempotent: a second run finds nothing to improve.
        assert_eq!(sharpen_origins(&mut module), 0);
    }

    /// Un-annotated accesses `a[i]` and `a[i + 1]` recover a shared base
    /// fingerprint with deltas 0 and 1; a write to `i` in between kills
    /// the form instead.
    #[test]
    fn linear_recovery_shares_base() {
        let make = |poison_write: bool| {
            let mut insts = vec![
                Inst::ReadVar {
                    dst: VReg(0),
                    var: local(0),
                },
                Inst::ReadElem {
                    dst: VReg(1),
                    arr: GlobalId(0),
                    index: VReg(0),
                    origin: None,
                },
            ];
            if poison_write {
                insts.push(Inst::ConstInt {
                    dst: VReg(5),
                    value: 9,
                });
                insts.push(Inst::WriteVar {
                    var: local(0),
                    src: VReg(5),
                });
            }
            insts.extend([
                Inst::ReadVar {
                    dst: VReg(2),
                    var: local(0),
                },
                Inst::ConstInt {
                    dst: VReg(3),
                    value: 1,
                },
                Inst::IntBin {
                    op: IntBinOp::Add,
                    dst: VReg(4),
                    lhs: VReg(2),
                    rhs: VReg(3),
                },
                Inst::ReadElem {
                    dst: VReg(6),
                    arr: GlobalId(0),
                    index: VReg(4),
                    origin: None,
                },
            ]);
            Module {
                globals: vec![array_global("a", 8)],
                funcs: vec![Function {
                    name: "f".into(),
                    vars: vec![VarInfo {
                        name: "i".into(),
                        ty: Ty::Int,
                        param_index: Some(0),
                    }],
                    ret: None,
                    blocks: vec![Block {
                        insts,
                        term: Terminator::Return(None),
                    }],
                    vreg_tys: vec![
                        Ty::Int,
                        Ty::Float,
                        Ty::Int,
                        Ty::Int,
                        Ty::Int,
                        Ty::Int,
                        Ty::Float,
                    ],
                }],
                entry: 0,
            }
        };

        let mut module = make(false);
        assert_eq!(sharpen_origins(&mut module), 2);
        let first = origin_of(&module, 0, 0, 1).expect("annotated");
        let second = origin_of(&module, 0, 0, 5).expect("annotated");
        let IndexOrigin::Relative {
            base: base_a,
            vars: vars_a,
            delta: 0,
        } = first
        else {
            panic!("unexpected origin {first:?}");
        };
        let IndexOrigin::Relative {
            base: base_b,
            vars: vars_b,
            delta: 1,
        } = second
        else {
            panic!("unexpected origin {second:?}");
        };
        assert_eq!(base_a, base_b, "same base expression, same fingerprint");
        assert_eq!(vars_a, vec![local(0)]);
        assert_eq!(vars_b, vec![local(0)]);

        // With `i` rewritten between the reads the earlier read's form
        // dies; `i + 1` after the write is still recovered (its read
        // postdates the write), and the parameter is no longer constant
        // so the write does not make the accesses Absolute.
        let mut poisoned = make(true);
        sharpen_origins(&mut poisoned);
        assert_eq!(
            origin_of(&poisoned, 0, 0, 1),
            Some(IndexOrigin::Relative {
                base: base_a,
                vars: vec![local(0)],
                delta: 0,
            })
        );
        // The second access reads `i` *after* the write: i is then the
        // constant 9, so the constant upgrade claims it first.
        assert_eq!(
            origin_of(&poisoned, 0, 0, 7),
            Some(IndexOrigin::Absolute(10))
        );
    }

    /// Recovered fingerprints differ between different variables.
    #[test]
    fn different_vars_different_bases() {
        let a = LinForm::var(local(0)).to_origin().unwrap();
        let b = LinForm::var(local(1)).to_origin().unwrap();
        let (IndexOrigin::Relative { base: ba, .. }, IndexOrigin::Relative { base: bb, .. }) =
            (a, b)
        else {
            panic!("expected relative origins");
        };
        assert_ne!(ba, bb);
        // Sign matters: x - y and x + y are different bases.
        let sum = LinForm::var(local(0))
            .combine(&LinForm::var(local(1)), false)
            .unwrap();
        let diff = LinForm::var(local(0))
            .combine(&LinForm::var(local(1)), true)
            .unwrap();
        assert_ne!(sum.to_origin(), diff.to_origin());
    }
}
