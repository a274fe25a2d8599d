//! Per-pass translation validation: re-proves that an optimizer pass
//! preserved program behavior, using the *same* machine-verified rule
//! table the optimizer consulted — but through an independent proof path.
//!
//! Two tiers, tried in order:
//!
//! 1. **Structural** — every basic block of every function is summarized
//!    symbolically: instructions build hash-consed symbolic values (with
//!    constant folding, the verified rewrite rules, `shl`-by-constant
//!    canonicalized to multiplication, and associative/commutative chains
//!    flattened and sorted for operators whose properties the table has
//!    *proven*). A block's summary is its ordered list of observable
//!    events (array stores, calls — each capturing the global state the
//!    callee could see), its final variable state, and its normalized
//!    terminator. Equal summaries block-by-block mean the pass only
//!    rewrote expressions along proven equalities. The result may also
//!    drop every block unreachable from the entry and renumber the rest in
//!    order (jump targets compared through the renumbering): a block no
//!    path reaches never executes. This certifies LVN, strength
//!    reduction, DCE with its unreachable-block removal, and
//!    reassociation — including float reassociation, where chain
//!    comparison is by multiset so no claim about rounding is made.
//! 2. **Executor-differential** — when block structure changed (LICM
//!    inserts preheaders, DSE deletes cross-block stores) the modules are
//!    run under the fuel-bounded interpreter of [`crate::exec`] and every
//!    observable outcome is compared: return value, final global state
//!    (floats bit-exact), and dynamic call count.
//!
//! A pass that fails both tiers gets an **error** diagnostic: the
//! optimizer produced a module this validator cannot prove equivalent.
//! Fuel exhaustion yields a *warning* (inconclusive), never a false
//! rejection.

use supersym_rng::HashMap;

use supersym_analyze::consts::eval_int;
use supersym_ir::{
    CmpOp, FloatBinOp, Function, GlobalId, Inst, IntBinOp, Module, Terminator, VarRef,
};
use supersym_isa::Diagnostic;
use supersym_lang::ast::Ty;
use supersym_rules::{Rewrite, RuleTable, SimplifyCtx};

use crate::exec::{execute, ExecError};

/// How a pass was certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertMethod {
    /// Block-by-block symbolic summaries matched.
    Structural,
    /// The fuel-bounded executor observed identical behavior.
    Differential,
}

impl std::fmt::Display for CertMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertMethod::Structural => f.write_str("structural"),
            CertMethod::Differential => f.write_str("differential"),
        }
    }
}

/// The outcome of validating one optimizer pass.
#[derive(Debug, Clone)]
pub struct PassCertificate {
    /// The pass name (as reported by the optimizer, e.g.
    /// `local_value_numbering`).
    pub pass: String,
    /// How equivalence was established; `None` if it was not.
    pub method: Option<CertMethod>,
    /// Errors (refuted equivalence) and warnings (inconclusive).
    pub diagnostics: Vec<Diagnostic>,
}

impl PassCertificate {
    /// True when equivalence was established by either tier.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.method.is_some()
    }
}

/// Fuel for one differential run: generous enough for every workload in
/// the suite, bounded so a pass that breaks a loop bound cannot hang the
/// compiler.
const EXEC_FUEL: u64 = 4_000_000;

/// Validates that `pass` transformed `before` into an equivalent `after`.
///
/// `table` must be the rule table the optimizer itself ran with: the
/// structural tier replays exactly those proven equalities and no others.
#[must_use]
pub fn certify_pass(
    before: &Module,
    after: &Module,
    pass: &str,
    table: &RuleTable,
) -> PassCertificate {
    let structural_reason = match structural_check(before, after, table) {
        Ok(()) => {
            return PassCertificate {
                pass: pass.to_string(),
                method: Some(CertMethod::Structural),
                diagnostics: Vec::new(),
            }
        }
        Err(reason) => reason,
    };
    let mut diagnostics = Vec::new();
    let method = match (execute(before, EXEC_FUEL), execute(after, EXEC_FUEL)) {
        (Ok(x), Ok(y)) => {
            if x.ret == y.ret && x.globals == y.globals && x.calls == y.calls {
                Some(CertMethod::Differential)
            } else {
                let what = if x.ret != y.ret {
                    format!("return value {:?} vs {:?}", x.ret, y.ret)
                } else if x.calls != y.calls {
                    format!("call count {} vs {}", x.calls, y.calls)
                } else {
                    "final global state".to_string()
                };
                diagnostics.push(Diagnostic::error(
                    "certify-diverged",
                    format!(
                        "pass `{pass}` changed observable behavior: {what} \
                         (structural tier: {structural_reason})"
                    ),
                ));
                None
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            diagnostics.push(match e {
                ExecError::OutOfFuel | ExecError::CallDepth => Diagnostic::warning(
                    "certify-inconclusive",
                    format!(
                        "pass `{pass}` not certified: structural tier failed \
                         ({structural_reason}) and the differential run hit a bound ({e})"
                    ),
                ),
                ExecError::Malformed(_) => Diagnostic::error(
                    "certify-malformed",
                    format!("pass `{pass}` produced IR the validator cannot execute: {e}"),
                ),
            });
            None
        }
    };
    PassCertificate {
        pass: pass.to_string(),
        method,
        diagnostics,
    }
}

/// Tier 1: block-by-block symbolic comparison. `Err` carries the reason
/// the tier does not apply (shape change) or the first mismatch.
fn structural_check(before: &Module, after: &Module, table: &RuleTable) -> Result<(), String> {
    if before.globals != after.globals {
        return Err("global tables differ".to_string());
    }
    if before.entry != after.entry || before.funcs.len() != after.funcs.len() {
        return Err("function tables differ".to_string());
    }
    for (bf, af) in before.funcs.iter().zip(&after.funcs) {
        if bf.name != af.name || bf.ret != af.ret {
            return Err(format!("function `{}`: signature differs", bf.name));
        }
        if bf.vars != af.vars {
            return Err(format!("function `{}`: variable tables differ", bf.name));
        }
        // `after` either keeps every block, or keeps exactly the blocks
        // reachable from the entry, in order, renumbered densely. A block
        // no path reaches never executes, so dropping it preserves
        // behavior; anything else (a reachable block dropped, blocks
        // reordered, a jump retargeted) fails a summary comparison below.
        let kept: Vec<usize> = if af.blocks.len() == bf.blocks.len() {
            (0..bf.blocks.len()).collect()
        } else {
            reachable_blocks(bf)
        };
        if kept.len() != af.blocks.len() {
            return Err(format!(
                "function `{}`: block count {} vs {} ({} reachable)",
                bf.name,
                bf.blocks.len(),
                af.blocks.len(),
                kept.len()
            ));
        }
        let mut renumber = vec![usize::MAX; bf.blocks.len()];
        for (new, &old) in kept.iter().enumerate() {
            renumber[old] = new;
        }
        let identity: Vec<usize> = (0..af.blocks.len()).collect();
        for (new, &old) in kept.iter().enumerate() {
            let label = if old == new {
                format!("function `{}` block {old}", bf.name)
            } else {
                format!("function `{}` block {old} (block {new} after)", bf.name)
            };
            let sb =
                summarize_block(bf, old, &renumber, table).map_err(|e| format!("{label}: {e}"))?;
            let sa =
                summarize_block(af, new, &identity, table).map_err(|e| format!("{label}: {e}"))?;
            if sb != sa {
                let detail = sb
                    .iter()
                    .zip(&sa)
                    .find(|(x, y)| x != y)
                    .map(|(x, y)| format!("`{x}` vs `{y}`"))
                    .unwrap_or_else(|| format!("{} vs {} summary lines", sb.len(), sa.len()));
                return Err(format!("{label}: summaries differ: {detail}"));
            }
        }
    }
    Ok(())
}

/// The blocks reachable from the entry over terminator successors, in
/// index order: the blocks an unreachable-block removal keeps.
/// A target past the last block leads nowhere here; the summary of the
/// block that names it reports it.
fn reachable_blocks(func: &Function) -> Vec<usize> {
    let mut reachable = vec![false; func.blocks.len()];
    let mut work = Vec::new();
    if !func.blocks.is_empty() {
        reachable[0] = true;
        work.push(0);
    }
    while let Some(index) = work.pop() {
        for succ in func.blocks[index].term.successors() {
            if reachable.get(succ.index()) == Some(&false) {
                reachable[succ.index()] = true;
                work.push(succ.index());
            }
        }
    }
    (0..func.blocks.len()).filter(|&i| reachable[i]).collect()
}

/// Whether an associative/commutative chain is over integer or float ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainOp {
    Int(IntBinOp),
    Float(FloatBinOp),
}

/// A hash-consed arena of symbolic values. Every value has a canonical
/// print (the interning key); integer constants, binary views (for the
/// rule matcher) and chain membership ride along.
struct Arena<'t> {
    table: &'t RuleTable,
    prints: Vec<String>,
    iconsts: Vec<Option<i64>>,
    fconsts: Vec<Option<u64>>,
    binviews: Vec<Option<(IntBinOp, usize, usize)>>,
    chains: Vec<Option<(ChainOp, Vec<usize>)>>,
    intern: HashMap<String, usize>,
}

impl SimplifyCtx for Arena<'_> {
    fn const_of(&self, vn: usize) -> Option<i64> {
        self.iconsts[vn]
    }

    fn expr_of(&self, vn: usize) -> Option<(IntBinOp, usize, usize)> {
        self.binviews[vn]
    }
}

impl<'t> Arena<'t> {
    fn new(table: &'t RuleTable) -> Self {
        Arena {
            table,
            prints: Vec::new(),
            iconsts: Vec::new(),
            fconsts: Vec::new(),
            binviews: Vec::new(),
            chains: Vec::new(),
            intern: HashMap::default(),
        }
    }

    fn intern(
        &mut self,
        print: String,
        iconst: Option<i64>,
        fconst: Option<u64>,
        binview: Option<(IntBinOp, usize, usize)>,
        chain: Option<(ChainOp, Vec<usize>)>,
    ) -> usize {
        if let Some(&sym) = self.intern.get(&print) {
            // First creation wins; re-derivations keep the original views.
            return sym;
        }
        let sym = self.prints.len();
        self.prints.push(print.clone());
        self.iconsts.push(iconst);
        self.fconsts.push(fconst);
        self.binviews.push(binview);
        self.chains.push(chain);
        self.intern.insert(print, sym);
        sym
    }

    fn int_const(&mut self, value: i64) -> usize {
        self.intern(value.to_string(), Some(value), None, None, None)
    }

    fn float_const(&mut self, bits: u64) -> usize {
        self.intern(format!("f{bits:016x}"), None, Some(bits), None, None)
    }

    fn leaf(&mut self, name: String) -> usize {
        self.intern(name, None, None, None, None)
    }

    fn members_of(&self, op: ChainOp, sym: usize) -> Vec<usize> {
        match &self.chains[sym] {
            Some((chain_op, members)) if *chain_op == op => members.clone(),
            _ => vec![sym],
        }
    }

    /// Builds the symbolic value of an integer binary operation, applying
    /// (in the optimizer's order) constant folding, the verified rewrite
    /// rules, the `x / 1` residual, `shl`-by-constant canonicalization,
    /// and — for operators with proven commutativity *and* associativity —
    /// chain flattening with exact constant combination and a sorted
    /// canonical member order.
    fn build_int(&mut self, op: IntBinOp, a: usize, b: usize) -> usize {
        let (a, b) = if op.is_commutative() && self.prints[b] < self.prints[a] {
            (b, a)
        } else {
            (a, b)
        };
        if let (Some(x), Some(y)) = (self.iconsts[a], self.iconsts[b]) {
            return self.int_const(eval_int(op, x, y));
        }
        let table = self.table;
        if let Some(rewrite) = supersym_rules::simplify(table, op, a, b, self) {
            return match rewrite {
                Rewrite::Operand(sym) => sym,
                Rewrite::Const(value) => self.int_const(value),
            };
        }
        // The optimizer's sole hand-written residual: x / 1 == x.
        if op == IntBinOp::Div && self.iconsts[b] == Some(1) {
            return a;
        }
        // Canonicalize shl-by-constant to multiplication (exact mod 2^64;
        // shift counts are taken mod 64 like the simulator does). This is
        // what lets strength reduction certify structurally.
        if op == IntBinOp::Shl {
            if let Some(k) = self.iconsts[b] {
                let multiplier = 1_i64.wrapping_shl(k as u32 & 63);
                let m = self.int_const(multiplier);
                return self.build_int(IntBinOp::Mul, a, m);
            }
        }
        if table.chainable(op) {
            let mut members = Vec::new();
            for side in [a, b] {
                members.extend(self.members_of(ChainOp::Int(op), side));
            }
            // Combine constant members exactly (order-independent for the
            // wrapping integer semantics of a proven comm+assoc operator).
            let mut folded: Option<i64> = None;
            members.retain(|&m| match self.iconsts[m] {
                Some(v) => {
                    folded = Some(match folded {
                        Some(acc) => eval_int(op, acc, v),
                        None => v,
                    });
                    false
                }
                None => true,
            });
            if let Some(value) = folded {
                let c = self.int_const(value);
                members.push(c);
            }
            members.sort_by(|&x, &y| self.prints[x].cmp(&self.prints[y]));
            if members.len() == 1 {
                return members[0];
            }
            let print = format!("({op:?}* {})", self.join(&members));
            return self.intern(
                print,
                None,
                None,
                Some((op, a, b)),
                Some((ChainOp::Int(op), members)),
            );
        }
        let print = format!("({op:?} {} {})", self.prints[a], self.prints[b]);
        self.intern(print, None, None, Some((op, a, b)), None)
    }

    /// Float binary operations: exact pairwise constant folding (mirrors
    /// the optimizer), and chains for `+`/`*` **by policy** — the same
    /// reassociation license the optimizer claims. Constants inside a
    /// mixed chain are combined in bit-pattern-sorted order so both sides
    /// of a comparison fold identically.
    fn build_float(&mut self, op: FloatBinOp, a: usize, b: usize) -> usize {
        let (a, b) = if op.is_commutative() && self.prints[b] < self.prints[a] {
            (b, a)
        } else {
            (a, b)
        };
        let apply = |x: f64, y: f64| match op {
            FloatBinOp::Add => x + y,
            FloatBinOp::Sub => x - y,
            FloatBinOp::Mul => x * y,
            FloatBinOp::Div => x / y,
        };
        if let (Some(x), Some(y)) = (self.fconsts[a], self.fconsts[b]) {
            let value = apply(f64::from_bits(x), f64::from_bits(y));
            return self.float_const(value.to_bits());
        }
        if matches!(op, FloatBinOp::Add | FloatBinOp::Mul) {
            let mut members = Vec::new();
            for side in [a, b] {
                members.extend(self.members_of(ChainOp::Float(op), side));
            }
            let mut const_bits: Vec<u64> = Vec::new();
            members.retain(|&m| match self.fconsts[m] {
                Some(bits) => {
                    const_bits.push(bits);
                    false
                }
                None => true,
            });
            if !const_bits.is_empty() {
                const_bits.sort_unstable();
                let folded = const_bits
                    .iter()
                    .map(|&bits| f64::from_bits(bits))
                    .reduce(apply)
                    .expect("non-empty");
                let c = self.float_const(folded.to_bits());
                members.push(c);
            }
            members.sort_by(|&x, &y| self.prints[x].cmp(&self.prints[y]));
            if members.len() == 1 {
                return members[0];
            }
            let print = format!("(f{op:?}* {})", self.join(&members));
            return self.intern(print, None, None, None, Some((ChainOp::Float(op), members)));
        }
        let print = format!("(f{op:?} {} {})", self.prints[a], self.prints[b]);
        self.intern(print, None, None, None, None)
    }

    fn build_float_cmp(&mut self, op: CmpOp, a: usize, b: usize) -> usize {
        if let (Some(x), Some(y)) = (self.fconsts[a], self.fconsts[b]) {
            let (x, y) = (f64::from_bits(x), f64::from_bits(y));
            let value = i64::from(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            });
            return self.int_const(value);
        }
        let print = format!("(fcmp{op:?} {} {})", self.prints[a], self.prints[b]);
        self.intern(print, None, None, None, None)
    }

    fn build_cast(&mut self, to_float: bool, src: usize) -> usize {
        if to_float {
            if let Some(v) = self.iconsts[src] {
                return self.float_const((v as f64).to_bits());
            }
        } else if let Some(bits) = self.fconsts[src] {
            return self.int_const(f64::from_bits(bits) as i64);
        }
        let tag = if to_float { "float" } else { "int" };
        let print = format!("(cast.{tag} {})", self.prints[src]);
        self.intern(print, None, None, None, None)
    }

    fn join(&self, syms: &[usize]) -> String {
        syms.iter()
            .map(|&s| self.prints[s].as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Summarizes one basic block as a list of canonical lines: observable
/// events in order, final variable state, normalized terminator. Jump and
/// branch targets print through `targets` (old block index to new).
fn summarize_block(
    func: &Function,
    index: usize,
    targets: &[usize],
    table: &RuleTable,
) -> Result<Vec<String>, String> {
    let block = &func.blocks[index];
    let mut arena = Arena::new(table);
    let mut vreg: Vec<Option<usize>> = vec![None; func.vreg_tys.len()];
    let mut vars: HashMap<VarRef, usize> = HashMap::default();
    // Per-array known element values (the optimizer's store-to-load map).
    let mut elems: HashMap<GlobalId, Vec<(usize, usize)>> = HashMap::default();
    // Per-array clobber counters: bumped by stores to the array; calls
    // clobber everything, so the call counter joins every leaf name.
    let mut writes: HashMap<GlobalId, u64> = HashMap::default();
    let mut calls: u64 = 0;
    let mut events: Vec<String> = Vec::new();

    let init_name = |var: VarRef, calls: u64| match var {
        VarRef::Local(l) => format!("l{}", l.0),
        VarRef::Global(g) => format!("g{}@{}", g.0, calls),
    };
    let sym_of = |vreg: &[Option<usize>], r: supersym_ir::VReg| -> Result<usize, String> {
        vreg.get(r.0 as usize)
            .copied()
            .flatten()
            .ok_or_else(|| format!("use of undefined vreg %{}", r.0))
    };

    for inst in &block.insts {
        match inst {
            Inst::ConstInt { dst, value } => {
                vreg[dst.0 as usize] = Some(arena.int_const(*value));
            }
            Inst::ConstFloat { dst, value } => {
                vreg[dst.0 as usize] = Some(arena.float_const(value.to_bits()));
            }
            Inst::IntBin { op, dst, lhs, rhs } => {
                let a = sym_of(&vreg, *lhs)?;
                let b = sym_of(&vreg, *rhs)?;
                vreg[dst.0 as usize] = Some(arena.build_int(*op, a, b));
            }
            Inst::FloatBin { op, dst, lhs, rhs } => {
                let a = sym_of(&vreg, *lhs)?;
                let b = sym_of(&vreg, *rhs)?;
                vreg[dst.0 as usize] = Some(arena.build_float(*op, a, b));
            }
            Inst::FloatCmp { op, dst, lhs, rhs } => {
                let a = sym_of(&vreg, *lhs)?;
                let b = sym_of(&vreg, *rhs)?;
                vreg[dst.0 as usize] = Some(arena.build_float_cmp(*op, a, b));
            }
            Inst::Cast { dst, src, to } => {
                let s = sym_of(&vreg, *src)?;
                vreg[dst.0 as usize] = Some(arena.build_cast(*to == Ty::Float, s));
            }
            Inst::ReadVar { dst, var } => {
                let sym = match vars.get(var) {
                    Some(&sym) => sym,
                    None => {
                        let sym = arena.leaf(init_name(*var, calls));
                        vars.insert(*var, sym);
                        sym
                    }
                };
                vreg[dst.0 as usize] = Some(sym);
            }
            Inst::WriteVar { var, src } => {
                let sym = sym_of(&vreg, *src)?;
                vars.insert(*var, sym);
            }
            Inst::ReadElem {
                dst, arr, index, ..
            } => {
                let idx = sym_of(&vreg, *index)?;
                let known = elems
                    .get(arr)
                    .and_then(|known| known.iter().find(|(i, _)| *i == idx))
                    .map(|&(_, value)| value);
                let sym = match known {
                    Some(value) => value,
                    None => {
                        let epoch = writes.get(arr).copied().unwrap_or(0);
                        let name = format!("e{}@{}c{}[{}]", arr.0, epoch, calls, arena.prints[idx]);
                        let sym = arena.leaf(name);
                        elems.entry(*arr).or_default().push((idx, sym));
                        sym
                    }
                };
                vreg[dst.0 as usize] = Some(sym);
            }
            Inst::WriteElem {
                arr, index, src, ..
            } => {
                let idx = sym_of(&vreg, *index)?;
                let value = sym_of(&vreg, *src)?;
                events.push(format!(
                    "store e{}[{}] = {}",
                    arr.0, arena.prints[idx], arena.prints[value]
                ));
                // A store invalidates everything known about the array
                // except the stored element.
                elems.insert(*arr, vec![(idx, value)]);
                *writes.entry(*arr).or_default() += 1;
            }
            Inst::Call { dst, callee, args } => {
                let mut arg_prints = Vec::with_capacity(args.len());
                for arg in args {
                    let sym = sym_of(&vreg, *arg)?;
                    arg_prints.push(arena.prints[sym].clone());
                }
                // Snapshot the global variable state the callee can see;
                // entries still holding their initial value are implicit.
                let mut globals: Vec<String> = vars
                    .iter()
                    .filter_map(|(&var, &sym)| match var {
                        VarRef::Global(g) => {
                            if arena.prints[sym] == init_name(var, calls) {
                                None
                            } else {
                                Some(format!("g{}={}", g.0, arena.prints[sym]))
                            }
                        }
                        VarRef::Local(_) => None,
                    })
                    .collect();
                globals.sort();
                events.push(format!(
                    "call f{} ({}) [{}]",
                    callee,
                    arg_prints.join(" "),
                    globals.join(" ")
                ));
                // The callee may read or write any global or array element.
                vars.retain(|var, _| matches!(var, VarRef::Local(_)));
                elems.clear();
                calls += 1;
                if let Some(dst) = dst {
                    let sym = arena.leaf(format!("ret{calls}"));
                    vreg[dst.0 as usize] = Some(sym);
                }
            }
        }
    }

    let mut lines = events;
    let mut var_lines: Vec<String> = vars
        .iter()
        .filter(|(&var, &sym)| arena.prints[sym] != init_name(var, calls))
        .map(|(&var, &sym)| {
            let name = match var {
                VarRef::Local(l) => format!("l{}", l.0),
                VarRef::Global(g) => format!("g{}", g.0),
            };
            format!("var {name} = {}", arena.prints[sym])
        })
        .collect();
    var_lines.sort();
    lines.extend(var_lines);
    let target = |bb: &supersym_ir::BlockId| {
        targets
            .get(bb.index())
            .copied()
            .ok_or_else(|| format!("jump to missing block {}", bb.index()))
    };
    lines.push(match &block.term {
        Terminator::Jump(bb) => format!("jump b{}", target(bb)?),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            let sym = sym_of(&vreg, *cond)?;
            match arena.iconsts[sym] {
                // Mirror the optimizer's branch folding.
                Some(value) => format!(
                    "jump b{}",
                    target(if value != 0 { then_bb } else { else_bb })?
                ),
                None => format!(
                    "branch {} b{} b{}",
                    arena.prints[sym],
                    target(then_bb)?,
                    target(else_bb)?
                ),
            }
        }
        Terminator::Return(Some(v)) => format!("return {}", arena.prints[sym_of(&vreg, *v)?]),
        Terminator::Return(None) => "return".to_string(),
    });
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_rules::default_table;

    fn module(src: &str) -> Module {
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        supersym_ir::lower(&ast).unwrap()
    }

    fn certified(src: &str, pass: &str, run: impl FnOnce(&mut Module) -> bool) -> PassCertificate {
        let before = module(src);
        let mut after = before.clone();
        assert!(run(&mut after), "pass must change the module");
        after.validate().unwrap();
        certify_pass(&before, &after, pass, default_table())
    }

    #[test]
    fn lvn_certifies_structurally() {
        let cert = certified(
            "global var g;
             fn main() -> int {
                 var a = g * 3 + 1;
                 var b = g * 3 + 1;
                 return (a + b) * 1 + (a - a);
             }",
            "local_value_numbering",
            supersym_opt::local_value_numbering,
        );
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn branch_folding_certifies_structurally() {
        let cert = certified(
            "fn main() -> int { if (1) { return 5; } return 6; }",
            "local_value_numbering",
            supersym_opt::local_value_numbering,
        );
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn strength_reduction_certifies_structurally() {
        let src = "global var g; fn main() -> int { return g * 8 + g * 3; }";
        let before = module(src);
        let mut after = before.clone();
        supersym_opt::local_value_numbering(&mut after);
        let lvn = after.clone();
        assert!(supersym_opt::strength_reduce(&mut after));
        let cert = certify_pass(&lvn, &after, "strength_reduce", default_table());
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn dce_unreachable_block_removal_certifies_structurally() {
        // Lowering leaves a trailing unreachable block; DCE's first run
        // deletes it, and the kept blocks compare one for one.
        let src = "fn main(int x) -> int { var dead = x * 7; return x + 1; }";
        let before = module(src);
        let mut after = before.clone();
        supersym_opt::local_value_numbering(&mut after);
        let lvn = after.clone();
        assert!(supersym_opt::dead_code_elimination(&mut after));
        let cert = certify_pass(&lvn, &after, "dead_code_elimination", default_table());
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn removing_a_middle_block_certifies_through_the_renumbering() {
        // Branch folding leaves the `then` arm unreachable before the live
        // join and `else` blocks, so both move down one index.
        let src = "fn main(int x) -> int {
                       var y = 0;
                       if (0) { y = x + 2; } else { y = x * 3; }
                       return y;
                   }";
        let mut before = module(src);
        supersym_opt::local_value_numbering(&mut before);
        let mut after = before.clone();
        assert!(supersym_opt::dead_code_elimination(&mut after));
        let dropped = before.funcs[0].blocks.len() - after.funcs[0].blocks.len();
        assert_eq!(dropped, 2, "the `then` arm and the trailing block");
        assert_ne!(
            reachable_blocks(&before.funcs[0]),
            (0..after.funcs[0].blocks.len()).collect::<Vec<_>>(),
            "a block past the dropped one must move"
        );
        let cert = certify_pass(&before, &after, "dead_code_elimination", default_table());
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    /// Rewrites every jump and branch target of `func` through `map`.
    fn retarget(func: &mut Function, map: impl Fn(usize) -> usize) {
        let to = |bb: &mut supersym_ir::BlockId| *bb = supersym_ir::BlockId(map(bb.index()) as u32);
        for block in &mut func.blocks {
            match &mut block.term {
                Terminator::Jump(bb) => to(bb),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    to(then_bb);
                    to(else_bb);
                }
                Terminator::Return(_) => {}
            }
        }
    }

    /// Removes block `index`, sending its predecessors to `redirect` (an
    /// index before the removal) and moving later blocks down one.
    fn drop_block(func: &mut Function, index: usize, redirect: usize) {
        func.blocks.remove(index);
        let shift = |b: usize| if b > index { b - 1 } else { b };
        retarget(func, |b| shift(if b == index { redirect } else { b }));
    }

    #[test]
    fn wrong_block_removals_do_not_certify_structurally() {
        // bb0 branches on g > 0 to bb1 (then) or bb3 (else), both jump to
        // the return in bb2, and bb4 is unreachable. g = -3 takes the
        // `else` arm: the program writes out = 4 and returns 5.
        let before = module(
            "global var g = -3;
             global var out;
             fn main() -> int {
                 if (g > 0) { out = g * 2; } else { out = g + 7; }
                 return out + 1;
             }",
        );
        let mut compacted = before.clone();
        assert!(supersym_opt::dead_code_elimination(&mut compacted));
        assert_eq!(compacted.funcs[0].blocks.len(), 4);
        let cert = certify_pass(
            &before,
            &compacted,
            "dead_code_elimination",
            default_table(),
        );
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");

        type Mutation = fn(&mut Function);
        let cases: [(&str, Mutation, bool); 4] = [
            // The taken `else` arm goes, and the branch falls to bb2.
            ("drop a reachable block", |f| drop_block(f, 3, 2), true),
            // Same block count, but bb3 now runs into bb1 before bb2.
            (
                "jump to the wrong renumbered block",
                |f| f.blocks[3].term = Terminator::Jump(supersym_ir::BlockId(1)),
                true,
            ),
            // bb1 and bb3 trade places and every jump follows them: the
            // program is unchanged, only the block order is not.
            (
                "swap two kept blocks",
                |f| {
                    f.blocks.swap(1, 3);
                    retarget(f, |b| match b {
                        1 => 3,
                        3 => 1,
                        b => b,
                    });
                },
                false,
            ),
            // The `then` arm becomes the entry.
            ("drop block 0", |f| drop_block(f, 0, 1), true),
        ];
        for (name, mutate, changes_behavior) in cases {
            let mut after = compacted.clone();
            mutate(&mut after.funcs[0]);
            after.validate().unwrap();
            let cert = certify_pass(&before, &after, "dead_code_elimination", default_table());
            assert_ne!(
                cert.method,
                Some(CertMethod::Structural),
                "{name}: {cert:?}"
            );
            if changes_behavior {
                assert!(!cert.is_certified(), "{name}: {cert:?}");
                assert_eq!(cert.diagnostics[0].code(), "certify-diverged", "{name}");
            } else {
                assert_eq!(
                    cert.method,
                    Some(CertMethod::Differential),
                    "{name}: {cert:?}"
                );
            }
        }
    }

    #[test]
    fn dce_pure_inst_removal_certifies_structurally() {
        // With the CFG already clean, a later DCE run only drops pure
        // instructions whose results went unused after LVN collapsed
        // `(x + y) - y` to `x` — block summaries are untouched.
        let src = "fn main(int x, int y) -> int { return (x + y) - y; }";
        let mut before = module(src);
        supersym_opt::dead_code_elimination(&mut before);
        supersym_opt::local_value_numbering(&mut before);
        let mut after = before.clone();
        assert!(supersym_opt::dead_code_elimination(&mut after));
        assert_eq!(before.funcs[0].blocks.len(), after.funcs[0].blocks.len());
        let cert = certify_pass(&before, &after, "dead_code_elimination", default_table());
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn float_reassociation_certifies_structurally() {
        let cert = certified(
            "fn main(float a, float b, float c, float d) -> float {
                 return a + b + c + d;
             }",
            "reassociate",
            supersym_opt::reassociate,
        );
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn int_reassociation_certifies_structurally() {
        let cert = certified(
            "fn main(int a, int b, int c, int d, int e) -> int {
                 return a ^ b ^ c ^ d ^ e;
             }",
            "reassociate",
            supersym_opt::reassociate,
        );
        assert_eq!(cert.method, Some(CertMethod::Structural), "{cert:?}");
    }

    #[test]
    fn licm_certifies_differentially() {
        let cert = certified(
            "global var g;
             global arr out[16];
             fn main() -> int {
                 for (i = 0; i < 16; i = i + 1) { out[i] = g * 3 + i; }
                 return out[7];
             }",
            "loop_invariant_code_motion",
            supersym_opt::loop_invariant_code_motion,
        );
        assert_eq!(cert.method, Some(CertMethod::Differential), "{cert:?}");
    }

    #[test]
    fn dse_certifies_differentially() {
        let cert = certified(
            "fn main(int x) -> int {
                 var dead = 0;
                 if (x > 0) { dead = x * 3; }
                 return x + 1;
             }",
            "dead_store_elimination",
            supersym_opt::dead_store_elimination,
        );
        assert_eq!(cert.method, Some(CertMethod::Differential), "{cert:?}");
    }

    #[test]
    fn tampered_constant_is_rejected() {
        let before = module("global var g; fn main() -> int { g = 40 + 2; return g; }");
        let mut after = before.clone();
        supersym_opt::local_value_numbering(&mut after);
        // Corrupt the folded constant: a miscompile the validator must catch.
        for block in &mut after.funcs[0].blocks {
            for inst in &mut block.insts {
                if let Inst::ConstInt { value, .. } = inst {
                    *value += 1;
                }
            }
        }
        let cert = certify_pass(&before, &after, "local_value_numbering", default_table());
        assert!(!cert.is_certified());
        assert_eq!(cert.diagnostics.len(), 1);
        assert_eq!(cert.diagnostics[0].code(), "certify-diverged");
    }

    #[test]
    fn tampered_store_order_is_rejected() {
        let before = module(
            "global arr a[4];
             fn main() -> int { a[0] = 1; a[1] = 2; return a[0] + a[1]; }",
        );
        let mut after = before.clone();
        // Swap the two stores' indices: same instructions, different meaning.
        let mut indices = Vec::new();
        for inst in &after.funcs[0].blocks[0].insts {
            if let Inst::WriteElem { src, .. } = inst {
                indices.push(*src);
            }
        }
        indices.reverse();
        let mut next = 0;
        for inst in &mut after.funcs[0].blocks[0].insts {
            if let Inst::WriteElem { src, .. } = inst {
                *src = indices[next];
                next += 1;
            }
        }
        let cert = certify_pass(&before, &after, "dead_store_elimination", default_table());
        assert!(!cert.is_certified(), "{cert:?}");
    }

    #[test]
    fn identical_modules_certify_trivially() {
        let m = module("fn main() -> int { return 1 + 2; }");
        let cert = certify_pass(&m, &m, "noop", default_table());
        assert_eq!(cert.method, Some(CertMethod::Structural));
    }
}
