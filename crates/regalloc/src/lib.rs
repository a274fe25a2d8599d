//! # supersym-regalloc
//!
//! Register allocation for the supersym compiler, in the paper's two-part
//! style (§3): the register file is split into **expression temporaries**
//! (assigned to block-local vregs by the code generator, drawing from
//! [`TempPool`]s) and **home locations** for variables (this crate's
//! [`allocate`], the paper's *global register allocation* in the style of
//! Wall's intermodule allocator \[16\]).
//!
//! Home allocation is usage-driven: every global scalar and every local of a
//! function not involved in recursion is a candidate; candidates are ranked
//! by loop-depth-weighted static reference counts, and the top candidates
//! get dedicated registers (one each — registers are never shared between
//! variables, which is what makes the allocation safe interprocedurally).
//! Everything else lives in memory: global scalars and arrays in the global
//! data region, locals in the function's frame.
//!
//! ## Example
//!
//! ```
//! use supersym_machine::RegisterSplit;
//!
//! let ast = supersym_lang::parse(
//!     "global var g; fn main() -> int { g = g + 1; return g; }",
//! )?;
//! supersym_lang::check(&ast)?;
//! let ir = supersym_ir::lower(&ast)?;
//! let homes = supersym_regalloc::allocate(&ir, RegisterSplit::paper_default(), true);
//! // The hot global got a register:
//! assert!(matches!(
//!     homes.global_home(supersym_ir::GlobalId(0)),
//!     supersym_regalloc::Home::IntReg(_)
//! ));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use supersym_ir::{natural_loops, GlobalId, GlobalKind, Inst, LocalId, Module, VarRef};
use supersym_isa::{FpReg, IntReg, NUM_FP_REGS, NUM_INT_REGS};
use supersym_lang::ast::Ty;
use supersym_machine::RegisterSplit;
use supersym_rng::{HashMap, HashSet};

/// Number of integer/FP registers reserved for argument passing (`r1..r8`
/// and `f1..f8`; `r1`/`f1` also carry return values).
pub const NUM_ARG_REGS: usize = 8;

/// Integer registers available as temporaries or homes, in allocation
/// order: `r9..r28`, then `r32..r63` (skipping zero, args, sp, gp, at).
#[must_use]
pub fn usable_int_regs() -> Vec<IntReg> {
    let mut regs = Vec::new();
    for index in 9..29 {
        regs.push(IntReg::new_unchecked(index));
    }
    for index in 32..NUM_INT_REGS as u8 {
        regs.push(IntReg::new_unchecked(index));
    }
    regs
}

/// FP registers available as temporaries or homes: `f0`, then `f9..f63`
/// (skipping args `f1..f8`).
#[must_use]
pub fn usable_fp_regs() -> Vec<FpReg> {
    let mut regs = vec![FpReg::new_unchecked(0)];
    for index in 9..NUM_FP_REGS as u8 {
        regs.push(FpReg::new_unchecked(index));
    }
    regs
}

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// A dedicated integer register.
    IntReg(IntReg),
    /// A dedicated FP register.
    FpReg(FpReg),
    /// A word in the global data region (absolute address).
    GlobalMem(usize),
    /// A slot in the owning function's frame (sp-relative word).
    Frame(usize),
}

/// A pool of temporary registers handed to the code generator.
///
/// Allocation is **round-robin** (FIFO): a just-released register goes to
/// the back of the queue, so consecutive values land in different
/// registers and the reuse distance approaches the pool size. This is what
/// makes the *number* of temporaries matter, exactly as in the paper:
/// "using the same temporary register for two different values in the same
/// basic block introduces an artificial dependency that can interfere with
/// pipeline scheduling" (§3) — a larger pool means fewer such reuses. When
/// the pool runs dry the code generator must spill (§4.4).
#[derive(Debug, Clone)]
pub struct TempPool<R: Copy + Eq> {
    free: std::collections::VecDeque<R>,
    all: Vec<R>,
}

impl<R: Copy + Eq + std::fmt::Debug> TempPool<R> {
    /// Creates a pool over the given registers.
    #[must_use]
    pub fn new(regs: Vec<R>) -> Self {
        TempPool {
            free: regs.iter().copied().collect(),
            all: regs,
        }
    }

    /// Takes a register, or `None` when the pool is dry.
    pub fn alloc(&mut self) -> Option<R> {
        self.free.pop_front()
    }

    /// Returns a register to the back of the pool.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not part of this pool or is already free
    /// (double free).
    pub fn release(&mut self, reg: R) {
        assert!(self.all.contains(&reg), "release of foreign register");
        assert!(!self.free.contains(&reg), "double release of {reg:?}");
        self.free.push_back(reg);
    }

    /// Resets the pool to fully free (used at scheduling-region boundaries).
    pub fn reset(&mut self) {
        self.free = self.all.iter().copied().collect();
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.all.len()
    }

    /// Currently free count.
    #[must_use]
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

/// The result of home allocation.
#[derive(Debug, Clone)]
pub struct HomeAllocation {
    global_homes: Vec<Home>,
    local_homes: Vec<Vec<Home>>,
    frame_words: Vec<usize>,
    globals_words: usize,
    int_temps: Vec<IntReg>,
    fp_temps: Vec<FpReg>,
}

impl HomeAllocation {
    /// Home of a global (arrays report their base address).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the allocated module.
    #[must_use]
    pub fn global_home(&self, id: GlobalId) -> Home {
        self.global_homes[id.0 as usize]
    }

    /// Home of a local of function `func_index`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn local_home(&self, func_index: usize, id: LocalId) -> Home {
        self.local_homes[func_index][id.0 as usize]
    }

    /// Home of any variable reference in the context of `func_index`.
    #[must_use]
    pub fn home(&self, func_index: usize, var: VarRef) -> Home {
        match var {
            VarRef::Global(g) => self.global_home(g),
            VarRef::Local(l) => self.local_home(func_index, l),
        }
    }

    /// Words of frame (memory-resident locals) for function `func_index`;
    /// the code generator appends spill slots after these.
    #[must_use]
    pub fn frame_words(&self, func_index: usize) -> usize {
        self.frame_words[func_index]
    }

    /// Size of the global data region in words.
    #[must_use]
    pub fn globals_words(&self) -> usize {
        self.globals_words
    }

    /// Integer temporaries available to the code generator.
    #[must_use]
    pub fn int_temps(&self) -> &[IntReg] {
        &self.int_temps
    }

    /// FP temporaries available to the code generator.
    #[must_use]
    pub fn fp_temps(&self) -> &[FpReg] {
        &self.fp_temps
    }

    /// All home registers in use (needed by the code generator to know what
    /// a call preserves).
    #[must_use]
    pub fn home_registers(&self) -> (Vec<IntReg>, Vec<FpReg>) {
        let mut ints = Vec::new();
        let mut fps = Vec::new();
        let all = self
            .global_homes
            .iter()
            .chain(self.local_homes.iter().flatten());
        for home in all {
            match home {
                Home::IntReg(r) => ints.push(*r),
                Home::FpReg(r) => fps.push(*r),
                _ => {}
            }
        }
        ints.sort_unstable();
        ints.dedup();
        fps.sort_unstable();
        fps.dedup();
        (ints, fps)
    }
}

/// One candidate for a home register.
#[derive(Debug)]
struct Candidate {
    var: CandidateVar,
    ty: Ty,
    score: f64,
}

#[derive(Debug, Clone, Copy)]
enum CandidateVar {
    Global(GlobalId),
    Local { func: usize, id: LocalId },
}

/// Computes home locations for every variable in the module.
///
/// With `promote` false (optimization levels below the paper's "global
/// register allocation"), every variable lives in memory and the *entire*
/// usable register budget (`temps + globals` of `split`) is handed to the
/// temporaries pool — matching the paper's description of the two disjoint
/// parts.
#[must_use]
pub fn allocate(module: &Module, split: RegisterSplit, promote: bool) -> HomeAllocation {
    // Global data layout: every global gets an address (promoted scalars
    // keep theirs unused, so data initialization stays uniform).
    let mut globals_words = 0_usize;
    let mut global_addrs = Vec::with_capacity(module.globals.len());
    for global in &module.globals {
        global_addrs.push(globals_words);
        globals_words += match global.kind {
            GlobalKind::Scalar { .. } => 1,
            GlobalKind::Array { len } => len,
        };
    }

    let usable_int = usable_int_regs();
    let usable_fp = usable_fp_regs();
    let n_int_temps = (split.int_temps as usize).min(usable_int.len());
    let n_fp_temps = (split.fp_temps as usize).min(usable_fp.len());
    let (int_temps, int_home_regs) = usable_int.split_at(n_int_temps);
    let (fp_temps, fp_home_regs) = usable_fp.split_at(n_fp_temps);
    let n_int_homes = (split.int_globals as usize).min(int_home_regs.len());
    let n_fp_homes = (split.fp_globals as usize).min(fp_home_regs.len());

    let (mut int_temps, mut fp_temps) = (int_temps.to_vec(), fp_temps.to_vec());
    let (int_home_regs, fp_home_regs) = if promote {
        (
            int_home_regs[..n_int_homes].to_vec(),
            fp_home_regs[..n_fp_homes].to_vec(),
        )
    } else {
        // Without global register allocation, hand the whole budget to the
        // temporaries (the paper's levels 0-3 still schedule expressions).
        int_temps.extend_from_slice(&int_home_regs[..n_int_homes]);
        fp_temps.extend_from_slice(&fp_home_regs[..n_fp_homes]);
        (Vec::new(), Vec::new())
    };

    // Candidate scoring.
    let recursive = recursive_functions(module);
    let mut scores: HashMap<u64, f64> = HashMap::default();
    for (func_index, func) in module.funcs.iter().enumerate() {
        let depth = block_loop_depths(func);
        for (block_index, block) in func.blocks.iter().enumerate() {
            let weight = 10_f64.powi(depth[block_index].min(4) as i32);
            for inst in &block.insts {
                let var = match inst {
                    Inst::ReadVar { var, .. } | Inst::WriteVar { var, .. } => Some(*var),
                    _ => None,
                };
                if let Some(var) = var {
                    *scores.entry(candidate_key(func_index, var)).or_insert(0.0) += weight;
                }
            }
        }
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for (index, global) in module.globals.iter().enumerate() {
        if let GlobalKind::Scalar { .. } = global.kind {
            let id = GlobalId(index as u32);
            let score = *scores
                .get(&candidate_key(usize::MAX, VarRef::Global(id)))
                .unwrap_or(&0.0);
            if score > 0.0 {
                candidates.push(Candidate {
                    var: CandidateVar::Global(id),
                    ty: global.ty,
                    score,
                });
            }
        }
    }
    for (func_index, func) in module.funcs.iter().enumerate() {
        if recursive.contains(&func_index) {
            continue; // re-entrant frames cannot share a fixed register
        }
        for (local_index, var) in func.vars.iter().enumerate() {
            let id = LocalId(local_index as u32);
            let score = *scores
                .get(&candidate_key(func_index, VarRef::Local(id)))
                .unwrap_or(&0.0);
            if score > 0.0 {
                candidates.push(Candidate {
                    var: CandidateVar::Local {
                        func: func_index,
                        id,
                    },
                    ty: var.ty,
                    score,
                });
            }
        }
    }
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));

    // Assign registers to the best candidates.
    let mut int_iter = int_home_regs.into_iter();
    let mut fp_iter = fp_home_regs.into_iter();
    let mut global_reg: HashMap<u32, Home> = HashMap::default();
    let mut local_reg: HashMap<(usize, u32), Home> = HashMap::default();
    for candidate in candidates {
        let home = match candidate.ty {
            Ty::Int => int_iter.next().map(Home::IntReg),
            Ty::Float => fp_iter.next().map(Home::FpReg),
        };
        let Some(home) = home else { continue };
        match candidate.var {
            CandidateVar::Global(g) => {
                global_reg.insert(g.0, home);
            }
            CandidateVar::Local { func, id } => {
                local_reg.insert((func, id.0), home);
            }
        }
    }

    // Materialize homes.
    let global_homes: Vec<Home> = module
        .globals
        .iter()
        .enumerate()
        .map(|(index, global)| match global.kind {
            GlobalKind::Scalar { .. } => global_reg
                .get(&(index as u32))
                .copied()
                .unwrap_or(Home::GlobalMem(global_addrs[index])),
            GlobalKind::Array { .. } => Home::GlobalMem(global_addrs[index]),
        })
        .collect();
    let mut local_homes = Vec::with_capacity(module.funcs.len());
    let mut frame_words = Vec::with_capacity(module.funcs.len());
    for (func_index, func) in module.funcs.iter().enumerate() {
        let mut homes = Vec::with_capacity(func.vars.len());
        let mut next_slot = 0_usize;
        for (local_index, _) in func.vars.iter().enumerate() {
            if let Some(&home) = local_reg.get(&(func_index, local_index as u32)) {
                homes.push(home);
            } else {
                homes.push(Home::Frame(next_slot));
                next_slot += 1;
            }
        }
        local_homes.push(homes);
        frame_words.push(next_slot);
    }

    HomeAllocation {
        global_homes,
        local_homes,
        frame_words,
        globals_words,
        int_temps,
        fp_temps,
    }
}

fn candidate_key(func_index: usize, var: VarRef) -> u64 {
    match var {
        VarRef::Global(g) => u64::from(g.0),
        VarRef::Local(l) => ((func_index as u64 + 1) << 32) | u64::from(l.0),
    }
}

/// Loop-nesting depth of each block.
fn block_loop_depths(func: &supersym_ir::Function) -> Vec<u32> {
    let mut depth = vec![0_u32; func.blocks.len()];
    for l in natural_loops(func) {
        for block in &l.body {
            depth[block.index()] += 1;
        }
    }
    depth
}

/// Indices of functions that can be live twice on the call stack (members of
/// call-graph cycles, including self-recursion).
#[must_use]
pub fn recursive_functions(module: &Module) -> HashSet<usize> {
    let n = module.funcs.len();
    let mut edges: Vec<HashSet<usize>> = vec![HashSet::default(); n];
    for (index, func) in module.funcs.iter().enumerate() {
        for block in &func.blocks {
            for inst in &block.insts {
                if let Inst::Call { callee, .. } = inst {
                    edges[index].insert(*callee as usize);
                }
            }
        }
    }
    // Reachability-based cycle membership: f is recursive if f can reach f.
    let mut result = HashSet::default();
    for start in 0..n {
        let mut seen = HashSet::default();
        let mut work: Vec<usize> = edges[start].iter().copied().collect();
        while let Some(next) = work.pop() {
            if next == start {
                result.insert(start);
                break;
            }
            if seen.insert(next) {
                work.extend(edges[next].iter().copied());
            }
        }
    }
    result
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
    fn register_pools_disjoint() {
        let ints = usable_int_regs();
        assert!(!ints.contains(&IntReg::ZERO));
        assert!(!ints.contains(&IntReg::SP));
        assert!(!ints.contains(&IntReg::GP));
        assert!(!ints.contains(&IntReg::AT));
        for arg in 1..=NUM_ARG_REGS as u8 {
            assert!(!ints.contains(&IntReg::new_unchecked(arg)));
        }
        assert_eq!(ints.len(), 52);
        let fps = usable_fp_regs();
        assert_eq!(fps.len(), 56);
    }

    #[test]
    fn paper_split_fits() {
        let split = RegisterSplit::paper_default();
        let module = prepare("fn main() { }");
        let homes = allocate(&module, split, true);
        assert_eq!(homes.int_temps().len(), 16);
        assert_eq!(homes.fp_temps().len(), 16);
    }

    #[test]
    fn no_promotion_hands_all_registers_to_temps() {
        let module = prepare("global var g; fn main() { g = 1; }");
        let homes = allocate(&module, RegisterSplit::paper_default(), false);
        assert_eq!(homes.int_temps().len(), 16 + 26);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::GlobalMem(0)));
    }

    #[test]
    fn hot_global_promoted() {
        let module = prepare(
            "global var hot; global var cold;
             fn main() {
                 cold = 1;
                 for (i = 0; i < 100; i = i + 1) { hot = hot + i; }
             }",
        );
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::IntReg(_)));
    }

    #[test]
    fn arrays_never_promoted() {
        let module = prepare(
            "global arr a[16];
             fn main() { for (i = 0; i < 16; i = i + 1) { a[i] = i; } }",
        );
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::GlobalMem(0)));
        assert_eq!(homes.globals_words(), 16);
    }

    #[test]
    fn recursive_function_locals_stay_in_frame() {
        let module = prepare(
            "fn fib(int n) -> int {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }
             fn main() -> int { return fib(10); }",
        );
        let fib_index = module.func_index("fib").unwrap();
        assert!(recursive_functions(&module).contains(&fib_index));
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        // fib's parameter n must be in the frame.
        assert!(matches!(
            homes.local_home(fib_index, LocalId(0)),
            Home::Frame(_)
        ));
        // main's locals (if any) could be promoted; main is not recursive.
        assert!(!recursive_functions(&module).contains(&module.entry));
    }

    #[test]
    fn mutual_recursion_detected() {
        let module = prepare(
            "fn even(int n) -> int { if (n == 0) { return 1; } return odd(n - 1); }
             fn odd(int n) -> int { if (n == 0) { return 0; } return even(n - 1); }
             fn main() -> int { return even(8); }",
        );
        let recursive = recursive_functions(&module);
        assert!(recursive.contains(&0));
        assert!(recursive.contains(&1));
        assert!(!recursive.contains(&2));
    }

    #[test]
    fn float_variables_get_fp_homes() {
        let module = prepare(
            "global fvar x;
             fn main() { for (i = 0; i < 50; i = i + 1) { x = x + 1.0; } }",
        );
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::FpReg(_)));
    }

    #[test]
    fn home_registers_unique() {
        let module = prepare(
            "global var a; global var b; global fvar c;
             fn main() {
                 for (i = 0; i < 9; i = i + 1) { a = a + 1; b = b + 2; c = c + 1.0; }
             }",
        );
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        let (ints, fps) = homes.home_registers();
        let unique_ints: HashSet<_> = ints.iter().collect();
        assert_eq!(unique_ints.len(), ints.len());
        assert!(!fps.is_empty());
        // Home registers never overlap the temp pools.
        for r in &ints {
            assert!(!homes.int_temps().contains(r));
        }
    }

    #[test]
    fn limited_budget_promotes_by_score() {
        // Two integer home registers: the induction variable and `hot`
        // out-score `cold`.
        let split = RegisterSplit {
            int_temps: 4,
            int_globals: 2,
            fp_temps: 4,
            fp_globals: 0,
        };
        let module = prepare(
            "global var hot; global var cold;
             fn main() {
                 cold = 1;
                 for (i = 0; i < 100; i = i + 1) { hot = hot + i; }
             }",
        );
        let homes = allocate(&module, split, true);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::IntReg(_)));
        assert!(matches!(homes.global_home(GlobalId(1)), Home::GlobalMem(_)));
    }

    #[test]
    fn temp_pool_lifo_and_guards() {
        let mut pool = TempPool::new(vec![1, 2, 3]);
        assert_eq!(pool.capacity(), 3);
        let a = pool.alloc().unwrap();
        assert_eq!(pool.available(), 2);
        pool.release(a);
        assert_eq!(pool.available(), 3);
        pool.reset();
        assert_eq!(pool.available(), 3);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn temp_pool_double_free_panics() {
        let mut pool = TempPool::new(vec![1]);
        let a = pool.alloc().unwrap();
        pool.release(a);
        pool.release(a);
    }

    #[test]
    fn frame_slots_compact() {
        let module = prepare(
            "fn fib(int n) -> int {
                 var a = 1; var b = 2;
                 if (n < 2) { return n; }
                 return fib(n - 1) + a + b;
             }
             fn main() -> int { return fib(5); }",
        );
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        let fib = module.func_index("fib").unwrap();
        assert_eq!(homes.frame_words(fib), 3); // n, a, b
        let slots: Vec<Home> = (0..3).map(|i| homes.local_home(fib, LocalId(i))).collect();
        assert_eq!(slots, vec![Home::Frame(0), Home::Frame(1), Home::Frame(2)]);
    }
}

#[cfg(test)]
mod pool_behavior_tests {
    use super::*;

    #[test]
    fn round_robin_spreads_allocations() {
        // FIFO: consecutive alloc/release cycles should walk the whole
        // pool before reusing a register (the anti-WAW property).
        let mut pool = TempPool::new(vec![1, 2, 3, 4]);
        let mut seen = Vec::new();
        for _ in 0..8 {
            let r = pool.alloc().unwrap();
            seen.push(r);
            pool.release(r);
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = TempPool::new(vec![1, 2]);
        assert!(pool.alloc().is_some());
        assert!(pool.alloc().is_some());
        assert!(pool.alloc().is_none());
    }

    #[test]
    fn promotion_respects_type_budgets() {
        // Only FP home registers available: the int candidate stays in
        // memory while the float one is promoted.
        let src = "global var ihot; global fvar fhot;
             fn main() {
                 for (i = 0; i < 50; i = i + 1) {
                     ihot = ihot + 1;
                     fhot = fhot + 1.0;
                 }
             }";
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        let module = supersym_ir::lower(&ast).unwrap();
        let split = RegisterSplit {
            int_temps: 8,
            int_globals: 0,
            fp_temps: 8,
            fp_globals: 4,
        };
        let homes = allocate(&module, split, true);
        assert!(matches!(homes.global_home(GlobalId(0)), Home::GlobalMem(_)));
        assert!(matches!(homes.global_home(GlobalId(1)), Home::FpReg(_)));
    }

    #[test]
    fn no_promotion_zero_candidates() {
        let src = "fn main() { }";
        let ast = supersym_lang::parse(src).unwrap();
        supersym_lang::check(&ast).unwrap();
        let module = supersym_ir::lower(&ast).unwrap();
        let homes = allocate(&module, RegisterSplit::paper_default(), true);
        let (ints, fps) = homes.home_registers();
        assert!(ints.is_empty());
        assert!(fps.is_empty());
        assert_eq!(homes.globals_words(), 0);
    }
}
