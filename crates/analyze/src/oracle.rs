//! The shared dependence oracle.
//!
//! Both the pipeline scheduler (`supersym-codegen`) and the schedule
//! legality checker (`supersym-verify`) must decide, for every pair of
//! memory operations in a straight-line region, whether they might touch
//! the same word. This module is the single source of those answers: one
//! region-walking edge builder ([`dependence_edges`]), one region
//! partitioner ([`scheduling_regions`]), and a [`DependenceOracle`] trait
//! with two implementations the caller chooses between —
//!
//! * [`ConservativeOracle`] consults only the per-instruction [`MemAlias`](supersym_isa::MemAlias)
//!   annotations (the front end's verdicts), exactly the model the seed
//!   scheduler and checker each implemented privately;
//! * [`SymbolicOracle`] additionally runs a symbolic value numbering over
//!   the region's integer registers, proving `mem[rA + 0]` and
//!   `mem[rA + 1]` disjoint even when the aliases say nothing — the §4.4
//!   disambiguation ("their effective heads could be compared") applied at
//!   the machine level, where unrolled induction updates
//!   (`r7 <- r7 + 1`) are plain register arithmetic.
//!
//! The symbolic oracle only ever *removes* edges relative to the
//! conservative one (it is consulted after [`MemAlias::may_conflict`](supersym_isa::MemAlias::may_conflict)
//! already said "maybe"), so any schedule legal under the conservative
//! oracle is legal under the symbolic one. The reverse is checked
//! dynamically by the differential property test in the workspace test
//! suite: sharpened schedules execute to the same architectural state.

use std::fmt;
use supersym_isa::{Function, Instr, Operand, Program, Reg, NUM_INT_REGS};

/// The kind of an ordering constraint between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write of a register: the reader needs the writer's value.
    Raw(Reg),
    /// Write-after-read of a register: the overwrite must wait for the
    /// reader.
    War(Reg),
    /// Write-after-write of a register: two writes must stay ordered.
    Waw(Reg),
    /// A memory dependence (at least one store; disjointness unproven).
    Memory,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Raw(reg) => write!(f, "RAW on {reg}"),
            DepKind::War(reg) => write!(f, "WAR on {reg}"),
            DepKind::Waw(reg) => write!(f, "WAW on {reg}"),
            DepKind::Memory => f.write_str("memory dependence"),
        }
    }
}

/// One ordering constraint: `pred` must issue no later than `succ`
/// (region-relative indices, `pred < succ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// The earlier instruction.
    pub pred: usize,
    /// The later instruction.
    pub succ: usize,
    /// Why they are ordered.
    pub kind: DepKind,
}

/// A symbolic address: a region-local value number plus a wrapping word
/// offset, or a fully-constant address.
///
/// Since the machine computes every effective address as
/// `int_reg(base).wrapping_add(offset)`, the map `offset -> address` is
/// injective for any fixed base value: equal bases with distinct offsets
/// can never collide, wrap or no wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymAddr {
    /// The address is this constant.
    Abs(i64),
    /// The address is (the runtime value numbered `vn`) + `offset`.
    Rel {
        /// Region-local value number of the base value.
        vn: u32,
        /// Wrapping word offset from that value.
        offset: i64,
    },
}

impl SymAddr {
    /// Whether the two addresses are provably distinct on every execution.
    #[must_use]
    pub fn must_not_alias(&self, other: &SymAddr) -> bool {
        match (self, other) {
            (SymAddr::Abs(a), SymAddr::Abs(b)) => a != b,
            (SymAddr::Rel { vn: v1, offset: o1 }, SymAddr::Rel { vn: v2, offset: o2 }) => {
                v1 == v2 && o1 != o2
            }
            _ => false,
        }
    }
}

/// Per-region facts computed once by [`DependenceOracle::prepare`] and
/// consulted for every instruction pair.
#[derive(Debug, Clone, Default)]
pub struct RegionFacts {
    /// Symbolic address of each instruction's memory access (`None` for
    /// non-memory instructions, vector accesses, and the conservative
    /// oracle, which computes nothing).
    addrs: Vec<Option<SymAddr>>,
}

impl RegionFacts {
    /// The symbolic address of the access at region-relative index `i`,
    /// if one was derived.
    #[must_use]
    pub fn addr(&self, i: usize) -> Option<SymAddr> {
        self.addrs.get(i).copied().flatten()
    }
}

/// A memory-disambiguation policy for dependence-DAG construction.
///
/// `prepare` is called once per region; `may_alias` must return `false`
/// only when the accesses at `i` and `j` (both known to reference memory)
/// are provably disjoint on every execution reaching the region.
pub trait DependenceOracle: Sync {
    /// Computes whatever per-region facts `may_alias` will need.
    fn prepare(&self, region: &[Instr]) -> RegionFacts;

    /// Whether the memory accesses at `i` and `j` may touch the same word.
    fn may_alias(&self, facts: &RegionFacts, region: &[Instr], i: usize, j: usize) -> bool;
}

/// The seed model: trusts only the [`MemAlias`](supersym_isa::MemAlias) annotations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConservativeOracle;

impl DependenceOracle for ConservativeOracle {
    fn prepare(&self, _region: &[Instr]) -> RegionFacts {
        RegionFacts::default()
    }

    fn may_alias(&self, _facts: &RegionFacts, region: &[Instr], i: usize, j: usize) -> bool {
        annotations_may_conflict(region, i, j)
    }
}

/// The sharpened model: [`MemAlias`](supersym_isa::MemAlias) annotations plus symbolic base+offset
/// value numbering of the region's address arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolicOracle;

impl DependenceOracle for SymbolicOracle {
    fn prepare(&self, region: &[Instr]) -> RegionFacts {
        RegionFacts {
            addrs: symbolic_addresses(region),
        }
    }

    fn may_alias(&self, facts: &RegionFacts, region: &[Instr], i: usize, j: usize) -> bool {
        if !annotations_may_conflict(region, i, j) {
            return false;
        }
        match (facts.addr(i), facts.addr(j)) {
            (Some(a), Some(b)) => !a.must_not_alias(&b),
            _ => true,
        }
    }
}

pub(crate) fn annotations_may_conflict(region: &[Instr], i: usize, j: usize) -> bool {
    let (alias_i, _) = region[i].mem_ref().expect("caller guarantees a memory op");
    let (alias_j, _) = region[j].mem_ref().expect("caller guarantees a memory op");
    alias_i.may_conflict(alias_j)
}

/// Which oracle to use, as a configuration value for the compile pipeline
/// and command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleKind {
    /// [`ConservativeOracle`]: annotations only.
    Conservative,
    /// [`SymbolicOracle`]: annotations plus symbolic value numbering.
    #[default]
    Symbolic,
}

impl OracleKind {
    /// The oracle this kind names.
    #[must_use]
    pub fn as_oracle(self) -> &'static dyn DependenceOracle {
        static CONSERVATIVE: ConservativeOracle = ConservativeOracle;
        static SYMBOLIC: SymbolicOracle = SymbolicOracle;
        match self {
            OracleKind::Conservative => &CONSERVATIVE,
            OracleKind::Symbolic => &SYMBOLIC,
        }
    }
}

/// Symbolic value of an integer register during the region walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymVal {
    /// A known constant.
    Abs(i64),
    /// An unknown value (numbered) plus a wrapping constant offset.
    Rel { vn: u32, offset: i64 },
}

impl SymVal {
    fn offset_by(self, k: i64) -> SymVal {
        match self {
            SymVal::Abs(c) => SymVal::Abs(c.wrapping_add(k)),
            SymVal::Rel { vn, offset } => SymVal::Rel {
                vn,
                offset: offset.wrapping_add(k),
            },
        }
    }
}

/// Runs the symbolic value numbering over one straight-line region,
/// returning each instruction's address (for scalar loads and stores).
///
/// Every integer register starts at its own value number (`r0` starts at
/// the constant 0). `movi` makes a register constant; additions and
/// subtractions of constants slide the offset; every other definition of
/// an integer register gets a fresh value number. Vector accesses span a
/// runtime-dependent range of words, so they never receive an address.
#[must_use]
pub fn symbolic_addresses(region: &[Instr]) -> Vec<Option<SymAddr>> {
    symbolic_walk(region).0
}

/// The per-pass increment of each integer register, for loop bodies.
///
/// Entry `r` is `Some(step)` when one pass over `region` provably leaves
/// register `r` at exactly its initial value plus `step` (wrapping), the
/// affine-update shape of an induction register; `Some(0)` covers registers
/// the region never redefines. `None` means the final value has no provable
/// relation to the initial one (reloaded from memory, multiplied, set to a
/// constant — whose first-iteration initial value still differs).
#[must_use]
pub fn induction_steps(region: &[Instr]) -> Vec<Option<i64>> {
    symbolic_walk(region)
        .1
        .iter()
        .enumerate()
        .map(|(reg, val)| match val {
            SymVal::Rel { vn, offset } if *vn == reg as u32 => Some(*offset),
            // r0 is hardwired: constant zero before and after any pass.
            SymVal::Abs(0) if reg == 0 => Some(0),
            _ => None,
        })
        .collect()
}

fn symbolic_walk(region: &[Instr]) -> (Vec<Option<SymAddr>>, Vec<SymVal>) {
    let mut sym: Vec<SymVal> = (0..NUM_INT_REGS as u32)
        .map(|r| SymVal::Rel { vn: r, offset: 0 })
        .collect();
    sym[0] = SymVal::Abs(0); // r0 is hardwired to zero
    let mut next_vn = NUM_INT_REGS as u32;
    let mut fresh = || {
        let vn = next_vn;
        next_vn += 1;
        SymVal::Rel { vn, offset: 0 }
    };

    let mut addrs = Vec::with_capacity(region.len());
    for instr in region {
        // The access's address uses the base register's value *before*
        // this instruction's definition takes effect (a load may clobber
        // its own base).
        let addr = match instr {
            Instr::Load { base, offset, .. }
            | Instr::LoadF { base, offset, .. }
            | Instr::Store { base, offset, .. }
            | Instr::StoreF { base, offset, .. } => {
                Some(match sym[base.index() as usize].offset_by(*offset) {
                    SymVal::Abs(c) => SymAddr::Abs(c),
                    SymVal::Rel { vn, offset } => SymAddr::Rel { vn, offset },
                })
            }
            _ => None,
        };
        addrs.push(addr);

        match instr {
            Instr::MovI { dst, imm } if !dst.is_zero() => {
                sym[dst.index() as usize] = SymVal::Abs(*imm);
            }
            Instr::IntOp { op, dst, lhs, rhs } if !dst.is_zero() => {
                use supersym_isa::IntOp::{Add, Sub};
                let lhs_val = sym[lhs.index() as usize];
                let rhs_val = match rhs {
                    Operand::Imm(k) => Some(SymVal::Abs(*k)),
                    Operand::Reg(r) => Some(sym[r.index() as usize]),
                };
                let result = match (*op, lhs_val, rhs_val) {
                    (Add, v, Some(SymVal::Abs(k))) => Some(v.offset_by(k)),
                    (Add, SymVal::Abs(c), Some(v)) => Some(v.offset_by(c)),
                    (Sub, v, Some(SymVal::Abs(k))) => Some(v.offset_by(k.wrapping_neg())),
                    _ => None,
                };
                sym[dst.index() as usize] = result.unwrap_or_else(&mut fresh);
            }
            _ => {
                // Any other definition of an integer register — a load, an
                // FP compare, a conversion — is an unknown value.
                if let Some(Reg::Int(dst)) = instr.def() {
                    sym[dst.index() as usize] = fresh();
                }
            }
        }
    }
    (addrs, sym)
}

/// The scheduling regions of a function: maximal runs of non-control
/// instructions not crossed by any label target. The scheduler may permute
/// instructions within these ranges and nowhere else; the legality checker
/// holds it to exactly that contract.
#[must_use]
pub fn scheduling_regions(func: &Function) -> Vec<(usize, usize)> {
    let is_boundary = |index: usize| func.label_targets().contains(&index);
    let mut regions = Vec::new();
    let mut start = 0;
    for (index, instr) in func.instrs().iter().enumerate() {
        if index > start && is_boundary(index) {
            regions.push((start, index));
            start = index;
        }
        if instr.is_control() {
            regions.push((start, index));
            start = index + 1;
        }
    }
    if start < func.instrs().len() {
        regions.push((start, func.instrs().len()));
    }
    regions
}

/// Where each instruction of a scheduled program came from: for every flat
/// slot of `after` (functions in order, instructions in order), the flat
/// slot of the instruction of `before` that it holds. `None` when `after`
/// is not a permutation of `before` within [`scheduling_regions`]: a
/// changed shape or label table, an instruction moved across a region
/// boundary, or a moved control instruction.
///
/// Identical instructions of one region are matched in order, which is
/// canonical: two identical non-control instructions either write the same
/// register (WAW) or are conflicting stores, so every legal schedule keeps
/// their relative order.
#[must_use]
pub fn region_origins(before: &Program, after: &Program) -> Option<Vec<u32>> {
    if before.functions().len() != after.functions().len() {
        return None;
    }
    let mut origins: Vec<u32> = Vec::with_capacity(after.static_size());
    for (old, new) in before.functions().iter().zip(after.functions()) {
        let (b, a) = (old.instrs(), new.instrs());
        if b.len() != a.len() || old.label_targets() != new.label_targets() {
            return None;
        }
        let base = origins.len();
        origins.extend((base..base + b.len()).map(|slot| slot as u32));
        for (start, end) in scheduling_regions(old) {
            let mut taken = vec![false; end - start];
            for p in start..end {
                let q = (start..end).find(|&q| !taken[q - start] && b[q] == a[p])?;
                taken[q - start] = true;
                origins[base + p] = (base + q) as u32;
            }
        }
        // Outside the regions (control instructions) nothing may move.
        if (0..b.len()).any(|i| b[i].is_control() && b[i] != a[i]) {
            return None;
        }
    }
    Some(origins)
}

/// Every ordering constraint within a straight-line region, with memory
/// pairs filtered through `oracle`.
///
/// For instructions `i < j`:
///
/// * **RAW**: `j` reads a register whose nearest earlier write is `i`;
/// * **WAW**: `j` writes a register whose nearest earlier write is `i`;
/// * **WAR**: `j` writes a register that `i` reads, with no write between
///   them (an intervening write would already order `i` via its own WAR);
/// * **memory**: both touch memory, at least one is a store, and the
///   oracle cannot prove the accesses disjoint (loads commute freely).
#[must_use]
pub fn dependence_edges(region: &[Instr], oracle: &dyn DependenceOracle) -> Vec<DepEdge> {
    let n = region.len();
    let mut edges = Vec::new();

    // Register edges by last-writer / readers-since-write tracking.
    let mut last_writer: Vec<Option<usize>> = vec![None; Reg::DENSE_SPACE];
    let mut readers_since_write: Vec<Vec<usize>> = vec![Vec::new(); Reg::DENSE_SPACE];
    for (index, instr) in region.iter().enumerate() {
        instr.uses().iter().for_each(|reg| {
            let slot = reg.dense_index();
            if let Some(writer) = last_writer[slot] {
                edges.push(DepEdge {
                    pred: writer,
                    succ: index,
                    kind: DepKind::Raw(reg),
                });
            }
            readers_since_write[slot].push(index);
        });
        if let Some(def) = instr.def() {
            let slot = def.dense_index();
            if let Some(writer) = last_writer[slot] {
                edges.push(DepEdge {
                    pred: writer,
                    succ: index,
                    kind: DepKind::Waw(def),
                });
            }
            for &reader in &readers_since_write[slot] {
                if reader != index {
                    edges.push(DepEdge {
                        pred: reader,
                        succ: index,
                        kind: DepKind::War(def),
                    });
                }
            }
            last_writer[slot] = Some(index);
            readers_since_write[slot].clear();
        }
    }

    // Memory edges through the oracle.
    let facts = oracle.prepare(region);
    for i in 0..n {
        let Some((_, store_i)) = region[i].mem_ref() else {
            continue;
        };
        for (j, other) in region.iter().enumerate().skip(i + 1) {
            let Some((_, store_j)) = other.mem_ref() else {
                continue;
            };
            if !store_i && !store_j {
                continue; // loads commute
            }
            if oracle.may_alias(&facts, region, i, j) {
                edges.push(DepEdge {
                    pred: i,
                    succ: j,
                    kind: DepKind::Memory,
                });
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersym_isa::{IntOp, IntReg, MemAlias};

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    fn load_at(dst: u8, base: u8, offset: i64) -> Instr {
        Instr::Load {
            dst: r(dst),
            base: r(base),
            offset,
            alias: MemAlias::unknown(),
        }
    }

    fn store_at(src: u8, base: u8, offset: i64) -> Instr {
        Instr::Store {
            src: r(src),
            base: r(base),
            offset,
            alias: MemAlias::unknown(),
        }
    }

    fn memory_edges(region: &[Instr], oracle: &dyn DependenceOracle) -> Vec<(usize, usize)> {
        dependence_edges(region, oracle)
            .into_iter()
            .filter(|e| e.kind == DepKind::Memory)
            .map(|e| (e.pred, e.succ))
            .collect()
    }

    #[test]
    fn same_base_distinct_offsets_disambiguated() {
        // store [r5+0]; load [r5+1] — unknown aliases, same base register.
        let region = vec![store_at(1, 5, 0), load_at(2, 5, 1)];
        assert_eq!(
            memory_edges(&region, &ConservativeOracle),
            vec![(0, 1)],
            "the annotation-only model must keep the edge"
        );
        assert!(
            memory_edges(&region, &SymbolicOracle).is_empty(),
            "symbolic base+offset proves the words disjoint"
        );
        // Same offset: possibly the same word under both models.
        let clash = vec![store_at(1, 5, 2), load_at(2, 5, 2)];
        assert_eq!(memory_edges(&clash, &SymbolicOracle), vec![(0, 1)]);
    }

    #[test]
    fn induction_update_links_offsets() {
        // store [r5+1]; r5 <- r5 + 1; store [r5+0] — both address r5_old+1.
        let region = vec![
            store_at(1, 5, 1),
            Instr::IntOp {
                op: IntOp::Add,
                dst: r(5),
                lhs: r(5),
                rhs: Operand::Imm(1),
            },
            store_at(2, 5, 0),
        ];
        assert_eq!(
            memory_edges(&region, &SymbolicOracle),
            vec![(0, 2)],
            "offset tracking must see through the induction update"
        );
        // With distinct final offsets the accesses separate.
        let disjoint = vec![
            store_at(1, 5, 0),
            Instr::IntOp {
                op: IntOp::Add,
                dst: r(5),
                lhs: r(5),
                rhs: Operand::Imm(1),
            },
            store_at(2, 5, 0), // r5_old + 1
        ];
        assert!(memory_edges(&disjoint, &SymbolicOracle).is_empty());
    }

    #[test]
    fn unknown_redefinition_breaks_the_link() {
        // r5 reloaded from memory between the stores: no relation provable.
        let region = vec![store_at(1, 5, 0), load_at(5, 6, 0), store_at(2, 5, 1)];
        let edges = memory_edges(&region, &SymbolicOracle);
        assert!(edges.contains(&(0, 2)), "fresh base value: edge kept");
    }

    #[test]
    fn constant_addresses_compare_absolutely() {
        // movi r5, 100; store [r5+0]; movi r5, 101; store [r5+0].
        let region = vec![
            Instr::MovI {
                dst: r(5),
                imm: 100,
            },
            store_at(1, 5, 0),
            Instr::MovI {
                dst: r(5),
                imm: 101,
            },
            store_at(2, 5, 0),
        ];
        assert!(memory_edges(&region, &SymbolicOracle).is_empty());
        // Same constant address: ordered.
        let clash = vec![
            Instr::MovI {
                dst: r(5),
                imm: 100,
            },
            store_at(1, 5, 0),
            Instr::MovI { dst: r(6), imm: 95 },
            Instr::IntOp {
                op: IntOp::Add,
                dst: r(6),
                lhs: r(6),
                rhs: Operand::Imm(5),
            },
            store_at(2, 6, 0),
        ];
        assert_eq!(memory_edges(&clash, &SymbolicOracle), vec![(1, 4)]);
    }

    #[test]
    fn load_clobbering_its_own_base_uses_old_value() {
        // load r5 <- [r5+0]; store [r5+0]: the store's base is the loaded
        // value, unrelated to the load's address.
        let region = vec![load_at(5, 5, 0), store_at(1, 5, 0)];
        let addrs = symbolic_addresses(&region);
        let (Some(a), Some(b)) = (addrs[0], addrs[1]) else {
            panic!("both are scalar accesses");
        };
        assert!(!a.must_not_alias(&b), "no relation between old and new r5");
        assert_ne!(a, b);
    }

    #[test]
    fn zero_register_is_constant_zero() {
        // store [r0+4] and movi r5,4; store [r5+0] hit the same word.
        let region = vec![
            store_at(1, 0, 4),
            Instr::MovI { dst: r(5), imm: 4 },
            store_at(2, 5, 0),
        ];
        assert_eq!(memory_edges(&region, &SymbolicOracle), vec![(0, 2)]);
        let addrs = symbolic_addresses(&region);
        assert_eq!(addrs[0], Some(SymAddr::Abs(4)));
    }

    #[test]
    fn subtraction_and_register_constants_fold() {
        // r6 <- r5 - 2; store [r6+2] aliases store [r5+0] exactly.
        let region = vec![
            Instr::IntOp {
                op: IntOp::Sub,
                dst: r(6),
                lhs: r(5),
                rhs: Operand::Imm(2),
            },
            store_at(1, 6, 2),
            store_at(2, 5, 0),
        ];
        let addrs = symbolic_addresses(&region);
        assert_eq!(addrs[1], addrs[2], "r6+2 == r5-2+2 == r5");
        assert_eq!(memory_edges(&region, &SymbolicOracle), vec![(1, 2)]);
    }

    #[test]
    fn vector_accesses_never_get_addresses() {
        let region = vec![Instr::VLoad {
            dst: supersym_isa::VecReg::new(0).unwrap(),
            base: r(5),
            offset: 0,
            alias: MemAlias::unknown(),
        }];
        assert_eq!(symbolic_addresses(&region), vec![None]);
    }

    #[test]
    fn symbolic_edges_subset_of_conservative() {
        let region = vec![
            store_at(1, 5, 0),
            load_at(2, 5, 1),
            store_at(2, 6, 0),
            Instr::IntOp {
                op: IntOp::Add,
                dst: r(5),
                lhs: r(5),
                rhs: Operand::Imm(1),
            },
            store_at(3, 5, 0),
            load_at(4, 7, 3),
        ];
        let conservative = memory_edges(&region, &ConservativeOracle);
        let symbolic = memory_edges(&region, &SymbolicOracle);
        for edge in &symbolic {
            assert!(
                conservative.contains(edge),
                "symbolic oracle may only remove edges, never add: {edge:?}"
            );
        }
        assert!(symbolic.len() < conservative.len());
    }

    #[test]
    fn register_edges_oracle_independent() {
        let region = vec![
            load_at(1, 5, 0),
            Instr::IntOp {
                op: IntOp::Add,
                dst: r(2),
                lhs: r(1),
                rhs: Operand::Imm(1),
            },
            Instr::MovI { dst: r(1), imm: 0 },
        ];
        let keep_regs = |edges: Vec<DepEdge>| {
            edges
                .into_iter()
                .filter(|e| e.kind != DepKind::Memory)
                .map(|e| (e.pred, e.succ, e.kind))
                .collect::<Vec<_>>()
        };
        let a = keep_regs(dependence_edges(&region, &ConservativeOracle));
        let b = keep_regs(dependence_edges(&region, &SymbolicOracle));
        assert_eq!(a, b);
        assert!(a
            .iter()
            .any(|&(p, s, k)| p == 0 && s == 1 && matches!(k, DepKind::Raw(_))));
        assert!(a
            .iter()
            .any(|&(p, s, k)| p == 1 && s == 2 && matches!(k, DepKind::War(_))));
        assert!(a
            .iter()
            .any(|&(p, s, k)| p == 0 && s == 2 && matches!(k, DepKind::Waw(_))));
    }
}
