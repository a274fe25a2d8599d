//! # supersym-analyze
//!
//! Static analysis for the supersym compiler: a generic lattice-based
//! dataflow framework over the IR control-flow graph, four concrete
//! analyses built on it, and the *dependence oracle* that the instruction
//! scheduler (`supersym-codegen`) and the schedule legality checker
//! (`supersym-verify`) both consume.
//!
//! Jouppi & Wall observe that the parallelism a scheduler can expose is
//! bounded by how well it disambiguates memory references: "provided that
//! the compile-time disambiguation works well, loads from early copies of
//! the loop can be moved above stores from previous copies" (§4.4). This
//! crate is where that disambiguation lives.
//!
//! ## The pieces
//!
//! * [`engine`] — a worklist fixed-point solver for forward and backward
//!   dataflow problems ([`Analysis`], [`solve`]), with executable-edge
//!   tracking for conditional analyses.
//! * [`lattice`] — the join-semilattice trait and the [`Interval`] domain.
//! * Four analyses:
//!   [`ReachingDefs`] (which writes reach each use),
//!   [`ConstProp`] (conditional constant propagation with executable-edge
//!   pruning), [`Ranges`] (value ranges of address arithmetic with
//!   widening), and the symbolic base+offset analysis behind
//!   [`sharpen_origins`], which proves must-not-alias facts and records
//!   them on `ReadElem`/`WriteElem` origins for the back end.
//! * [`oracle`] — the shared [`DependenceOracle`] trait plus the one
//!   [`dependence_edges`] construction both the scheduler and the legality
//!   checker call, with a [`ConservativeOracle`] (alias annotations only)
//!   and a [`SymbolicOracle`] (region-level symbolic addresses over
//!   machine registers).
//! * [`lint_module`] — IR lints surfaced through `titalc lint` /
//!   `titalc analyze`: dead stores, provably out-of-bounds array accesses,
//!   and branches on provably-constant conditions.
//! * [`dump_module`] — the per-block fact dump behind `titalc analyze`.
//! * The loop-nest layer: [`loops`] (natural-loop forest over the IR CFG),
//!   [`scev`] (scalar evolution / chains-of-recurrences with ZIV/SIV
//!   distance-vector tests), [`loopdep`] (machine-level loop-carried edges
//!   behind the [`LoopCarriedOracle`] trait), and [`bound`] (sound static
//!   ILP ceilings per innermost loop, surfaced by `titalc bound`).

#![deny(missing_docs)]

pub mod bound;
pub mod consts;
pub mod dump;
pub mod engine;
pub mod lattice;
pub mod lint;
pub mod loopdep;
pub mod loops;
pub mod oracle;
pub mod range;
pub mod reaching;
pub mod scev;
pub mod symalias;

pub use bound::{program_loop_statics, static_bound, LoopCount, LoopStatics, StaticBound};
pub use consts::{ConstProp, ConstState};
pub use dump::dump_module;
pub use engine::{solve, Analysis, Direction, Solution};
pub use lattice::{Interval, JoinSemiLattice};
pub use lint::lint_module;
pub use loopdep::{
    innermost_machine_loops, CarriedEdge, LoopCarriedOracle, MachineLoop, CARRIED_DISTANCE_CAP,
};
pub use loops::{loop_forest, LoopForest, LoopInfo};
pub use oracle::{
    dependence_edges, induction_steps, region_origins, scheduling_regions, ConservativeOracle,
    DepEdge, DepKind, DependenceOracle, OracleKind, RegionFacts, SymbolicOracle,
};
pub use range::{RangeState, Ranges};
pub use reaching::{Def, ReachState, ReachingDefs};
pub use scev::{
    function_scev, solve_stride, Distance, FunctionScev, Induction, LoopAccess, LoopDep, LoopScev,
    MemDepKind, Scev, Subscript,
};
pub use symalias::sharpen_origins;
