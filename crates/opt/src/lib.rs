//! # supersym-opt
//!
//! The optimizer of the supersym compiler, organized to match the paper's
//! Figure 4-8 optimization levels:
//!
//! * **intra-block (local) optimizations** — [`local_value_numbering`]
//!   (constant folding, algebraic simplification, common-subexpression
//!   elimination, copy propagation, store-to-load forwarding within a
//!   block) and [`dead_code_elimination`];
//! * **global optimizations** — [`loop_invariant_code_motion`] and
//!   [`dead_store_elimination`] (liveness-driven);
//! * **loop unrolling** — [`unroll_loops`], at the source (AST) level, in
//!   the paper's two flavors (§4.4): *naive* ("simply duplicating the loop
//!   body inside the loop") and *careful* (renamed reduction accumulators,
//!   reassociation, and index expressions that let the scheduler prove
//!   unrolled copies independent);
//! * **reassociation** — [`reassociate`], balancing long chains of
//!   associative operations ("we reassociate long strings of additions or
//!   multiplications to maximize the parallelism").
//!
//! Pipeline instruction scheduling itself lives in `supersym-codegen`; the
//! paper treats it as a separate lever and so do we.
//!
//! ## Example
//!
//! ```
//! let ast = supersym_lang::parse(
//!     "fn main() -> int { var x = 2 + 3; return x * 1; }",
//! )?;
//! supersym_lang::check(&ast)?;
//! let mut ir = supersym_ir::lower(&ast)?;
//! let before = ir.funcs[0].inst_count();
//! supersym_opt::local_value_numbering(&mut ir);
//! supersym_opt::dead_code_elimination(&mut ir);
//! assert!(ir.funcs[0].inst_count() < before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod dce;
mod licm;
mod lvn;
mod reassoc;
mod unroll;

pub use dce::{dead_code_elimination, dead_store_elimination};
pub use licm::loop_invariant_code_motion;
pub use lvn::{local_value_numbering, local_value_numbering_with, strength_reduce};
pub use reassoc::{reassociate, reassociate_with};
pub use unroll::{unroll_loops, UnrollOptions, MAX_UNROLL};

use supersym_ir::Module;
use supersym_rules::{default_table, RuleTable};

/// The optimizer's named passes, in the order the drivers run them. The
/// translation validator keys its per-pass certificates on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Local value numbering ([`local_value_numbering`]).
    Lvn,
    /// Multiply-to-shift strength reduction ([`strength_reduce`]).
    StrengthReduce,
    /// Dead code elimination ([`dead_code_elimination`]).
    Dce,
    /// Loop-invariant code motion ([`loop_invariant_code_motion`]).
    Licm,
    /// Liveness-driven dead store elimination ([`dead_store_elimination`]).
    Dse,
    /// Associative chain rebalancing ([`reassociate`]).
    Reassociate,
}

impl Pass {
    /// A short stable name (used in diagnostics and certificates).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::Lvn => "local_value_numbering",
            Pass::StrengthReduce => "strength_reduce",
            Pass::Dce => "dead_code_elimination",
            Pass::Licm => "loop_invariant_code_motion",
            Pass::Dse => "dead_store_elimination",
            Pass::Reassociate => "reassociate",
        }
    }
}

/// Observes the module after each pass that reported a change. The
/// translation validator implements this to snapshot and re-prove
/// equivalence pass by pass; `None` observers cost nothing.
pub trait PassObserver {
    /// Called after `pass` ran and changed the module.
    fn after_pass(&mut self, pass: Pass, module: &Module);
}

fn notify(observer: &mut Option<&mut dyn PassObserver>, pass: Pass, module: &Module) {
    if let Some(obs) = observer.as_deref_mut() {
        obs.after_pass(pass, module);
    }
}

/// Runs the paper's "intra-block optimizations" to a fixed point (bounded),
/// with the default (verified) rule table.
pub fn run_local(module: &mut Module) {
    run_local_observed(module, default_table(), None);
}

/// [`run_local`] with an explicit rule table.
pub fn run_local_with(module: &mut Module, table: &RuleTable) {
    run_local_observed(module, table, None);
}

/// [`run_local`] with an explicit rule table and pass observer.
pub fn run_local_observed(
    module: &mut Module,
    table: &RuleTable,
    mut observer: Option<&mut dyn PassObserver>,
) {
    for _ in 0..4 {
        let mut changed = false;
        if local_value_numbering_with(module, table) {
            changed = true;
            notify(&mut observer, Pass::Lvn, module);
        }
        if strength_reduce(module) {
            changed = true;
            notify(&mut observer, Pass::StrengthReduce, module);
        }
        if dead_code_elimination(module) {
            changed = true;
            notify(&mut observer, Pass::Dce, module);
        }
        if !changed {
            break;
        }
    }
}

/// Runs the paper's "global optimizations" (assumes local already ran), then
/// re-runs local cleanup — default rule table.
pub fn run_global(module: &mut Module) {
    run_global_observed(module, default_table(), None);
}

/// [`run_global`] with an explicit rule table.
pub fn run_global_with(module: &mut Module, table: &RuleTable) {
    run_global_observed(module, table, None);
}

/// [`run_global`] with an explicit rule table and pass observer.
pub fn run_global_observed(
    module: &mut Module,
    table: &RuleTable,
    mut observer: Option<&mut dyn PassObserver>,
) {
    if loop_invariant_code_motion(module) {
        notify(&mut observer, Pass::Licm, module);
    }
    if dead_store_elimination(module) {
        notify(&mut observer, Pass::Dse, module);
    }
    run_local_observed(module, table, observer);
}

/// [`reassociate`] with an explicit rule table and pass observer.
pub fn reassociate_observed(
    module: &mut Module,
    table: &RuleTable,
    mut observer: Option<&mut dyn PassObserver>,
) -> bool {
    let changed = reassociate_with(module, table);
    if changed {
        notify(&mut observer, Pass::Reassociate, module);
    }
    changed
}
