//! # supersym
//!
//! A reproduction of **Jouppi & Wall, "Available Instruction-Level
//! Parallelism for Superscalar and Superpipelined Machines" (ASPLOS 1989)**:
//! the paper's "parameterizable code reorganization and simulation system",
//! rebuilt as a Rust workspace.
//!
//! The crate ties the subsystems together:
//!
//! * [`compile`] — the full pipeline: Tital source → AST (`supersym-lang`)
//!   → optional source-level unrolling (`supersym-opt`) → IR
//!   (`supersym-ir`) → optimization levels → home-register allocation
//!   (`supersym-regalloc`) → machine code + pipeline scheduling
//!   (`supersym-codegen`), all parameterized by a
//!   [`MachineConfig`](supersym_machine::MachineConfig);
//! * [`experiments`] — one driver per table and figure of the paper, all
//!   listed in [`experiments::REGISTRY`], which `titalc reproduce` prints;
//! * re-exports of the subsystem crates under [`isa`], [`machine`], [`sim`]
//!   and friends.
//!
//! ## Quickstart
//!
//! ```
//! use supersym::{compile, CompileOptions, OptLevel};
//! use supersym::machine::presets;
//! use supersym::sim::{simulate, SimOptions};
//!
//! let source = "
//!     global arr data[64];
//!     fn main() -> int {
//!         var sum = 0;
//!         for (i = 0; i < 64; i = i + 1) { data[i] = i; }
//!         for (i = 0; i < 64; i = i + 1) { sum = sum + data[i]; }
//!         return sum;
//!     }";
//!
//! // Compile for (and simulate on) a degree-4 ideal superscalar machine.
//! let machine = presets::ideal_superscalar(4);
//! let program = compile(source, &CompileOptions::new(OptLevel::O4, &machine))?;
//! let report = simulate(&program, &machine, SimOptions::default())?;
//! assert!(report.available_parallelism() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compile;
mod error;
pub mod experiments;
pub mod sweep;
pub mod torture;

pub use compile::{
    compile, compile_ast, compile_certified, compile_front, compile_with_trace, phase_metrics,
    CompileError, CompileOptions, FrontArtifact, OptLevel,
};
pub use error::PipelineError;

/// Re-export: static analysis (dataflow framework, IR lints, and the
/// dependence oracle shared by scheduler and checker).
pub use supersym_analyze as analyze;
/// Re-export: the back end.
pub use supersym_codegen as codegen;
/// Re-export: the IR.
pub use supersym_ir as ir;
/// Re-export: the target ISA.
pub use supersym_isa as isa;
/// Re-export: the Tital front end.
pub use supersym_lang as lang;
/// Re-export: machine descriptions.
pub use supersym_machine as machine;
/// Re-export: the optimizer.
pub use supersym_opt as opt;
/// Re-export: register allocation.
pub use supersym_regalloc as regalloc;
/// Re-export: the shared deterministic RNG (SplitMix64).
pub use supersym_rng as rng;
/// Re-export: synthesized, machine-verified rewrite rules.
pub use supersym_rules as rules;
/// Re-export: the simulator.
pub use supersym_sim as sim;
/// Re-export: run telemetry (trace sinks, phase/issue events, JSON writer).
pub use supersym_trace as trace;
/// Re-export: static verification (program lint, machine lint, schedule
/// legality).
pub use supersym_verify as verify;
/// Re-export: the benchmark suite.
pub use supersym_workloads as workloads;
