//! supersym-torture: a deterministic fault-injection and
//! mutation-robustness harness for the supersym pipeline.
//!
//! The harness exists to enforce one contract over the whole pipeline
//! (parse → lower → optimize → allocate → schedule → verify → simulate):
//!
//! > Every input either produces a typed error or a correct run — never a
//! > panic, never a hang, never a scheduler/checker disagreement, never
//! > divergent results across runs.
//!
//! Five mutation layers probe that contract from different angles:
//!
//! - [`mutate::Layer::Source`] — byte- and token-level havoc on Tital
//!   source text, exercising the lexer/parser/sema front line;
//! - [`mutate::Layer::Ast`] — structured mutations on *checked* syntax
//!   trees, skipping past the parser to hit lowering, optimization and
//!   register allocation with inputs the front end can no longer filter;
//! - [`mutate::Layer::Asm`] — swap/drop/duplicate/operand-corruption on
//!   scheduled instruction streams, exercising the assembly parser, the
//!   static verifier and the executor;
//! - [`mutate::Layer::Machine`] — hostile `.machine` descriptions,
//!   exercising the spec parser, machine lint, and the scheduler/timing
//!   model's tolerance for degenerate configurations;
//! - [`mutate::Layer::Grid`] — hostile sweep grid specs, exercising the
//!   grid parser's axis bounds, range/list punctuation and cell-count cap,
//!   and the machines the surviving grids enumerate.
//!
//! Everything is driven by the workspace's shared
//! [`SplitMix64`](supersym_rng::SplitMix64), so a campaign replays
//! bit-identically from its seed: a finding's `(seed, layer, index)` triple
//! regenerates the exact mutant. Findings are minimized (greedy line-wise
//! ddmin under an invocation budget) and written to a crash corpus that CI
//! replays on every run.
//!
//! The crate is deliberately ignorant of the pipeline it tortures — the
//! real pipeline is plugged in via [`subject::Subject`] by the `supersym`
//! driver crate, keeping the dependency arrow acyclic.

#![warn(missing_docs)]

pub mod campaign;
pub mod mutate;
pub mod subject;

pub use campaign::{
    replay_corpus, run_campaign, write_corpus, CampaignConfig, CampaignReport, Finding,
    FindingKind, LayerReport,
};
pub use mutate::{mutate, Layer};
pub use subject::{Input, Stage, Subject, Verdict};
