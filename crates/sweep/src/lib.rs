//! Fault-tolerant design-space sweeps over machine-configuration grids.
//!
//! The paper's figures sample ~11 hand-picked machine presets. This crate
//! turns that sample into a map: a [`supersym_machine::GridSpec`] names a
//! cross-product lattice of configurations, and the sweep engine fans the
//! (workload × cell) product out across worker threads: compile once,
//! execute once, time many (the machine-independent front half of the
//! pipeline is compiled and executed once per workload and register split;
//! only scheduling and timing repeat per cell).
//!
//! The engine is built to survive its own cells:
//!
//! * every cell runs under `catch_unwind` with a fuel watchdog (and an
//!   opt-in wall deadline), so a panicking scheduler or a runaway program
//!   quarantines one cell instead of aborting a thousand;
//! * failures are classified — [`CellStatus::Panic`],
//!   [`CellStatus::Timeout`], [`CellStatus::Reject`] — and recorded in the
//!   same journal as successes, so no cell is ever silently lost;
//! * progress is checkpointed as append-only JSON-lines
//!   (`supersym.sweep/v1`, see [`checkpoint`]) with a header identity hash
//!   and a per-record checksum: a sweep killed mid-flight resumes from the
//!   journal, tolerates a torn final line, degrades corrupt records to
//!   recomputation, and produces byte-identical final output;
//! * a result cache keyed by (program hash, machine hash) makes repeated
//!   sweeps incremental across grids that share cells.
//!
//! The [`report`] module reduces a finished sweep to a Pareto frontier of
//! speedup versus hardware cost, the lens the paper's Figure 4-3 presets
//! are a slice of.

pub mod checkpoint;
pub mod engine;
pub mod report;

pub use checkpoint::{
    load_checkpoint, CellMetrics, CellRecord, CellStatus, CheckpointError, ResumeState,
    SweepHeader, SCHEMA,
};
pub use engine::{
    cache_from_records, run_sweep, run_sweep_observed, CellFailure, CellRunner, FaultInjection,
    ResultCache, SweepConfig, SweepMetrics, SweepObserver, SweepOutcome, SweepPlan, MAX_JOBS,
};
pub use report::{aggregate_cells, frontier_json, pareto_frontier, CellSummary, ParetoPoint};
