//! # supersym-sim
//!
//! The instruction-level simulator of the supersym system.
//!
//! The paper (§3): "The language system then optimizes the code, allocates
//! registers, and schedules the instructions for the pipeline, all according
//! to this specification. The simulator executes the program according to
//! the same specification." This crate is that simulator:
//!
//! * [`Executor`] — architectural (functional) execution of a
//!   `supersym-isa` [`Program`](supersym_isa::Program): registers, memory,
//!   call stack, dynamic instruction census;
//! * [`TimingModel`] — the parameterizable pipeline model: in-order issue
//!   limited by issue width, operand scoreboard interlocks (RAW, and
//!   conservative WAW — register reuse is a real dependence, §3), functional
//!   unit reservation (issue latency × multiplicity, §3), store-to-load
//!   memory interlocks, optional control latency;
//! * [`simulate`] — runs both together and reports cycles, available
//!   parallelism, and the class census; [`simulate_with_sink`] additionally
//!   streams one [`IssueEvent`](supersym_trace::IssueEvent) per dynamic
//!   instruction to a [`TraceSink`](supersym_trace::TraceSink);
//! * [`Recording`] — execute once, time many: one recorded run times any
//!   region permutation of its program (every sweep cell of one compiled
//!   front) without executing it again;
//! * [`CycleAccount`] / [`StallCause`] — stall attribution: every cycle an
//!   instruction waits is charged to exactly one cause, and
//!   `issue + Σ stalls + drain == machine_cycles` holds exactly;
//! * [`Cache`] / [`CacheSystem`] — the cache simulator behind the paper's
//!   §5.1 cache-cost analysis;
//! * [`diagram`] — renders the paper's Figure 2-1…2-8 pipeline diagrams
//!   from actual timing-model output.
//!
//! ## Example
//!
//! ```
//! use supersym_isa::{AsmBuilder, IntReg};
//! use supersym_machine::presets;
//! use supersym_sim::simulate;
//!
//! // Figure 1-1(b): a serial chain has parallelism 1.
//! let mut asm = AsmBuilder::new("main");
//! let r2 = IntReg::new(2)?;
//! let r3 = IntReg::new(3)?;
//! let r4 = IntReg::new(4)?;
//! asm.add(r3, r3, 1.into());
//! asm.add(r4, r3, r2.into());
//! asm.store(r4, r4, 0);
//! asm.halt();
//! let program = asm.finish_program();
//!
//! let report = simulate(&program, &presets::ideal_superscalar(3), Default::default())?;
//! assert!(report.available_parallelism() < 1.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod block;
mod cache;
pub mod diagram;
mod error;
mod exec;
mod limits;
mod metrics;
mod paged;
mod replay;
mod report;
mod timing;

pub use block::BlockCacheStats;
pub use cache::{
    issue_speedup_with_miss_burden, Cache, CacheConfig, CacheStats, CacheSystem, MissCostRow,
};
pub use error::SimError;
pub use exec::{ControlEvent, ExecOptions, Executor, StepInfo};
pub use limits::{measure_limit, DataflowLimit, LimitOptions};
pub use metrics::MetricsSink;
pub use replay::{Recording, MAX_RECORDING_BYTES};
pub use report::{
    simulate, simulate_with_cache, simulate_with_sink, CacheReport, CriticalProducer, SimOptions,
    SimReport,
};
pub use timing::{CycleAccount, IssueRecord, StallCause, TimingModel, NUM_STALL_KINDS};
