//! # supersym-machine
//!
//! Parameterizable machine descriptions for the supersym system.
//!
//! The paper (§3): "we gave the system an interface that allowed us to alter
//! the characteristics of the target machine. This interface allows us to
//! specify details about the pipeline, functional units, cache, and register
//! set." A [`MachineConfig`] is exactly that interface: per-class operation
//! latencies, functional units with issue latency and multiplicity, an
//! issue-width limit, the superpipelining degree, and the register-file
//! split. The pipeline scheduler (`supersym-codegen`) and the timing
//! simulator (`supersym-sim`) both read the same description.
//!
//! The [`presets`] module provides the machines discussed in the paper: the
//! base machine (§2.1), underpipelined machines (§2.2), ideal superscalar
//! machines of degree *n* (§2.3), superpipelined machines of degree *m*
//! (§2.4), superpipelined superscalars (§2.5), and latency models for the
//! MultiTitan and the CRAY-1 (Table 2-1).
//!
//! ## Example
//!
//! ```
//! use supersym_machine::presets;
//!
//! let base = presets::base();
//! assert_eq!(base.issue_width(), 1);
//! assert_eq!(base.pipe_degree(), 1);
//!
//! let ss3 = presets::ideal_superscalar(3);
//! assert_eq!(ss3.issue_width(), 3);
//!
//! let sp3 = presets::superpipelined(3);
//! assert_eq!(sp3.pipe_degree(), 3);
//! // Both require the same instruction-level parallelism to fully utilize:
//! assert_eq!(ss3.required_parallelism(), sp3.required_parallelism());
//! ```

mod config;
pub mod grid;
mod metrics;
pub mod presets;
mod spec;

pub use config::{
    FunctionalUnit, MachineConfig, MachineConfigBuilder, MachineError, RegisterSplit,
};
pub use grid::{
    FuModel, GridCell, GridError, GridSpec, LatModel, SplitModel, MAX_GRID_CELLS, MAX_ISSUE,
    MAX_PIPE,
};
pub use metrics::{
    average_degree_from_census, average_degree_of_superpipelining, paper_frequencies,
    superpipelining_axis_position, utilization_grid, UtilizationCell,
};
pub use spec::{parse_machine_spec, MachineSpec, SpecError, UnitSpec};
