//! # supersym-bench
//!
//! Bench harness for the supersym reproduction. The real content lives in
//! `benches/`:
//!
//! * `benches/paper.rs` — times each experiment of
//!   `supersym::experiments::REGISTRY` at the small workload size (the
//!   tables themselves come from `titalc reproduce`).
//! * `benches/pipeline.rs` — micro-benchmarks of the system itself:
//!   compilation throughput, functional+timing simulation rate,
//!   scheduling, and cache simulation.
