//! The sweep grid: a cross-product lattice of machine configurations.
//!
//! The paper evaluates ~11 hand-picked presets; `titalc sweep` explores the
//! whole (issue width × superpipelining degree × latency model × functional
//! -unit sharing × register split) lattice. A [`GridSpec`] is parsed from a
//! compact textual spec — the same text is recorded verbatim in sweep
//! checkpoints, so a resume can recover the exact grid — and enumerated
//! into [`GridCell`]s, each of which builds a [`MachineConfig`] by the same
//! constructions as the paper presets in [`crate::presets`]. That makes the
//! Figure 4-3 presets literal cells of the larger map: for example
//! `issue=2 pipe=1 lat=unit fu=ideal` *is* `superscalar:2`, with an equal
//! [`MachineConfig::fingerprint`].
//!
//! ## Spec syntax
//!
//! Whitespace-separated `axis=value[,value...]` pairs; omitted axes default
//! to the base machine's value:
//!
//! ```text
//! issue=1,2,4,8 pipe=1,2,4 lat=unit,titan,cray fu=ideal,shared split=default,wide
//! ```
//!
//! Numeric axes also accept inclusive ranges: `issue=1..8` is
//! `issue=1,2,3,4,5,6,7,8`, and ranges mix with lists (`issue=1..4,8,16`).
//!
//! * `issue` — issue width *n* (1..=64)
//! * `pipe`  — superpipelining degree *m* (1..=16); latencies scale by *m*
//!   exactly as in [`crate::presets::superpipelined`]
//! * `lat`   — `unit` (all ones), `titan`
//!   ([`crate::presets::multititan_latencies`]) or `cray`
//!   ([`crate::presets::cray1_latencies`])
//! * `fu`    — `ideal` (per-class units, multiplicity = issue width: no
//!   class conflicts) or `shared` (the five shared units of
//!   [`crate::presets::superscalar_with_class_conflicts`])
//! * `split` — `default` (16+26 per file, §4.4) or `wide` (the 20-temp
//!   unrolling-study split)
//!
//! Cell count is capped at [`MAX_GRID_CELLS`]; an oversized grid is a typed
//! [`GridError`], never an allocation attempt — grid specs are fuzzed by
//! the torture harness's grid layer.

use crate::config::{FunctionalUnit, MachineConfig, RegisterSplit};
use crate::presets;
use std::error::Error;
use std::fmt;
use supersym_isa::{ClassTable, InstrClass};

/// Hard cap on cells a single grid may enumerate.
pub const MAX_GRID_CELLS: usize = 4096;

/// The widest issue width a grid cell or `titalc -m` preset may have.
pub const MAX_ISSUE: u32 = 64;
/// The deepest superpipelining degree a grid cell or `titalc -m` preset
/// may have.
pub const MAX_PIPE: u32 = 16;

/// A latency model axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatModel {
    /// All operation latencies one machine cycle (the ideal machines).
    Unit,
    /// MultiTitan latencies (Table 2-1).
    Titan,
    /// CRAY-1 latencies (Table 2-1).
    Cray,
}

impl LatModel {
    /// The axis value's spec/display token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LatModel::Unit => "unit",
            LatModel::Titan => "titan",
            LatModel::Cray => "cray",
        }
    }

    fn table(self) -> ClassTable<u32> {
        match self {
            LatModel::Unit => ClassTable::from_fn(|_| 1),
            LatModel::Titan => presets::multititan_latencies(),
            LatModel::Cray => presets::cray1_latencies(),
        }
    }
}

/// A functional-unit sharing axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FuModel {
    /// Per-class units, multiplicity = issue width: no class conflicts.
    Ideal,
    /// Five shared units (alu / imuldiv / mem / ctrl / fp), multiplicity 1.
    Shared,
}

impl FuModel {
    /// The axis value's spec/display token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FuModel::Ideal => "ideal",
            FuModel::Shared => "shared",
        }
    }
}

/// A register-split axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SplitModel {
    /// The paper's main 16-temp + 26-global split.
    Default,
    /// The 20-temp unrolling-study split.
    Wide,
}

impl SplitModel {
    /// The axis value's spec/display token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SplitModel::Default => "default",
            SplitModel::Wide => "wide",
        }
    }

    /// The concrete register split this axis value selects.
    #[must_use]
    pub fn split(self) -> RegisterSplit {
        match self {
            SplitModel::Default => RegisterSplit::paper_default(),
            SplitModel::Wide => RegisterSplit::unrolling_study(),
        }
    }
}

/// A malformed or oversized grid spec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GridError {
    /// A token without `=`, or an unknown axis name.
    UnknownAxis(String),
    /// An axis value that does not parse (bad number or unknown keyword).
    BadValue {
        /// The axis the value was given for.
        axis: &'static str,
        /// The offending value text.
        value: String,
    },
    /// A numeric axis value outside its allowed range.
    OutOfRange {
        /// The axis the value was given for.
        axis: &'static str,
        /// The offending value.
        value: u32,
        /// The inclusive maximum.
        max: u32,
    },
    /// The same axis appears twice.
    DuplicateAxis(&'static str),
    /// An axis with an empty value list.
    EmptyAxis(&'static str),
    /// The cross product exceeds [`MAX_GRID_CELLS`].
    TooManyCells {
        /// The requested cell count.
        cells: usize,
        /// The cap.
        max: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::UnknownAxis(token) => write!(f, "unknown grid axis `{token}`"),
            GridError::BadValue { axis, value } => {
                write!(f, "bad value `{value}` for grid axis `{axis}`")
            }
            GridError::OutOfRange { axis, value, max } => {
                write!(f, "grid axis `{axis}` value {value} exceeds maximum {max}")
            }
            GridError::DuplicateAxis(axis) => write!(f, "grid axis `{axis}` given twice"),
            GridError::EmptyAxis(axis) => write!(f, "grid axis `{axis}` has no values"),
            GridError::TooManyCells { cells, max } => {
                write!(
                    f,
                    "grid enumerates {cells} cells, more than the maximum {max}"
                )
            }
        }
    }
}

impl Error for GridError {}

/// A parsed, validated sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    issue: Vec<u32>,
    pipe: Vec<u32>,
    lat: Vec<LatModel>,
    fu: Vec<FuModel>,
    split: Vec<SplitModel>,
}

impl GridSpec {
    /// Parses a grid spec (see the module docs for the syntax).
    ///
    /// Values are deduplicated and sorted, so two specs naming the same
    /// lattice in different orders canonicalize identically.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] for unknown axes, malformed or out-of-range
    /// values, duplicate axes, or a cross product over [`MAX_GRID_CELLS`].
    pub fn parse(text: &str) -> Result<GridSpec, GridError> {
        let mut issue: Option<Vec<u32>> = None;
        let mut pipe: Option<Vec<u32>> = None;
        let mut lat: Option<Vec<LatModel>> = None;
        let mut fu: Option<Vec<FuModel>> = None;
        let mut split: Option<Vec<SplitModel>> = None;
        for token in text.split_whitespace() {
            let Some((axis, values)) = token.split_once('=') else {
                return Err(GridError::UnknownAxis(token.to_string()));
            };
            match axis {
                "issue" => set_axis(
                    &mut issue,
                    "issue",
                    parse_numbers("issue", values, MAX_ISSUE)?,
                )?,
                "pipe" => set_axis(&mut pipe, "pipe", parse_numbers("pipe", values, MAX_PIPE)?)?,
                "lat" => set_axis(
                    &mut lat,
                    "lat",
                    parse_keywords(
                        "lat",
                        values,
                        &[
                            ("unit", LatModel::Unit),
                            ("titan", LatModel::Titan),
                            ("cray", LatModel::Cray),
                        ],
                    )?,
                )?,
                "fu" => set_axis(
                    &mut fu,
                    "fu",
                    parse_keywords(
                        "fu",
                        values,
                        &[("ideal", FuModel::Ideal), ("shared", FuModel::Shared)],
                    )?,
                )?,
                "split" => set_axis(
                    &mut split,
                    "split",
                    parse_keywords(
                        "split",
                        values,
                        &[("default", SplitModel::Default), ("wide", SplitModel::Wide)],
                    )?,
                )?,
                _ => return Err(GridError::UnknownAxis(token.to_string())),
            }
        }
        let spec = GridSpec {
            issue: issue.unwrap_or_else(|| vec![1]),
            pipe: pipe.unwrap_or_else(|| vec![1]),
            lat: lat.unwrap_or_else(|| vec![LatModel::Unit]),
            fu: fu.unwrap_or_else(|| vec![FuModel::Ideal]),
            split: split.unwrap_or_else(|| vec![SplitModel::Default]),
        };
        let cells =
            spec.issue.len() * spec.pipe.len() * spec.lat.len() * spec.fu.len() * spec.split.len();
        if cells > MAX_GRID_CELLS {
            return Err(GridError::TooManyCells {
                cells,
                max: MAX_GRID_CELLS,
            });
        }
        Ok(spec)
    }

    /// The canonical textual form: fixed axis order, sorted deduplicated
    /// values. `GridSpec::parse(spec.canonical())` reproduces `spec`, and
    /// the sweep checkpoint header hashes exactly this string.
    #[must_use]
    pub fn canonical(&self) -> String {
        let join_nums = |ns: &[u32]| ns.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        format!(
            "issue={} pipe={} lat={} fu={} split={}",
            join_nums(&self.issue),
            join_nums(&self.pipe),
            self.lat
                .iter()
                .map(|v| v.name())
                .collect::<Vec<_>>()
                .join(","),
            self.fu
                .iter()
                .map(|v| v.name())
                .collect::<Vec<_>>()
                .join(","),
            self.split
                .iter()
                .map(|v| v.name())
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// The number of cells the grid enumerates (≤ [`MAX_GRID_CELLS`]).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.issue.len() * self.pipe.len() * self.lat.len() * self.fu.len() * self.split.len()
    }

    /// All cells in canonical (row-major over issue → pipe → lat → fu →
    /// split) order, indices assigned in that order. The order is part of
    /// the checkpoint contract: cell indices in a `supersym.sweep/v1` file
    /// refer to this enumeration of the header's grid text.
    #[must_use]
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.cell_count());
        let mut index = 0_usize;
        for &n in &self.issue {
            for &m in &self.pipe {
                for &lat in &self.lat {
                    for &fu in &self.fu {
                        for &split in &self.split {
                            out.push(GridCell {
                                index,
                                issue_width: n,
                                pipe_degree: m,
                                lat,
                                fu,
                                split,
                            });
                            index += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// The register-split axis values (one compile front end per value).
    #[must_use]
    pub fn splits(&self) -> &[SplitModel] {
        &self.split
    }
}

fn set_axis<T>(
    slot: &mut Option<Vec<T>>,
    axis: &'static str,
    values: Vec<T>,
) -> Result<(), GridError> {
    if slot.is_some() {
        return Err(GridError::DuplicateAxis(axis));
    }
    *slot = Some(values);
    Ok(())
}

fn parse_numbers(axis: &'static str, text: &str, max: u32) -> Result<Vec<u32>, GridError> {
    let bad = |value: &str| GridError::BadValue {
        axis,
        value: value.to_string(),
    };
    let mut out = Vec::new();
    for part in text.split(',') {
        // A part is either one number or an inclusive range `lo..hi`.
        let (lo, hi) = match part.split_once("..") {
            Some((lo, hi)) => (
                lo.parse().map_err(|_| bad(part))?,
                hi.parse().map_err(|_| bad(part))?,
            ),
            None => {
                let value: u32 = part.parse().map_err(|_| bad(part))?;
                (value, value)
            }
        };
        if lo > hi {
            return Err(bad(part));
        }
        for value in lo..=hi {
            if value == 0 || value > max {
                return Err(GridError::OutOfRange { axis, value, max });
            }
            out.push(value);
        }
    }
    if out.is_empty() {
        return Err(GridError::EmptyAxis(axis));
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

fn parse_keywords<T: Copy + Ord>(
    axis: &'static str,
    text: &str,
    table: &[(&str, T)],
) -> Result<Vec<T>, GridError> {
    let mut out = Vec::new();
    for part in text.split(',') {
        let Some(&(_, value)) = table.iter().find(|(name, _)| *name == part) else {
            return Err(GridError::BadValue {
                axis,
                value: part.to_string(),
            });
        };
        out.push(value);
    }
    if out.is_empty() {
        return Err(GridError::EmptyAxis(axis));
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// One point of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Position in the grid's canonical enumeration order.
    pub index: usize,
    /// Issue width *n*.
    pub issue_width: u32,
    /// Superpipelining degree *m*.
    pub pipe_degree: u32,
    /// Latency model.
    pub lat: LatModel,
    /// Functional-unit sharing model.
    pub fu: FuModel,
    /// Register-split model.
    pub split: SplitModel,
}

impl GridCell {
    /// The cell's stable display name, e.g. `n2.m2.titan.shared.default`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "n{}.m{}.{}.{}.{}",
            self.issue_width,
            self.pipe_degree,
            self.lat.name(),
            self.fu.name(),
            self.split.name()
        )
    }

    /// Builds the cell's machine description, by the same constructions as
    /// the paper presets: the latency model's table scaled by the pipe
    /// degree (as in `superpipelined`), per-class or shared functional
    /// units, and the chosen register split.
    #[must_use]
    pub fn config(&self) -> MachineConfig {
        let mut builder = MachineConfig::builder(self.name());
        builder
            .issue_width(self.issue_width)
            .pipe_degree(self.pipe_degree)
            .latencies(self.lat.table())
            .scale_latencies(self.pipe_degree)
            .register_split(self.split.split());
        if self.fu == FuModel::Shared {
            for (name, classes) in shared_units() {
                builder.functional_unit(FunctionalUnit::new(name, classes, 1, 1));
            }
        }
        builder
            .build()
            .expect("grid cells are valid by construction")
    }

    /// A coarse hardware-cost proxy for the Pareto report: the issue /
    /// decode / bypass fabric scales with `n * m` (the paper's "parallelism
    /// required to fully utilize"), and sharing the functional units
    /// instead of duplicating them per class saves roughly the non-fabric
    /// 40% of the datapath. Unitless; only ratios between cells matter.
    #[must_use]
    pub fn hardware_cost(&self) -> f64 {
        let fabric = f64::from(self.issue_width) * f64::from(self.pipe_degree);
        match self.fu {
            FuModel::Ideal => fabric,
            FuModel::Shared => fabric * 0.6,
        }
    }
}

fn shared_units() -> [(&'static str, Vec<InstrClass>); 5] {
    [
        (
            "alu",
            vec![
                InstrClass::Logical,
                InstrClass::Shift,
                InstrClass::IntAdd,
                InstrClass::Compare,
            ],
        ),
        ("imuldiv", vec![InstrClass::IntMul, InstrClass::IntDiv]),
        ("mem", vec![InstrClass::Load, InstrClass::Store]),
        ("ctrl", vec![InstrClass::Branch, InstrClass::Jump]),
        (
            "fp",
            vec![
                InstrClass::FpAdd,
                InstrClass::FpMul,
                InstrClass::FpDiv,
                InstrClass::FpCvt,
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_base_machine() {
        let spec = GridSpec::parse("").unwrap();
        assert_eq!(spec.cell_count(), 1);
        let cell = spec.cells()[0];
        let config = cell.config();
        assert_eq!(config.issue_width(), 1);
        assert_eq!(config.pipe_degree(), 1);
        assert_eq!(
            config.fingerprint(),
            presets::base().fingerprint(),
            "the default grid cell must be the base machine"
        );
    }

    #[test]
    fn ranges_expand_and_mix_with_lists() {
        let spec = GridSpec::parse("issue=1..4,8 pipe=2..2").unwrap();
        assert_eq!(
            spec.canonical(),
            "issue=1,2,3,4,8 pipe=2 lat=unit fu=ideal split=default"
        );
        for bad in [
            "issue=4..1",
            "issue=1..",
            "issue=..4",
            "issue=0..4",
            "issue=1..65",
        ] {
            assert!(GridSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn presets_are_cells_of_the_map() {
        let spec = GridSpec::parse("issue=1,2,4 pipe=1,2,4 lat=unit fu=ideal,shared").unwrap();
        let cells = spec.cells();
        let find = |n: u32, m: u32, fu: FuModel| {
            *cells
                .iter()
                .find(|c| c.issue_width == n && c.pipe_degree == m && c.fu == fu)
                .unwrap()
        };
        assert_eq!(
            find(2, 1, FuModel::Ideal).config().fingerprint(),
            presets::ideal_superscalar(2).fingerprint()
        );
        assert_eq!(
            find(1, 4, FuModel::Ideal).config().fingerprint(),
            presets::superpipelined(4).fingerprint()
        );
        assert_eq!(
            find(4, 1, FuModel::Shared).config().fingerprint(),
            presets::superscalar_with_class_conflicts(4).fingerprint()
        );
        assert_eq!(
            find(2, 2, FuModel::Ideal).config().fingerprint(),
            presets::superpipelined_superscalar(2, 2).fingerprint()
        );
    }

    #[test]
    fn titan_and_cray_cells_match_the_presets() {
        let spec = GridSpec::parse("lat=titan,cray").unwrap();
        let cells = spec.cells();
        let titan = cells.iter().find(|c| c.lat == LatModel::Titan).unwrap();
        let cray = cells.iter().find(|c| c.lat == LatModel::Cray).unwrap();
        assert_eq!(
            titan.config().fingerprint(),
            presets::multititan().fingerprint()
        );
        assert_eq!(cray.config().fingerprint(), presets::cray1().fingerprint());
    }

    #[test]
    fn canonical_form_round_trips_and_sorts() {
        let spec = GridSpec::parse("pipe=2,1 issue=4,2,2 lat=cray,unit").unwrap();
        let canonical = spec.canonical();
        assert_eq!(
            canonical,
            "issue=2,4 pipe=1,2 lat=unit,cray fu=ideal split=default"
        );
        assert_eq!(GridSpec::parse(&canonical).unwrap(), spec);
    }

    #[test]
    fn cell_indices_are_dense_and_ordered() {
        let spec = GridSpec::parse("issue=1,2 pipe=1,2 fu=ideal,shared").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        for (at, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, at);
        }
        // issue is the outermost axis.
        assert_eq!(cells[0].issue_width, 1);
        assert_eq!(cells[7].issue_width, 2);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert!(matches!(
            GridSpec::parse("bogus=1"),
            Err(GridError::UnknownAxis(_))
        ));
        assert!(matches!(
            GridSpec::parse("issue"),
            Err(GridError::UnknownAxis(_))
        ));
        assert!(matches!(
            GridSpec::parse("issue=x"),
            Err(GridError::BadValue { axis: "issue", .. })
        ));
        assert!(matches!(
            GridSpec::parse("issue=0"),
            Err(GridError::OutOfRange { axis: "issue", .. })
        ));
        assert!(matches!(
            GridSpec::parse("pipe=99"),
            Err(GridError::OutOfRange { axis: "pipe", .. })
        ));
        assert!(matches!(
            GridSpec::parse("lat=warp"),
            Err(GridError::BadValue { axis: "lat", .. })
        ));
        assert!(matches!(
            GridSpec::parse("issue=1 issue=2"),
            Err(GridError::DuplicateAxis("issue"))
        ));
    }

    #[test]
    fn oversized_grids_are_rejected_not_enumerated() {
        // 64 issue values cannot be expressed (range is 1..=64, so a full
        // list is possible); combine axes to exceed the cap instead.
        let values: Vec<String> = (1..=64).map(|n| n.to_string()).collect();
        let spec_text = format!(
            "issue={} pipe={} lat=unit,titan,cray fu=ideal,shared",
            values.join(","),
            (1..=16)
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        match GridSpec::parse(&spec_text) {
            Err(GridError::TooManyCells { cells, max }) => {
                assert_eq!(cells, 64 * 16 * 3 * 2);
                assert_eq!(max, MAX_GRID_CELLS);
            }
            other => panic!("expected TooManyCells, got {other:?}"),
        }
    }

    #[test]
    fn hardware_cost_orders_sensibly() {
        let cell = |n, m, fu| GridCell {
            index: 0,
            issue_width: n,
            pipe_degree: m,
            lat: LatModel::Unit,
            fu,
            split: SplitModel::Default,
        };
        assert!(
            cell(4, 1, FuModel::Ideal).hardware_cost() > cell(2, 1, FuModel::Ideal).hardware_cost()
        );
        assert!(
            cell(2, 2, FuModel::Ideal).hardware_cost() > cell(2, 1, FuModel::Ideal).hardware_cost()
        );
        assert!(
            cell(4, 1, FuModel::Shared).hardware_cost()
                < cell(4, 1, FuModel::Ideal).hardware_cost()
        );
        assert_eq!(cell(1, 1, FuModel::Ideal).hardware_cost(), 1.0);
    }

    #[test]
    fn cell_names_are_stable() {
        let spec = GridSpec::parse("issue=2 pipe=2 lat=titan fu=shared split=wide").unwrap();
        assert_eq!(spec.cells()[0].name(), "n2.m2.titan.shared.wide");
    }
}
