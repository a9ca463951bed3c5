//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6) plus the quantified claims of §2.2, §3.2 and §7.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows; the `report` binary prints every one of them (fig1,
//! E1–E21 and the ablations) side by side with the paper's published
//! values. An experiment's rules are functions beside its outcome type
//! that return the violations they found (`transport`, `edge`,
//! `workload`, `resilience`); its unit tests and `report` call them, and
//! `tests/golden_tables.rs` pins the modelled numbers exactly. Wall
//! clock is the out-of-workspace `benchmark/` package's job. See
//! DESIGN.md for the experiment index (E1–E21) and EXPERIMENTS.md for
//! recorded paper-vs-measured results.

pub mod experiments;
pub mod table;

pub use table::Table;
