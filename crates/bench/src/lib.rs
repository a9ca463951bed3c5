//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6) plus the quantified claims of §2.2, §3.2 and §7.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows; the `report` binary prints E1–E16 side by side with
//! the paper's published values, and the `sww` CLI's `bench-*` commands
//! run E17–E21 and judge them by the rules in [`report`]. Wall clock is
//! the out-of-workspace `benchmark/` package's job. See DESIGN.md for
//! the experiment index (E1–E21) and EXPERIMENTS.md for recorded
//! paper-vs-measured results.

pub mod experiments;
pub mod report;
pub mod table;

pub use table::Table;
