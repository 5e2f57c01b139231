//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation, and the ablations of the designs it rejects, as text
//! reports.
//!
//! The `tables` binary prints any report:
//!
//! ```text
//! cargo run -p xover-bench --bin tables -- --all
//! cargo run -p xover-bench --bin tables -- --table 4
//! cargo run -p xover-bench --bin tables -- --figure 2
//! cargo run -p xover-bench --bin tables -- --ablations
//! ```
//!
//! `tests/golden.rs` holds `tables --all`, `tables --ablations` and
//! `sweeps all` to the files under `golden/`, byte for byte.

pub mod reports;

pub use reports::{
    ablations, figure1, figure2, figure3, figure4, figure5, table1, table3, table4, table5, table6,
    table7,
};
