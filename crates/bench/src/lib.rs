//! The paper's evaluation, reproduced: the table of its figures
//! ([`figures`], run by `cargo bench -p bench --bench figures`) and the
//! `lockbench` command line ([`cli`]) that runs any other grid — both thin
//! layers over the unified experiment API,
//! [`ExperimentSpec`](harness::experiments::ExperimentSpec). Each writes
//! CSV + JSON reports under `target/experiments/`.

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
