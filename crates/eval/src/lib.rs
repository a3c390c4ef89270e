//! Experiment harness reproducing the paper's evaluation (§8–§9).
//!
//! * [`methods`] — the method registry (paper naming scheme: `P`, `Pc`,
//!   `PB`, `PBc`, `RPf`, `RPx`, `RPs`, `RPxp`, `BI`, `BIc`, `RBIcxp`, …);
//! * [`cv`] — hyperparameter optimisation of SD algorithms (the "c"
//!   suffix, Table 2);
//! * [`experiment`] — the repeated-run driver with grid-level
//!   parallelism and consistency aggregation;
//! * [`workunit`] — the deterministic rep × method work-unit
//!   decomposition (stable seeding, spec fingerprints, sharding);
//! * [`jsonl`] — the append-only JSONL log under the shard checkpoints
//!   and the fleet's lease journal: atomic appends, torn-tail-tolerant
//!   loading, resume by temp-file rename;
//! * [`checkpoint`] — JSONL shard checkpoints over that log:
//!   fingerprint-validated resume and merging;
//! * [`stats`] — Wilcoxon rank-sum / signed-rank, Friedman, Spearman;
//! * [`report`] — markdown rendering of experiment summaries;
//! * [`savings`] — the "X % fewer simulations" analysis from learning
//!   curves (the paper's headline number).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cv;
pub mod experiment;
pub mod jsonl;
pub mod methods;
pub mod report;
pub mod savings;
pub mod stats;
pub mod workunit;

pub use checkpoint::{
    load_checkpoint, merge_records, unit_key, CheckpointError, CheckpointHeader, CheckpointWriter,
    ShardCheckpoint, UnitRecord, CHECKPOINT_SCHEMA_VERSION,
};
pub use experiment::{
    aggregate_units, execute_unit, execute_units, execute_units_with, experiment_test_set,
    run_experiment, strip_runtimes, AggregationError, Design, Evaluation, ExperimentSpec,
    MethodSummary,
};
pub use methods::{run_method, MethodOpts, UnknownMethod, BI_FAMILY, PRIM_FAMILY};
pub use workunit::{enumerate_units, shard_units, spec_fingerprint, WorkUnit};
