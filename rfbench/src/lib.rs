//! Building blocks of the rustflow benchmark (`src/main.rs`): the span
//! recorder, the per-layer attribution of a traced run, summary
//! statistics and the machine fingerprint. See `README.md` in this
//! directory for the workloads and metrics.

pub mod layers;
pub mod machine;
pub mod spans;
pub mod stats;
