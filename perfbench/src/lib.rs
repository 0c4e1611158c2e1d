//! The TeNDaX keystroke-path benchmark: two workloads driving the
//! public API of the engine crates from outside, end-to-end metrics,
//! per-layer metrics from a traced run, and a correctness gate per
//! workload.

pub mod common;
pub mod corpus_meta;
pub mod lan_party;
pub mod layers;
pub mod pinned;
pub mod report;
pub mod services;
pub mod trace;
