//! End-to-end pipeline benchmark for the WiScape coordinator.
//!
//! This library holds the deterministic half of the benchmark: the
//! seeded client-stream generator ([`stream`]), the correctness checks
//! ([`checks`]), the span recorder and self-time derivation
//! ([`trace`]), and small numeric helpers ([`stats`], [`sha256`]). The
//! timing harness lives in `benches/pipeline.rs`; `run.py` builds and
//! runs it and is the command `BENCHMARK.json` names. See `README.md` for the
//! workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod checks;
pub mod sha256;
pub mod stats;
pub mod stream;
pub mod trace;
