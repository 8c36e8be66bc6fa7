//! # mem-hierarchy
//!
//! Memory-hierarchy simulators and analyses for the predictability
//! reproduction: the paper's Section 3.4 ("Memory Hierarchy") surveys
//! method caches, split caches, static cache locking and predictable
//! DRAM controllers, and its Section 4 cites Reineke et al.'s cache
//! predictability metrics. This crate provides the cache side of all of
//! that:
//!
//! * [`policy`] — replacement policies (LRU, FIFO, PLRU, MRU, random)
//!   as explicit per-set automata, usable both by the concrete
//!   simulator and by exhaustive state-space exploration.
//! * [`cache`] — a parametric set-associative cache simulator.
//! * [`metrics`] — the *evict*/*fill* predictability metrics of Reineke
//!   et al., computed by uncertainty-set exploration (the "optimal
//!   analysis" the paper demands made concrete).
//! * [`analysis`] — abstract must/may cache analysis for LRU
//!   (Ferdinand-style), classifying accesses as always-hit /
//!   always-miss / unclassified.
//! * [`method_cache`] — Schoeberl's method cache: whole functions are
//!   cached; misses occur only at call/return.
//! * [`split_cache`] — split data caches with a fully associative heap
//!   cache (Schoeberl et al.), measuring static classifiability.
//! * [`locking`] — static cache locking (Puaut & Decotigny) with two
//!   lock-content selection algorithms.
//! * [`spm`] — scratchpad memory with a greedy allocation algorithm.
//! * [`trace`] — extraction of instruction/data address streams from
//!   `tinyisa` execution traces.

pub mod analysis;
pub mod cache;
pub mod locking;
pub mod method_cache;
pub mod metrics;
pub mod policy;
pub mod split_cache;
pub mod spm;
pub mod trace;

pub use cache::{AccessResult, Cache, CacheConfig};
pub use metrics::{
    compute_metrics, compute_metrics_by_name, MetricsError, PolicyKind, PredictabilityMetrics,
};
pub use policy::{Fifo, Lru, Mru, Plru, Policy, RandomPolicy};
