//! Workload generation for the ccindex experiments.
//!
//! §6.1 of the paper fixes the experimental protocol: "All the keys are
//! distinct integers and are chosen randomly. Each key takes four bytes.
//! The keys to look up are generated in advance ... We performed 100,000
//! searches on randomly chosen matching keys." This crate reproduces that
//! protocol and adds the variations the paper discusses qualitatively:
//!
//! * [`keys`] — distinct random key sets (plus evenly spaced / clustered /
//!   polynomially skewed value distributions used to probe interpolation
//!   search, §3 "It doesn't perform very well on random data and performs
//!   even worse on non-uniform data"),
//! * [`lookups`] — pre-generated probe streams: all-hit, hit/miss mixes,
//!   and Zipf-skewed hot-key streams (warm-cache behaviour, §5.1),
//! * [`zipf`] — a small exact Zipf sampler (kept dependency-free).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod keys;
pub mod lookups;
pub mod zipf;

pub use keys::{KeyDistribution, KeySetBuilder};
pub use lookups::{LookupStream, MissMode};
pub use zipf::Zipf;

/// Default experiment seed; all generators are deterministic given a seed.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE_F00D_0001;

/// The paper's lookup count per measurement (§6.1).
pub const PAPER_LOOKUPS: usize = 100_000;
