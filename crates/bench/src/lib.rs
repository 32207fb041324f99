//! Shared benchmark-harness code for regenerating the paper's tables and
//! figures.
//!
//! The `figures` binary (in `src/bin`) prints each table/figure's rows or
//! series — the paper's reproductions and nothing else; the layers built
//! beyond the paper are measured by `ccbench`. The setup code lives
//! here: building every index method over a common key set, running the
//! paper's 100 k-lookup protocol on host wall-clock or a simulated
//! machine, and formatting the output.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod methods;
pub mod protocol;
pub mod report;

pub use methods::{all_methods, MethodInstance};
pub use protocol::{run_lookup_protocol, simulate_lookup_protocol, Measurement};
pub use report::{print_series, Series};
