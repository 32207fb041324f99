//! The five workloads. Each module opens with why it exists; each layer
//! likely to be optimised does most of the work in one of them and little
//! in another, so a change predicts movement here and stillness there.

use crate::harness::{Config, EndToEnd, Layers};
use crate::trace::Tracer;

mod dss;
mod dss_tcp;
mod engine_mix;
mod index_probe;
mod refresh;
mod serve_small;

pub type Run = fn(&Config) -> Result<EndToEnd, String>;
pub type Trace = fn(&Config, &mut Tracer) -> Result<Layers, String>;

/// `(name, end-to-end run, traced ladder)`, in `BENCHMARK.json` order.
pub const ALL: [(&str, Run, Trace); 5] = [
    ("index-probe", index_probe::run, index_probe::trace),
    ("engine-mix", engine_mix::run, engine_mix::trace),
    ("serve-small", serve_small::run, serve_small::trace),
    ("dss-tcp", dss_tcp::run, dss_tcp::trace),
    ("refresh", refresh::run, refresh::trace),
];

pub fn find(name: &str) -> Option<(Run, Trace)> {
    ALL.iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, run, trace)| (run, trace))
}
