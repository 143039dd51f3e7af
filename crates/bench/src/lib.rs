//! # uopcache-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation. Each figure is an entry in the [`experiments`]
//! registry, run by `uopcache experiment ID` (or all of them by
//! `uopcache experiment all`), built on the shared machinery here:
//!
//! * [`apps`] — the standard application set, trace lengths and cached trace
//!   construction;
//! * [`policies`] — a name-indexed factory over every online policy;
//! * [`runs`] — memoised per-(app, policy, config) simulation runs;
//! * [`sweep`] — the parallel sweep layer over the `uopcache-exec` engine:
//!   process-wide `--jobs` knob, canonical task keying, deterministic
//!   `(app × policy)` sweeps with canonical JSON reports;
//! * [`table`] — paper-vs-measured table rendering;
//! * [`experiments`] — one function per table/figure, returning structured
//!   results that [`experiments::render_report`] serialises into
//!   `EXPERIMENTS.md`;
//! * [`hotpath`] — the cache-kernel throughput benchmark behind
//!   `uopcache bench-hotpath` and its baseline gate.

pub mod apps;
pub mod experiments;
pub mod hotpath;
pub mod policies;
pub mod runs;
pub mod sweep;
pub mod table;

pub use apps::{standard_apps, trace_for, TRACE_LEN};
pub use table::Table;
