//! # uopcache-trace
//!
//! Synthetic data-center workload generation for the `uopcache` simulator.
//!
//! The paper drives its evaluation with Intel PT traces of 11 open-source
//! data center applications (Table II). Those traces are not redistributable
//! here, so this crate synthesizes statistically equivalent **prediction
//! window lookup streams**:
//!
//! 1. [`Program::synthesize`] builds a static program — code regions made of
//!    basic blocks with realistic instruction byte/micro-op counts and branch
//!    behaviour — seeded **per application only**, so every input variant of
//!    an application shares the same binary (a requirement for profile-guided
//!    policies to transfer across inputs, as in the paper's Fig. 18).
//!    [`Program::shared`] synthesizes each application's program once per
//!    process, and [`build_trace`]/[`build_trace_scaled`] walk that copy.
//! 2. [`Walker`] walks the program with phase behaviour, Zipfian region
//!    popularity and stochastic branch outcomes, seeded per
//!    `(application, input variant)`.
//! 3. [`PwBuilder`] reconstructs the PW lookup stream from the dynamic
//!    basic-block stream: windows terminate at predicted-taken branches and
//!    64-byte i-cache line boundaries, which yields variable PW costs and
//!    overlapping windows with shared start addresses — the properties FLACK
//!    and FURBYS exploit.
//!
//! # Examples
//!
//! ```
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let trace = build_trace(AppId::Kafka, InputVariant::default(), 10_000);
//! assert_eq!(trace.len(), 10_000);
//! // Data-center footprints dwarf a 512-entry micro-op cache.
//! assert!(trace.footprint_entries(8) > 512);
//! ```

pub mod generator;
pub mod io;
pub mod program;
pub mod pwstream;
pub mod stats;
pub mod walker;
pub mod workload;
pub mod zipf;

pub use generator::{
    build_trace, build_trace_scaled, build_trace_scaled_with_spec, build_trace_with_spec,
};
pub use io::TraceIoError;
pub use program::{Bb, BbTarget, BranchKind, Program, Region};
pub use pwstream::PwBuilder;
pub use stats::TraceStats;
pub use walker::{BlockExec, Walker};
pub use workload::{AppId, InputVariant, WorkloadSpec};
pub use zipf::Zipf;
