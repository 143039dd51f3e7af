//! # uopcache-model
//!
//! Core vocabulary types shared by every crate in the `uopcache` workspace:
//! byte/line addresses, prediction windows (PWs), hardware configuration
//! presets, and statistics containers.
//!
//! The micro-op cache operates on *prediction windows*: sequences of decoded
//! micro-ops that start at a branch target and terminate on a predicted-taken
//! branch or an instruction-cache line boundary. A PW's **cost** is its number
//! of micro-ops and its **size** is the number of micro-op cache entries it
//! occupies — the two quantities every replacement decision in the paper
//! revolves around.
//!
//! # Examples
//!
//! ```
//! use uopcache_model::{Addr, PwDesc, PwTermination};
//!
//! let pw = PwDesc::new(Addr::new(0x4000), 11, 24, PwTermination::TakenBranch);
//! assert_eq!(pw.cost(), 11);            // 11 micro-ops
//! assert_eq!(pw.entries(8), 2);         // spans two 8-uop entries
//! ```

pub mod access;
pub mod addr;
pub mod config;
pub mod hash;
pub mod json;
pub mod pw;
pub mod rng;
pub mod stats;

pub use access::{LookupTrace, PwAccess};
pub use addr::{Addr, LineAddr};
pub use config::{
    BackendConfig, BpuConfig, ConfigError, DecoderConfig, FrontendConfig, IcacheConfig,
    PerfectStructures, UopCacheConfig, MAX_UOP_CACHE_ENTRIES,
};
pub use pw::{PwDesc, PwTermination, MAX_PW_BYTES, MAX_PW_UOPS};
pub use stats::{CacheStats, EventCounts, SimResult, UopCacheStats};
