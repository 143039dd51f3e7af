//! `uopcache` — command-line driver for the micro-op cache simulator.
//!
//! ```text
//! uopcache gen --app kafka --variant 0 --len 100000 -o kafka.trc
//! uopcache stats -i kafka.trc
//! uopcache simulate -i kafka.trc --policy furbys
//! uopcache profile -i kafka.trc --oracle flack -o hints.json
//! uopcache compare -i kafka.trc
//! uopcache experiment fig08 [--quick]
//! uopcache experiment all > EXPERIMENTS.md
//! uopcache apps
//! ```

mod args;
mod commands;

use std::process::ExitCode;

/// The binary counts heap allocations so `bench-hotpath` can report
/// allocations-per-lookup (the kernel's headline zero-allocation property).
/// The wrapper delegates straight to `System` with two relaxed atomic
/// increments per call — unobservable next to the allocation itself.
#[global_allocator]
static ALLOC: uopcache_bench::hotpath::CountingAllocator =
    uopcache_bench::hotpath::CountingAllocator::new();

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // A failed check already printed its findings — the usage text
            // is only for argument mistakes.
            if !e.is::<args::CheckFailed>() {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
