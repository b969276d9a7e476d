//! A small scenario DSL for driving the simulator from text files.
//!
//! The repo's applications (Graph500, STREAM, SpMV) hardcode their
//! phase structure; this crate lets a user describe *any* workload —
//! buffers, criteria, phases, migrations — in a plain text file and
//! run it against any built-in platform
//! ([`hetmem_memsim::Machine::PLATFORMS`]), without recompiling:
//!
//! ```text
//! # two-phase capacity conflict on the KNL
//! machine knl-flat
//! initiator 0-15
//! threads 16
//!
//! alloc hot   3GiB bandwidth spill
//! alloc bulk 10GiB capacity  next
//!
//! phase traverse
//!   read  hot  12GiB seq
//!   read  bulk  2GiB random
//!   compute 5ms
//! end
//!
//! free hot
//! migrate bulk bandwidth
//!
//! phase drain
//!   write bulk 10GiB seq
//! end
//! ```
//!
//! Run with `hetmem-run scenario.txt` (see the `scenarios/` directory
//! for ready-made files) or programmatically via [`parse`] and
//! [`execute`].

#![warn(missing_docs)]
mod exec;
mod parse;

pub use exec::{
    execute, execute_with_options, execute_with_sink, ExecError, ExecOptions, FederationSummary,
    PhaseOutcome, ScenarioReport,
};
pub use parse::{parse, AccessSpec, Command, ParseError, PhaseSpec, Scenario, Stmt};
