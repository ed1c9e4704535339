//! # trios-cli — command-line front end
//!
//! The `trios` binary a downstream user drives the compiler with:
//!
//! ```text
//! trios list
//! trios table1
//! trios compile grovers-9 --device johannesburg --router baseline
//! trios compile program.qasm --device line:12 --emit-qasm out.qasm
//! trios estimate cuccaro_adder-20 --device grid:5x4 --improve 20
//! ```
//!
//! All command logic lives in [`run`], which returns the rendered output
//! so the test suite can exercise every path without spawning processes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
mod commands;
mod error;

pub use args::{parse_device, Command, Options};
pub use commands::run;
pub use error::CliError;

/// Entry point used by the `trios` binary.
pub fn commands_main() -> std::process::ExitCode {
    commands::main_impl()
}
