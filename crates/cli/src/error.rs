//! CLI errors.

use std::error::Error;
use std::fmt;

/// An error from argument parsing or command execution.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or malformed flags.
    Usage(String),
    /// A device spec is unknown, malformed, or too large.
    Device(trios_topology::SpecError),
    /// Reading an input file failed.
    Io(std::io::Error),
    /// A request value (input, router, decomposer, calibration, crosstalk
    /// or family) names nothing the compiler knows, or input QASM does not
    /// parse.
    Request(trios_core::request::RequestError),
    /// Compilation failed; the diagnostic names the failing pass.
    Compile(trios_core::Diagnostic),
    /// One batch input file could not be read or parsed.
    BatchFile {
        /// The offending file.
        file: String,
        /// The underlying read or parse failure.
        message: String,
    },
    /// One circuit of a batch compilation failed.
    Batch {
        /// The input file that failed to compile.
        file: String,
        /// The failure, including the batch index.
        source: trios_core::BatchDiagnostic,
    },
    /// An evaluation sweep failed (malformed grid or a cell that would
    /// not compile).
    Sweep(trios_core::SweepError),
    /// A fuzz run could not start (malformed spec).
    FuzzSpec(trios_core::FuzzError),
    /// A fuzz run finished and found failing cells; the full report is
    /// carried so the driver can print it before exiting nonzero.
    FuzzFailed {
        /// Number of failing cells.
        failures: usize,
        /// The rendered [`trios_core::FuzzReport`].
        report: String,
    },
    /// A forced `--backend` skipped every cell it was asked to check,
    /// so the run verified nothing. A clean exit here would report a
    /// de-facto PASS that no simulator ever backed.
    FuzzAllSkipped {
        /// The forced backend.
        backend: String,
        /// Number of compiled cells, all of which were skipped.
        skipped: usize,
        /// The rendered [`trios_core::FuzzReport`] with the skip reasons.
        report: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Device(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Request(e) => write!(f, "{e}"),
            CliError::Compile(e) => write!(f, "compile error: {e}"),
            CliError::BatchFile { file, message } => {
                write!(f, "batch input {file}: {message}")
            }
            CliError::Batch { file, source } => {
                write!(f, "batch compile error in {file}: {}", source.diagnostic)
            }
            CliError::Sweep(e) => write!(f, "sweep error: {e}"),
            CliError::FuzzSpec(e) => write!(f, "fuzz error: {e}"),
            CliError::FuzzFailed { failures, report } => {
                write!(f, "{report}\nfuzz found {failures} failing cells")
            }
            CliError::FuzzAllSkipped {
                backend,
                skipped,
                report,
            } => {
                write!(
                    f,
                    "{report}\nforced backend '{backend}' skipped all {skipped} \
                     compiled cells: nothing was verified"
                )
            }
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Request(e) => Some(e),
            CliError::Compile(e) => Some(e),
            CliError::Device(e) => Some(e),
            CliError::Batch { source, .. } => Some(source),
            CliError::Sweep(e) => Some(e),
            CliError::FuzzSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<trios_core::SweepError> for CliError {
    fn from(e: trios_core::SweepError) -> Self {
        CliError::Sweep(e)
    }
}

impl From<trios_core::FuzzError> for CliError {
    fn from(e: trios_core::FuzzError) -> Self {
        CliError::FuzzSpec(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<trios_core::request::RequestError> for CliError {
    fn from(e: trios_core::request::RequestError) -> Self {
        CliError::Request(e)
    }
}

impl From<trios_core::Diagnostic> for CliError {
    fn from(d: trios_core::Diagnostic) -> Self {
        CliError::Compile(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CliError::Usage("missing --device".into())
            .to_string()
            .contains("--device"));
        let unknown = "nope".parse::<trios_core::request::CircuitRef>();
        assert!(CliError::Request(unknown.unwrap_err())
            .to_string()
            .contains("nope"));
    }
}
