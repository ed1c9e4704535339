//! Parse errors.

use std::error::Error;
use std::fmt;

/// An error encountered while parsing OpenQASM 2.0 source.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// The source did not start with a supported `OPENQASM` version.
    UnsupportedVersion {
        /// The version string found (or a description of what was found).
        found: String,
    },
    /// A token that does not fit the grammar at this position.
    Unexpected {
        /// 1-based line number.
        line: usize,
        /// What the parser found.
        found: String,
        /// What it was expecting.
        expected: String,
    },
    /// A gate application naming a gate this library does not know.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        name: String,
    },
    /// A gate applied with the wrong number of qubits or parameters.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        name: String,
        /// Expected operand or parameter count.
        expected: usize,
        /// Found operand or parameter count.
        found: usize,
    },
    /// A reference to an undeclared register or an out-of-range index.
    BadReference {
        /// 1-based line number.
        line: usize,
        /// Description of the reference.
        reference: String,
    },
    /// A gate applied to one qubit more than once, as in `cx q[0], q[0];`.
    RepeatedQubit {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        name: String,
        /// The repeated operand, spelled `register[index]`.
        qubit: String,
    },
    /// A register declaration past the width cap,
    /// [`MAX_QUBITS`](crate::MAX_QUBITS): the quantum registers together,
    /// or one classical register, would be wider.
    TooWide {
        /// 1-based line number of the declaration.
        line: usize,
        /// The register declared.
        register: String,
        /// `true` for a `qreg`, `false` for a `creg`.
        quantum: bool,
        /// The cap.
        max: usize,
    },
    /// A broadcast, such as `h q;` over a whole register, that would take
    /// the program past [`MAX_INSTRUCTIONS`](crate::MAX_INSTRUCTIONS)
    /// instructions.
    TooManyInstructions {
        /// 1-based line number of the broadcast.
        line: usize,
        /// The cap.
        max: usize,
    },
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::UnsupportedVersion { found } => {
                write!(f, "unsupported OpenQASM version: {found}")
            }
            QasmError::Unexpected {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected}, found {found}"),
            QasmError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate '{name}'")
            }
            QasmError::WrongArity {
                line,
                name,
                expected,
                found,
            } => write!(
                f,
                "line {line}: gate '{name}' takes {expected} arguments, found {found}"
            ),
            QasmError::BadReference { line, reference } => {
                write!(f, "line {line}: invalid reference {reference}")
            }
            QasmError::RepeatedQubit { line, name, qubit } => {
                write!(
                    f,
                    "line {line}: gate '{name}' names qubit {qubit} more than once"
                )
            }
            QasmError::TooWide {
                line,
                register,
                quantum: true,
                max,
            } => write!(
                f,
                "line {line}: qreg '{register}' takes the quantum registers past the \
                 {max}-qubit cap"
            ),
            QasmError::TooWide {
                line,
                register,
                quantum: false,
                max,
            } => write!(
                f,
                "line {line}: creg '{register}' is past the {max}-bit cap"
            ),
            QasmError::TooManyInstructions { line, max } => write!(
                f,
                "line {line}: broadcast takes the program past the {max}-instruction cap"
            ),
        }
    }
}

impl Error for QasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = QasmError::UnknownGate {
            line: 4,
            name: "frobnicate".into(),
        };
        assert!(e.to_string().contains("line 4"));
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(QasmError::UnsupportedVersion {
            found: "3.0".into(),
        });
    }
}
