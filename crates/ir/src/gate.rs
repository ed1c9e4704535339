//! The [`Gate`] enumeration: every operation the compiler understands.

use std::fmt;

/// A quantum gate (or measurement) applied by an [`Instruction`].
///
/// The set covers the IBM-style basis used throughout the paper
/// ({`u1`, `u2`, `u3`, `cx`}), the named Clifford+T gates appearing in the
/// Toffoli decompositions of Figures 3 and 4, the rotation gates used by the
/// benchmark generators (QAOA, QFT adder), and the three structural gates the
/// Trios pipeline routes as units: [`Gate::Swap`] and [`Gate::Ccx`]
/// (Toffoli). [`Gate::Measure`] marks terminal readout.
///
/// Angles are in radians.
///
/// [`Instruction`]: crate::Instruction
///
/// # Examples
///
/// ```
/// use trios_ir::Gate;
///
/// assert_eq!(Gate::Ccx.arity(), 3);
/// assert_eq!(Gate::T.inverse(), Some(Gate::Tdg));
/// assert!(Gate::Cx.is_two_qubit());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (used by optimization passes as a tombstone).
    I,
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate, `Z^(1/2)`.
    S,
    /// Inverse phase gate, `Z^(-1/2)`.
    Sdg,
    /// T gate, `Z^(1/4)`.
    T,
    /// Inverse T gate, `Z^(-1/4)`.
    Tdg,
    /// Square root of X, `X^(1/2)`.
    Sx,
    /// Inverse square root of X, `X^(-1/2)`.
    Sxdg,
    /// Rotation about the X axis by the given angle.
    Rx(f64),
    /// Rotation about the Y axis by the given angle.
    Ry(f64),
    /// Rotation about the Z axis by the given angle.
    Rz(f64),
    /// IBM `u1(λ)`: a phase gate `diag(1, e^{iλ})`.
    U1(f64),
    /// IBM `u2(φ, λ)`: equivalent to `u3(π/2, φ, λ)`.
    U2(f64, f64),
    /// IBM `u3(θ, φ, λ)`: the generic single-qubit gate.
    U3(f64, f64, f64),
    /// Fractional X gate `X^t` (used by the Barenco controlled-root ladder).
    Xpow(f64),
    /// Controlled-`X^t` (lowered to CX + 1q gates by the basis pass).
    Cxpow(f64),
    /// Controlled NOT.
    Cx,
    /// Controlled Z.
    Cz,
    /// Controlled phase, `diag(1, 1, 1, e^{iλ})`.
    Cp(f64),
    /// SWAP of two qubits (lowered to 3 CNOTs for hardware).
    Swap,
    /// Toffoli (CCX): the 3-qubit gate the Trios router handles natively.
    Ccx,
    /// Doubly-controlled Z. Fully symmetric (diagonal), so the router may
    /// treat any operand as the decomposition target (paper §4's "move the
    /// two H gates" freedom, taken to its natural limit).
    Ccz,
    /// Controlled SWAP (Fredkin): control first, then the swapped pair.
    /// Routed as a trio like the Toffoli (the paper's §4 extension to
    /// "any multi-qubit operation of three ... qubits").
    Cswap,
    /// Terminal computational-basis measurement of one qubit.
    Measure,
}

impl Gate {
    /// Number of qubits the gate acts on.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sxdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U1(_)
            | Gate::U2(..)
            | Gate::U3(..)
            | Gate::Xpow(_)
            | Gate::Measure => 1,
            Gate::Cx | Gate::Cz | Gate::Cp(_) | Gate::Swap | Gate::Cxpow(_) => 2,
            Gate::Ccx | Gate::Ccz | Gate::Cswap => 3,
        }
    }

    /// Lowercase OpenQASM-style mnemonic (without parameters).
    pub fn name(self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U1(_) => "u1",
            Gate::U2(..) => "u2",
            Gate::U3(..) => "u3",
            Gate::Xpow(_) => "xpow",
            Gate::Cxpow(_) => "cxpow",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Cp(_) => "cp",
            Gate::Swap => "swap",
            Gate::Ccx => "ccx",
            Gate::Ccz => "ccz",
            Gate::Cswap => "cswap",
            Gate::Measure => "measure",
        }
    }

    /// Continuous parameters of the gate, in declaration order.
    pub fn params(self) -> Vec<f64> {
        let (params, len) = self.param_array();
        params[..len].to_vec()
    }

    /// [`Gate::params`] without a heap allocation: the parameters padded
    /// to three, and how many of them are real.
    #[inline]
    pub(crate) fn param_array(self) -> ([f64; 3], usize) {
        match self {
            Gate::Rx(a)
            | Gate::Ry(a)
            | Gate::Rz(a)
            | Gate::U1(a)
            | Gate::Cp(a)
            | Gate::Xpow(a)
            | Gate::Cxpow(a) => ([a, 0.0, 0.0], 1),
            Gate::U2(a, b) => ([a, b, 0.0], 2),
            Gate::U3(a, b, c) => ([a, b, c], 3),
            _ => ([0.0; 3], 0),
        }
    }

    /// `true` if the gate acts on exactly one qubit (measurement included).
    #[inline]
    pub fn is_single_qubit(self) -> bool {
        self.arity() == 1
    }

    /// `true` if the gate acts on exactly two qubits.
    #[inline]
    pub fn is_two_qubit(self) -> bool {
        self.arity() == 2
    }

    /// `true` if the gate acts on three qubits (i.e. is a Toffoli).
    #[inline]
    pub fn is_three_qubit(self) -> bool {
        self.arity() == 3
    }

    /// `true` for [`Gate::Measure`].
    #[inline]
    pub fn is_measurement(self) -> bool {
        matches!(self, Gate::Measure)
    }

    /// `true` if the gate is diagonal in the computational basis.
    ///
    /// Diagonal gates commute with one another and with the control side of
    /// controlled gates; the optimizer uses this for gate cancellation.
    #[inline]
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::U1(_)
                | Gate::Cz
                | Gate::Cp(_)
                | Gate::Ccz
        )
    }

    /// `true` if the gate is in the hardware-supported set of the paper's
    /// target devices: arbitrary single-qubit gates plus CX (and measurement).
    #[inline]
    pub fn is_hardware_supported(self) -> bool {
        match self {
            Gate::Cx => true,
            Gate::Cz
            | Gate::Cp(_)
            | Gate::Swap
            | Gate::Ccx
            | Gate::Ccz
            | Gate::Cswap
            | Gate::Cxpow(_) => false,
            g => g.arity() == 1,
        }
    }

    /// The inverse gate, or `None` for measurement.
    #[inline]
    pub fn inverse(self) -> Option<Gate> {
        Some(match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(a) => Gate::Rx(-a),
            Gate::Ry(a) => Gate::Ry(-a),
            Gate::Rz(a) => Gate::Rz(-a),
            Gate::U1(a) => Gate::U1(-a),
            Gate::U2(phi, lam) => Gate::U3(-std::f64::consts::FRAC_PI_2, -lam, -phi),
            Gate::U3(theta, phi, lam) => Gate::U3(-theta, -lam, -phi),
            Gate::Cp(a) => Gate::Cp(-a),
            Gate::Xpow(t) => Gate::Xpow(-t),
            Gate::Cxpow(t) => Gate::Cxpow(-t),
            Gate::Measure => return None,
            // Self-inverse gates.
            g @ (Gate::I
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::Cx
            | Gate::Cz
            | Gate::Swap
            | Gate::Ccx
            | Gate::Ccz
            | Gate::Cswap) => g,
        })
    }

    /// `true` if `self` and `other` cancel to the identity when applied in
    /// sequence to the same operands.
    #[inline]
    pub fn cancels_with(self, other: Gate) -> bool {
        match self.inverse() {
            Some(inv) => inv == other,
            None => false,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            write!(f, "{}(", self.name())?;
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p:.6}")?;
            }
            write!(f, ")")
        }
    }
}

/// One gate of every kind, for tests that must cover the whole set.
#[cfg(test)]
pub(crate) const EVERY_KIND: [Gate; 27] = [
    Gate::I,
    Gate::H,
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::S,
    Gate::Sdg,
    Gate::T,
    Gate::Tdg,
    Gate::Sx,
    Gate::Sxdg,
    Gate::Rx(0.1),
    Gate::Ry(0.2),
    Gate::Rz(0.3),
    Gate::U1(0.4),
    Gate::U2(0.5, 0.6),
    Gate::U3(0.7, 0.8, 0.9),
    Gate::Xpow(0.5),
    Gate::Cxpow(0.5),
    Gate::Cx,
    Gate::Cz,
    Gate::Cp(1.0),
    Gate::Swap,
    Gate::Ccx,
    Gate::Ccz,
    Gate::Cswap,
    Gate::Measure,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arity_is_consistent_with_category_predicates() {
        for g in EVERY_KIND {
            let by_arity = match g.arity() {
                1 => (true, false, false),
                2 => (false, true, false),
                3 => (false, false, true),
                other => panic!("unexpected arity {other}"),
            };
            assert_eq!(
                (g.is_single_qubit(), g.is_two_qubit(), g.is_three_qubit()),
                by_arity,
                "gate {g:?}"
            );
        }
    }

    #[test]
    fn inverse_pairs_cancel() {
        let pairs = [
            (Gate::S, Gate::Sdg),
            (Gate::T, Gate::Tdg),
            (Gate::Sx, Gate::Sxdg),
            (Gate::Rz(0.25), Gate::Rz(-0.25)),
            (Gate::Cp(PI / 8.0), Gate::Cp(-PI / 8.0)),
        ];
        for (a, b) in pairs {
            assert!(a.cancels_with(b), "{a:?} should cancel {b:?}");
            assert!(b.cancels_with(a), "{b:?} should cancel {a:?}");
        }
    }

    #[test]
    fn self_inverse_gates() {
        for g in [
            Gate::H,
            Gate::X,
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ccx,
            Gate::Ccz,
            Gate::Cswap,
        ] {
            assert_eq!(g.inverse(), Some(g));
            assert!(g.cancels_with(g));
        }
    }

    #[test]
    fn measure_has_no_inverse() {
        assert_eq!(Gate::Measure.inverse(), None);
        assert!(!Gate::Measure.cancels_with(Gate::Measure));
    }

    #[test]
    fn hardware_supported_set() {
        assert!(Gate::Cx.is_hardware_supported());
        assert!(Gate::U3(1.0, 2.0, 3.0).is_hardware_supported());
        assert!(Gate::H.is_hardware_supported());
        assert!(!Gate::Swap.is_hardware_supported());
        assert!(!Gate::Ccx.is_hardware_supported());
        assert!(!Gate::Ccz.is_hardware_supported());
        assert!(!Gate::Cswap.is_hardware_supported());
        assert!(!Gate::Cz.is_hardware_supported());
        assert!(!Gate::Cxpow(0.5).is_hardware_supported());
    }

    #[test]
    fn display_formats_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert_eq!(Gate::Rz(0.5).to_string(), "rz(0.500000)");
        assert_eq!(Gate::U2(0.1, 0.2).to_string(), "u2(0.100000, 0.200000)");
    }

    #[test]
    fn diagonal_gates() {
        assert!(Gate::Rz(1.0).is_diagonal());
        assert!(Gate::Cz.is_diagonal());
        assert!(Gate::T.is_diagonal());
        assert!(Gate::Ccz.is_diagonal());
        assert!(!Gate::H.is_diagonal());
        assert!(!Gate::Cx.is_diagonal());
        assert!(!Gate::Ccx.is_diagonal());
        assert!(!Gate::Cswap.is_diagonal());
    }
}
