//! The [`Qubit`] index newtype.

use std::fmt;

/// An index identifying one qubit of a circuit or device.
///
/// A `Qubit` is a plain index; whether it denotes a *logical* (program)
/// qubit or a *physical* (hardware) qubit depends on the circuit it appears
/// in. Circuits produced by the routing passes are over physical qubits and
/// carry the logical-to-physical [layout] alongside.
///
/// [layout]: https://docs.rs/trios-route
///
/// # Examples
///
/// ```
/// use trios_ir::Qubit;
///
/// let q = Qubit::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(q.to_string(), "q3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Qubit(u16);

/// The most qubits a register can hold: every [`Qubit`] index is below
/// it.
///
/// A `Qubit` is a 16-bit index, which packs an
/// [`Instruction`](crate::Instruction) into 40 bytes. External input
/// stops far below this (`trios_qasm::MAX_QUBITS` and
/// `trios_topology::MAX_SPEC_QUBITS` are 4,096 qubits); constructors
/// called from code take up to this many.
pub const MAX_QUBITS: usize = 1 << 16;

impl Qubit {
    /// Creates a qubit with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`MAX_QUBITS`] (65,536).
    #[inline]
    pub fn new(index: usize) -> Self {
        match u16::try_from(index) {
            Ok(index) => Qubit(index),
            Err(_) => panic!("qubit index {index} is not below MAX_QUBITS ({MAX_QUBITS})"),
        }
    }

    /// Returns the index as a `usize`, suitable for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u16> for Qubit {
    fn from(index: u16) -> Self {
        Qubit(index)
    }
}

impl From<usize> for Qubit {
    fn from(index: usize) -> Self {
        Qubit::new(index)
    }
}

impl From<Qubit> for usize {
    fn from(qubit: Qubit) -> Self {
        qubit.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0usize, 1, 7, 19, 1000] {
            assert_eq!(Qubit::new(i).index(), i);
        }
    }

    #[test]
    fn the_widest_index_round_trips() {
        assert_eq!(Qubit::new(MAX_QUBITS - 1).index(), 65_535);
        assert_eq!(Qubit::from(u16::MAX), Qubit::new(65_535));
    }

    #[test]
    #[should_panic(expected = "qubit index 65536 is not below MAX_QUBITS (65536)")]
    fn new_rejects_an_index_past_the_ceiling() {
        Qubit::new(MAX_QUBITS);
    }

    #[test]
    fn display_uses_q_prefix() {
        assert_eq!(Qubit::new(0).to_string(), "q0");
        assert_eq!(Qubit::new(19).to_string(), "q19");
    }

    #[test]
    fn conversions() {
        let q: Qubit = 5usize.into();
        assert_eq!(q, Qubit::new(5));
        let q: Qubit = 7u16.into();
        assert_eq!(q.index(), 7);
        let i: usize = Qubit::new(9).into();
        assert_eq!(i, 9);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Qubit::new(1) < Qubit::new(2));
        assert_eq!(Qubit::default(), Qubit::new(0));
    }
}
