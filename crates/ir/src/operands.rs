//! [`Operands`]: the inline list of qubits an instruction acts on.

use crate::Qubit;
use std::fmt;
use std::ops::Index;

/// The qubits an instruction acts on: one, two, or three, stored inline.
///
/// Control qubits come first, the target last, matching the OpenQASM
/// convention (`ccx control1, control2, target`).
///
/// # Examples
///
/// ```
/// use trios_ir::{Operands, Qubit};
///
/// let ops = Operands::three(Qubit::new(0), Qubit::new(1), Qubit::new(2));
/// assert_eq!(ops.len(), 3);
/// assert_eq!(ops[2], Qubit::new(2));
/// assert!(ops.contains(Qubit::new(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operands {
    qubits: [Qubit; 3],
    len: u8,
}

impl Operands {
    /// Operand list for a single-qubit instruction.
    #[inline]
    pub fn one(q: Qubit) -> Self {
        Operands {
            qubits: [q, Qubit::new(0), Qubit::new(0)],
            len: 1,
        }
    }

    /// Operand list for a two-qubit instruction (control first).
    #[inline]
    pub fn two(a: Qubit, b: Qubit) -> Self {
        Operands {
            qubits: [a, b, Qubit::new(0)],
            len: 2,
        }
    }

    /// Operand list for a three-qubit instruction (controls first).
    #[inline]
    pub fn three(a: Qubit, b: Qubit, c: Qubit) -> Self {
        Operands {
            qubits: [a, b, c],
            len: 3,
        }
    }

    /// Builds an operand list from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `slice` has length 0 or greater than 3.
    #[inline]
    pub fn from_slice(slice: &[Qubit]) -> Self {
        match *slice {
            [a] => Operands::one(a),
            [a, b] => Operands::two(a, b),
            [a, b, c] => Operands::three(a, b, c),
            _ => panic!("operand count must be 1..=3, got {}", slice.len()),
        }
    }

    /// Number of operands (1, 2, or 3).
    #[allow(clippy::len_without_is_empty)] // operands are never empty
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// View of the operands as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Qubit] {
        &self.qubits[..self.len as usize]
    }

    /// Iterator over the operands.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, Qubit> {
        self.as_slice().iter()
    }

    /// `true` if `q` is one of the operands.
    #[inline]
    pub fn contains(&self, q: Qubit) -> bool {
        self.as_slice().contains(&q)
    }

    /// `true` if no qubit appears twice.
    #[inline]
    pub fn are_distinct(&self) -> bool {
        let s = self.as_slice();
        match s.len() {
            1 => true,
            2 => s[0] != s[1],
            3 => s[0] != s[1] && s[0] != s[2] && s[1] != s[2],
            _ => unreachable!(),
        }
    }

    /// Returns a copy with every qubit replaced by `f(qubit)`, calling `f`
    /// once per operand, in operand order.
    ///
    /// The array is built whole, so a caller reading the result as one
    /// value does not wait on slot-by-slot stores.
    #[inline]
    pub fn map(&self, mut f: impl FnMut(Qubit) -> Qubit) -> Self {
        let [a, b, c] = self.qubits;
        // Array elements evaluate left to right: `f` sees the operands in
        // order. Unused slots keep qubit 0.
        let qubits = match self.len {
            1 => [f(a), b, c],
            2 => [f(a), f(b), c],
            _ => [f(a), f(b), f(c)],
        };
        Operands {
            qubits,
            len: self.len,
        }
    }

    /// The largest qubit index among the operands.
    ///
    /// Every constructor leaves the unused slots at qubit 0, so the
    /// largest of all three slots is the answer, read without a loop.
    #[inline]
    pub fn max_index(&self) -> usize {
        let [a, b, c] = self.qubits;
        a.index().max(b.index()).max(c.index())
    }
}

impl Index<usize> for Operands {
    type Output = Qubit;

    #[inline]
    fn index(&self, index: usize) -> &Qubit {
        &self.as_slice()[index]
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Qubit;
    type IntoIter = std::slice::Iter<'a, Qubit>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn constructors_and_len() {
        assert_eq!(Operands::one(q(4)).len(), 1);
        assert_eq!(Operands::two(q(1), q(2)).len(), 2);
        assert_eq!(Operands::three(q(1), q(2), q(3)).len(), 3);
    }

    #[test]
    fn as_slice_preserves_order() {
        let ops = Operands::three(q(5), q(1), q(9));
        assert_eq!(ops.as_slice(), &[q(5), q(1), q(9)]);
        assert_eq!(ops[0], q(5));
        assert_eq!(ops[2], q(9));
    }

    #[test]
    fn from_slice_round_trips() {
        for slice in [vec![q(1)], vec![q(1), q(2)], vec![q(3), q(2), q(1)]] {
            assert_eq!(Operands::from_slice(&slice).as_slice(), slice.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "operand count")]
    fn from_slice_rejects_empty() {
        Operands::from_slice(&[]);
    }

    #[test]
    fn distinctness() {
        assert!(Operands::three(q(0), q(1), q(2)).are_distinct());
        assert!(!Operands::two(q(3), q(3)).are_distinct());
        assert!(!Operands::three(q(0), q(1), q(0)).are_distinct());
    }

    #[test]
    fn map_applies_to_all() {
        let ops = Operands::three(q(0), q(1), q(2)).map(|x| Qubit::new(x.index() + 10));
        assert_eq!(ops.as_slice(), &[q(10), q(11), q(12)]);
        for original in [
            Operands::one(q(7)),
            Operands::two(q(7), q(3)),
            Operands::three(q(7), q(3), q(5)),
        ] {
            let mut seen = Vec::new();
            let mapped = original.map(|x| {
                seen.push(x);
                Qubit::new(x.index() + 20)
            });
            assert_eq!(
                seen,
                original.as_slice(),
                "f runs once per operand, in order"
            );
            assert_eq!(mapped.len(), original.len());
            let shifted: Vec<Qubit> = original.iter().map(|x| q(x.index() + 20)).collect();
            assert_eq!(mapped.as_slice(), shifted.as_slice());
            assert_eq!(
                mapped.qubits[original.len()..],
                original.qubits[original.len()..],
                "unused slots are unchanged"
            );
        }
    }

    #[test]
    fn display_is_comma_separated() {
        assert_eq!(Operands::three(q(0), q(1), q(2)).to_string(), "q0, q1, q2");
    }

    #[test]
    fn contains_and_max() {
        let ops = Operands::two(q(7), q(3));
        assert!(ops.contains(q(7)));
        assert!(!ops.contains(q(4)));
        assert_eq!(ops.max_index(), 7);
        assert_eq!(Operands::one(q(0)).max_index(), 0);
        assert_eq!(Operands::three(q(2), q(9), q(4)).max_index(), 9);
        assert_eq!(Operands::from_slice(&[q(5)]).map(|_| q(1)).max_index(), 1);
    }
}
