//! [`Layout`]: the bijection between logical and physical qubits that
//! routing SWAPs permute over time.

use crate::RouteError;
use std::fmt;

/// Tracks where each logical (program) qubit currently lives on the device.
///
/// A layout maps `n_logical` program qubits injectively into `n_physical ≥
/// n_logical` hardware slots. Routing updates it with
/// [`swap_physical`](Layout::swap_physical) every time a SWAP gate is
/// inserted; the pair of layouts (initial, final) is exactly what the
/// simulator needs to verify a routed circuit (see
/// `trios_sim::Simulator::compiled_equivalent`).
///
/// # Examples
///
/// ```
/// use trios_route::Layout;
///
/// let mut layout = Layout::trivial(2, 4);
/// assert_eq!(layout.physical(0), 0);
/// layout.swap_physical(0, 3); // a routing SWAP moves logical 0 to slot 3
/// assert_eq!(layout.physical(0), 3);
/// assert_eq!(layout.logical(3), Some(0));
/// assert_eq!(layout.logical(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `log_to_phys[l]`: the physical slot of logical `l`.
    log_to_phys: Vec<u32>,
    /// `phys_to_log[p]`: the logical occupant of slot `p`, or [`EMPTY`].
    /// Four bytes a slot instead of sixteen for `Option<usize>`, which
    /// matters for the compiled programs a server caches: each keeps two
    /// layouts as wide as its device.
    phys_to_log: Vec<u32>,
}

/// The `phys_to_log` entry of a slot that holds no program data. Every
/// qubit index of a layout is below it (see [`check_width`]).
const EMPTY: u32 = u32::MAX;

/// Panics unless every slot index of an `n_physical`-slot layout is
/// below [`EMPTY`]; [`trios_ir::Qubit`] indices are `u32` too.
fn check_width(n_physical: usize) {
    assert!(
        n_physical <= EMPTY as usize,
        "{n_physical} physical qubits exceed the layout's u32 range"
    );
}

/// A `phys_to_log` entry as the public API spells it.
fn occupant(entry: u32) -> Option<usize> {
    (entry != EMPTY).then_some(entry as usize)
}

impl Layout {
    /// The identity layout: logical `l` on physical `l`.
    ///
    /// # Panics
    ///
    /// Panics if `n_logical > n_physical`, or if `n_physical` exceeds
    /// `u32::MAX`.
    pub fn trivial(n_logical: usize, n_physical: usize) -> Self {
        assert!(
            n_logical <= n_physical,
            "cannot place {n_logical} logical qubits on {n_physical} physical qubits"
        );
        check_width(n_physical);
        let log_to_phys: Vec<u32> = (0..n_logical as u32).collect();
        let mut phys_to_log = vec![EMPTY; n_physical];
        phys_to_log[..n_logical].copy_from_slice(&log_to_phys);
        let layout = Layout {
            log_to_phys,
            phys_to_log,
        };
        layout.debug_check_bijective();
        layout
    }

    /// Builds a layout from an explicit assignment `mapping[l] = p`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::InvalidLayout`] if the mapping is not an
    /// injection into `0..n_physical`.
    ///
    /// # Panics
    ///
    /// Panics if `n_physical` exceeds `u32::MAX`.
    pub fn from_mapping(mapping: &[usize], n_physical: usize) -> Result<Self, RouteError> {
        if mapping.len() > n_physical {
            return Err(RouteError::InvalidLayout {
                reason: format!(
                    "{} logical qubits do not fit on {} physical qubits",
                    mapping.len(),
                    n_physical
                ),
            });
        }
        check_width(n_physical);
        let mut phys_to_log = vec![EMPTY; n_physical];
        for (l, &p) in mapping.iter().enumerate() {
            if p >= n_physical {
                return Err(RouteError::InvalidLayout {
                    reason: format!("logical {l} maps to out-of-range physical {p}"),
                });
            }
            if let Some(prev) = occupant(phys_to_log[p]) {
                return Err(RouteError::InvalidLayout {
                    reason: format!("logical {prev} and {l} both map to physical {p}"),
                });
            }
            phys_to_log[p] = l as u32;
        }
        let layout = Layout {
            log_to_phys: mapping.iter().map(|&p| p as u32).collect(),
            phys_to_log,
        };
        layout.debug_check_bijective();
        Ok(layout)
    }

    /// Debug-build invariant: the two direction tables are exact inverses
    /// of each other (an injection `logical → physical` and its partial
    /// inverse). Release builds skip this entirely.
    fn debug_check_bijective(&self) {
        #[cfg(debug_assertions)]
        {
            for (l, &p) in self.log_to_phys.iter().enumerate() {
                let p = p as usize;
                debug_assert!(
                    p < self.phys_to_log.len(),
                    "logical {l} maps to out-of-bounds physical {p}"
                );
                debug_assert_eq!(
                    occupant(self.phys_to_log[p]),
                    Some(l),
                    "physical {p} does not map back to logical {l}"
                );
            }
            let occupied = self.phys_to_log.iter().filter(|&&l| l != EMPTY).count();
            debug_assert_eq!(
                occupied,
                self.log_to_phys.len(),
                "occupied physical slots must equal the logical qubit count"
            );
        }
    }

    /// Number of logical qubits.
    pub fn num_logical(&self) -> usize {
        self.log_to_phys.len()
    }

    /// Number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.phys_to_log.len()
    }

    /// Physical home of logical qubit `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn physical(&self, l: usize) -> usize {
        self.log_to_phys[l] as usize
    }

    /// Logical occupant of physical slot `p`, or `None` if the slot holds
    /// no program data.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn logical(&self, p: usize) -> Option<usize> {
        occupant(self.phys_to_log[p])
    }

    /// Applies a SWAP between physical slots `p1` and `p2` (either or both
    /// may be empty).
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of range.
    pub fn swap_physical(&mut self, p1: usize, p2: usize) {
        debug_assert!(
            p1 < self.phys_to_log.len() && p2 < self.phys_to_log.len(),
            "swap {p1}-{p2} out of bounds for {} physical slots",
            self.phys_to_log.len()
        );
        self.phys_to_log.swap(p1, p2);
        if let Some(l) = occupant(self.phys_to_log[p1]) {
            self.log_to_phys[l] = p1 as u32;
        }
        if let Some(l) = occupant(self.phys_to_log[p2]) {
            self.log_to_phys[l] = p2 as u32;
        }
        self.debug_check_bijective();
    }

    /// The logical→physical assignment as a vector (`result[l] = p`), the
    /// format `trios_sim::Simulator::compiled_equivalent` consumes.
    pub fn to_mapping(&self) -> Vec<usize> {
        self.log_to_phys.iter().map(|&p| p as usize).collect()
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout{{")?;
        for (l, p) in self.log_to_phys.iter().enumerate() {
            if l > 0 {
                write!(f, ", ")?;
            }
            write!(f, "q{l}→{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_is_identity() {
        let l = Layout::trivial(3, 5);
        for q in 0..3 {
            assert_eq!(l.physical(q), q);
            assert_eq!(l.logical(q), Some(q));
        }
        assert_eq!(l.logical(4), None);
        assert_eq!(l.num_logical(), 3);
        assert_eq!(l.num_physical(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn trivial_rejects_overflow() {
        Layout::trivial(6, 5);
    }

    #[test]
    fn from_mapping_validates() {
        assert!(Layout::from_mapping(&[0, 3, 1], 4).is_ok());
        assert!(Layout::from_mapping(&[0, 4], 4).is_err()); // out of range
        assert!(Layout::from_mapping(&[2, 2], 4).is_err()); // collision
        assert!(Layout::from_mapping(&[0, 1, 2], 2).is_err()); // too many
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut l = Layout::from_mapping(&[0, 2], 4).unwrap();
        l.swap_physical(2, 3); // logical 1 moves to slot 3
        assert_eq!(l.physical(1), 3);
        assert_eq!(l.logical(2), None);
        assert_eq!(l.logical(3), Some(1));
        l.swap_physical(0, 3); // logical 0 and 1 trade slots
        assert_eq!(l.physical(0), 3);
        assert_eq!(l.physical(1), 0);
    }

    #[test]
    fn swap_of_two_empty_slots_is_noop() {
        let mut l = Layout::from_mapping(&[0], 4).unwrap();
        l.swap_physical(2, 3);
        assert_eq!(l.physical(0), 0);
        assert_eq!(l.logical(2), None);
        assert_eq!(l.logical(3), None);
    }

    #[test]
    fn round_trip_invariant_under_many_swaps() {
        let mut l = Layout::trivial(4, 6);
        let swaps = [(0, 5), (2, 3), (5, 1), (4, 0), (3, 5), (1, 2)];
        for (a, b) in swaps {
            l.swap_physical(a, b);
        }
        // Bijectivity: every logical has a unique physical and vice versa.
        let mut seen = [false; 6];
        for q in 0..4 {
            let p = l.physical(q);
            assert!(!seen[p], "physical {p} assigned twice");
            seen[p] = true;
            assert_eq!(l.logical(p), Some(q));
        }
    }

    #[test]
    fn to_mapping_matches_accessors() {
        let l = Layout::from_mapping(&[4, 0, 2], 5).unwrap();
        assert_eq!(l.to_mapping(), vec![4, 0, 2]);
    }

    #[test]
    fn display_is_readable() {
        let l = Layout::from_mapping(&[1, 0], 2).unwrap();
        assert_eq!(l.to_string(), "layout{q0→1, q1→0}");
    }
}
