//! Textual device specs (`line:8`, `grid:5x4`, `johannesburg`, …).
//!
//! One grammar shared by every surface that names devices in text: the
//! `trios` CLI flags (`--device`, `--devices`) and the `trios-server`
//! protocol's per-request `device` field, so a spec means the same
//! topology everywhere.

use crate::{
    alltoall, clusters, full, grid, heavy_hex, heavy_hex_falcon27, heavy_hex_qubits, johannesburg,
    line, ring, Topology,
};
use std::error::Error;
use std::fmt;

/// The most qubits a parametric spec (`line:N`, `grid:CxR`, …) may ask
/// for.
///
/// Specs arrive from outside — CLI flags and server requests — so their
/// size must be bounded before anything is allocated: `line:100000000`
/// would otherwise ask for 100 million adjacency lists, `full:100000000`
/// for a 100-million-qubit layout, and every distance row of a device
/// holds one entry per qubit (at 4096 qubits, all rows take 64 MiB).
/// 4096 is over three times the largest device used anywhere in the
/// repository (`grid:34x33`, 1122 qubits). Constructors called from code
/// take any size.
pub const MAX_SPEC_QUBITS: usize = 4096;

/// The most qubits one cluster of `clusters:KxS` may hold. Each cluster
/// is a complete graph, so its couplings grow with the square of its
/// size: `clusters:1x4096` would store 8.4 million of them (about
/// 400 MB). The paper's clusters hold 5.
const MAX_CLUSTER_SIZE: usize = 64;

/// A device spec that [`parse_spec`] cannot resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The spec as given.
    pub spec: String,
    /// Why it was refused.
    pub kind: SpecErrorKind,
}

/// Why [`parse_spec`] refused a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The spec names no known topology, or its parameters are malformed.
    Unknown,
    /// The spec asks for more than [`MAX_SPEC_QUBITS`] qubits, or for
    /// clusters of more than 64.
    TooLarge,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SpecErrorKind::Unknown => write!(
                f,
                "unknown device '{}' (named: johannesburg, heavy-hex, grid, line, clusters; \
                 parametric: line:N, ring:N, full:N, grid:CxR, clusters:KxS, alltoall:N, \
                 heavy-hex:N for a lattice qubit count such as 127, 433, or 1121)",
                self.spec
            ),
            SpecErrorKind::TooLarge => write!(
                f,
                "device '{}' is too large: a spec may ask for at most {MAX_SPEC_QUBITS} qubits, \
                 and clusters:KxS for clusters of at most {MAX_CLUSTER_SIZE}",
                self.spec
            ),
        }
    }
}

impl Error for SpecError {}

/// Resolves a device spec to a topology.
///
/// Named devices: `johannesburg`, `heavy-hex`, `grid` (5×4), `line` (20),
/// `clusters` (4×5). Parametric: `line:N`, `ring:N`, `full:N`,
/// `grid:CxR`, `clusters:KxS`, `alltoall:N` (ion-trap all-to-all with
/// shuttle-distance link costs), and `heavy-hex:N` where `N` is a valid
/// heavy-hex lattice qubit count (`10c² + 12c + 1`: 23, 65, 127, 209, …,
/// 433, …, 1121 — IBM's Eagle/Osprey/Condor sizes among them).
/// Parametric sizes must be positive (and a ring at least 3): zero
/// dimensions are rejected here rather than reaching the constructors'
/// panics. They may total at most [`MAX_SPEC_QUBITS`] qubits, and a
/// cluster of `clusters:KxS` at most 64, checked before anything is
/// allocated.
///
/// # Errors
///
/// Returns [`SpecError`] for unrecognized or malformed specs
/// ([`SpecErrorKind::Unknown`]) and for specs past those sizes
/// ([`SpecErrorKind::TooLarge`]).
///
/// # Examples
///
/// ```
/// use trios_topology::parse_spec;
///
/// assert_eq!(parse_spec("grid:3x3").unwrap().num_qubits(), 9);
/// assert!(parse_spec("torus:3x3").is_err());
/// ```
pub fn parse_spec(spec: &str) -> Result<Topology, SpecError> {
    let error = |kind| SpecError {
        spec: spec.into(),
        kind,
    };
    let unknown = || error(SpecErrorKind::Unknown);
    let too_large = || error(SpecErrorKind::TooLarge);
    match spec {
        "johannesburg" => return Ok(johannesburg()),
        "heavy-hex" => return Ok(heavy_hex_falcon27()),
        "grid" => return Ok(grid(5, 4)),
        "line" => return Ok(line(20)),
        "clusters" => return Ok(clusters(4, 5)),
        _ => {}
    }
    let (kind, params) = spec.split_once(':').ok_or_else(unknown)?;
    let parse_n = |s: &str| match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(unknown()),
    };
    // Every qubit count passes through here before a constructor sees it.
    let capped = |n: usize| {
        if n <= MAX_SPEC_QUBITS {
            Ok(n)
        } else {
            Err(too_large())
        }
    };
    let size = |s: &str| parse_n(s).and_then(capped);
    match kind {
        "line" => Ok(line(size(params)?)),
        "ring" => {
            let n = size(params)?;
            if n < 3 {
                return Err(unknown());
            }
            Ok(ring(n))
        }
        "full" => Ok(full(size(params)?)),
        "alltoall" => Ok(alltoall(size(params)?)),
        "heavy-hex" => {
            let n = size(params)?;
            // Find the odd distance whose lattice has exactly n qubits.
            let d = (3..)
                .step_by(2)
                .take_while(|&d| heavy_hex_qubits(d) <= n)
                .find(|&d| heavy_hex_qubits(d) == n)
                .ok_or_else(unknown)?;
            Ok(heavy_hex(d))
        }
        "grid" | "clusters" => {
            let (a, b) = params.split_once('x').ok_or_else(unknown)?;
            let (a, b) = (parse_n(a)?, parse_n(b)?);
            a.checked_mul(b).ok_or_else(too_large).and_then(capped)?;
            if kind == "grid" {
                Ok(grid(a, b))
            } else if b > MAX_CLUSTER_SIZE {
                Err(too_large())
            } else {
                Ok(clusters(a, b))
            }
        }
        _ => Err(unknown()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_and_parametric_specs_resolve() {
        assert_eq!(parse_spec("johannesburg").unwrap().num_qubits(), 20);
        assert_eq!(parse_spec("heavy-hex").unwrap().num_qubits(), 27);
        assert_eq!(parse_spec("grid").unwrap().num_qubits(), 20);
        assert_eq!(parse_spec("line").unwrap().num_qubits(), 20);
        assert_eq!(parse_spec("clusters").unwrap().num_qubits(), 20);
        assert_eq!(parse_spec("line:7").unwrap().num_qubits(), 7);
        assert_eq!(parse_spec("ring:8").unwrap().num_qubits(), 8);
        assert_eq!(parse_spec("full:5").unwrap().num_qubits(), 5);
        assert_eq!(parse_spec("grid:3x3").unwrap().num_qubits(), 9);
        assert_eq!(parse_spec("clusters:2x4").unwrap().num_qubits(), 8);
        // The large-device zoo: IBM's published heavy-hex generations and
        // ion-trap all-to-all.
        assert_eq!(parse_spec("heavy-hex:127").unwrap().num_qubits(), 127);
        assert_eq!(parse_spec("heavy-hex:433").unwrap().num_qubits(), 433);
        assert_eq!(parse_spec("heavy-hex:1121").unwrap().num_qubits(), 1121);
        assert_eq!(parse_spec("heavy-hex:23").unwrap().num_qubits(), 23);
        let trap = parse_spec("alltoall:64").unwrap();
        assert_eq!(trap.num_qubits(), 64);
        assert_eq!(trap.link_cost(0, 63), Some(63.0));
        assert_eq!(parse_spec("full:1000").unwrap().num_edges(), 499_500);
    }

    #[test]
    fn bad_specs_error_instead_of_panicking() {
        for bad in [
            "torus:3x3",
            "line:x",
            "line:0",
            "ring:2",
            "grid:3",
            "grid:0x3",
            "clusters:2x",
            "nonsense",
            "",
            // Not heavy-hex lattice counts (and never panic on them).
            "heavy-hex:100",
            "heavy-hex:1120",
            "heavy-hex:0",
            "heavy-hex:x",
            "alltoall:0",
            "alltoall:",
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert_eq!(err.spec, bad);
            assert!(err.to_string().contains("unknown device"), "{err}");
        }
        // Sizes past the cap fail before anything is allocated. Without
        // the cap the first aborted allocating a 40 GB distance matrix,
        // the second a 1.6 GB layout, and the third spun for seconds in
        // the lattice-size search, overflowing 10c² + 12c + 1.
        for huge in [
            "line:100000",
            "full:100000000",
            "heavy-hex:18446744073709551615",
            "line:100000000",
            "ring:4097",
            "alltoall:4097",
            "grid:4097x1",
            "grid:65x64",
            "clusters:4097x1",
            "clusters:1x4096",
            "clusters:2x65",
            "grid:18446744073709551615x2",
        ] {
            let err = parse_spec(huge).unwrap_err();
            assert_eq!(err.spec, huge);
            assert_eq!(err.kind, SpecErrorKind::TooLarge, "{huge}");
            assert!(err.to_string().contains("at most 4096 qubits"), "{err}");
        }
    }

    #[test]
    fn specs_at_the_cap_are_accepted() {
        assert_eq!(MAX_SPEC_QUBITS, 4096);
        for spec in [
            "line:4096",
            "ring:4096",
            "full:4096",
            "alltoall:4096",
            "grid:64x64",
            "grid:4096x1",
            "clusters:64x64",
        ] {
            let device = parse_spec(spec).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(device.num_qubits(), MAX_SPEC_QUBITS, "{spec}");
        }
        // The largest heavy-hex lattice under the cap (d = 39) resolves;
        // the next (d = 41) is past it, and a count under the cap that is
        // no lattice's stays unknown.
        assert_eq!(parse_spec("heavy-hex:3839").unwrap().num_qubits(), 3839);
        assert_eq!(
            parse_spec("heavy-hex:4241").unwrap_err().kind,
            SpecErrorKind::TooLarge
        );
        assert_eq!(
            parse_spec("heavy-hex:4095").unwrap_err().kind,
            SpecErrorKind::Unknown
        );
    }
}
