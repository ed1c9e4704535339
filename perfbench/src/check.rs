//! The independent output check, run on every output outside the timed
//! phase. Legality is checked by this file's own code, not by the route
//! crate's `verify_legal`; equivalence goes through `trios-sim`'s
//! `auto_backend` under a fixed budget (sparse terms and compiled
//! length), and a cell past the budget counts as unverified rather than
//! wrong.

use std::collections::HashSet;
use trios_core::{Circuit, CompiledProgram, Gate, Instruction, Topology};
use trios_sim::{auto_backend, SimError};

/// Sparse-backend budget of the equivalence check.
pub const MAX_TERMS: usize = 4096;
/// Widest register the dense backend takes.
pub const MAX_DENSE_QUBITS: usize = 8;
/// Random-state trials per equivalence check.
pub const TRIALS: usize = 2;
/// Longest compiled circuit the equivalence stage takes: its cost grows
/// with circuit length, about 0.1 ms per instruction on a kiloqubit
/// ripple, so longer outputs count as unverified.
pub const MAX_CHECK_INSTRUCTIONS: usize = 2000;

/// What the check found for one output.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Legal and proved equivalent.
    Verified,
    /// Legal; equivalence could not be decided within the budget.
    Unverified,
    /// Wrong: the reason names the first problem.
    Wrong(String),
}

/// The coupling edges of a device as an unordered pair set.
pub struct Edges {
    qubits: usize,
    pairs: HashSet<(usize, usize)>,
}

impl Edges {
    pub fn of(topology: &Topology) -> Edges {
        Edges {
            qubits: topology.num_qubits(),
            pairs: topology
                .edges()
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect(),
        }
    }
}

/// A gate the hardware executes: a single-qubit unitary, CX, or a
/// measurement.
fn in_hardware_basis(gate: Gate) -> bool {
    match gate {
        Gate::Cx | Gate::Measure => true,
        Gate::Cz
        | Gate::Cp(_)
        | Gate::Swap
        | Gate::Ccx
        | Gate::Ccz
        | Gate::Cswap
        | Gate::Cxpow(_) => false,
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
        | Gate::Xpow(_) => true,
    }
}

/// Every gate in the hardware basis, every CX on a coupling edge, and no
/// gate on a qubit after its measurement.
pub fn legality(circuit: &Circuit, edges: &Edges) -> Result<(), String> {
    if circuit.num_qubits() > edges.qubits {
        return Err(format!(
            "{} qubits on a {}-qubit device",
            circuit.num_qubits(),
            edges.qubits
        ));
    }
    let mut measured = vec![false; circuit.num_qubits()];
    for (index, instr) in circuit.iter().enumerate() {
        let gate = instr.gate();
        if !in_hardware_basis(gate) {
            return Err(format!(
                "gate {index} ({gate:?}) is not in the hardware basis"
            ));
        }
        let qubits: Vec<usize> = instr.qubits().iter().map(|q| q.index()).collect();
        if let Some(&q) = qubits.iter().find(|&&q| measured[q]) {
            return Err(format!(
                "gate {index} acts on qubit {q} after its measurement"
            ));
        }
        if let [a, b] = qubits[..] {
            if !edges.pairs.contains(&(a.min(b), a.max(b))) {
                return Err(format!(
                    "gate {index} on ({a}, {b}) is not on a coupling edge"
                ));
            }
        }
        if gate == Gate::Measure {
            measured[qubits[0]] = true;
        }
    }
    Ok(())
}

/// `circuit` without its measurements (the check above proves they are
/// terminal, so the unitary part is what remains).
pub fn unitary_part(circuit: &Circuit) -> Circuit {
    let kept: Vec<Instruction> = circuit
        .iter()
        .filter(|i| i.gate() != Gate::Measure)
        .cloned()
        .collect();
    Circuit::from_instructions(circuit.num_qubits(), kept).expect("same width as the source")
}

/// Legality, then equivalence of `program` against `original`.
pub fn verify(original: &Circuit, program: &CompiledProgram, edges: &Edges, seed: u64) -> Verdict {
    if let Err(reason) = legality(&program.circuit, edges) {
        return Verdict::Wrong(reason);
    }
    if program.circuit.len() > MAX_CHECK_INSTRUCTIONS {
        return Verdict::Unverified;
    }
    let original = unitary_part(original);
    let compiled = unitary_part(&program.circuit);
    let Some(sim) = auto_backend(
        edges.qubits,
        &[&original, &compiled],
        MAX_DENSE_QUBITS,
        MAX_TERMS,
    ) else {
        return Verdict::Unverified;
    };
    match sim.compiled_equivalent(
        &original,
        &compiled,
        &program.initial_layout.to_mapping(),
        &program.final_layout.to_mapping(),
        TRIALS,
        seed,
    ) {
        Ok(true) => Verdict::Verified,
        Ok(false) => Verdict::Wrong("not equivalent to its input".into()),
        Err(SimError::StateTooDense { .. }) => Verdict::Unverified,
        Err(e) => Verdict::Wrong(format!("equivalence check could not run: {e}")),
    }
}
