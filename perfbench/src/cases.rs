//! Stratified generator cases: a case's place in the stream fixes which
//! entry of its family's parameter grid it uses, and the seed picks its
//! contents, so every workload seed sees the same mix of sizes.

use trios_gen::{Family, GeneratedCircuit};

/// The case of `family` at grid entry `entry` (modulo the grid's size)
/// under the first seed of `base, base + stride, …` that
/// `Family::generate_case` maps to that entry.
pub fn stratified(family: Family, entry: usize, base: u64, stride: u64) -> GeneratedCircuit {
    let grid = family.grid();
    let want = grid[entry % grid.len()];
    (0u64..)
        .map(|k| family.generate_case(base.wrapping_add(k.wrapping_mul(stride))))
        .find(|case| case.params == want)
        .expect("generate_case reaches every grid entry")
}
