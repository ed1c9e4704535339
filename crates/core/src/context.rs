//! [`CompileContext`]: the mutable state a pass pipeline threads through
//! its passes, including a typed artifact map for intermediate results.

use crate::CompileOptions;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use trios_ir::Circuit;
use trios_route::Layout;
use trios_schedule::Schedule;
use trios_topology::Topology;

/// An intermediate result a pass publishes for later passes and for the
/// caller to inspect after compilation.
///
/// Artifacts are keyed by type: publishing a second value of the same type
/// replaces the first. The marker trait keeps the artifact map closed over
/// deliberately published types instead of arbitrary `Any` values.
pub trait Artifact: Any + fmt::Debug {}

/// The trio router's per-Toffoli trace (empty for the baseline pair
/// router): gather distances, SWAPs spent, and final shapes, in program
/// order — the data behind the paper's Figure 6/7 x-axis. A copy of the
/// [`RouterTrace`]'s trio events.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapTrace(pub Vec<trios_route::TrioEvent>);

impl Artifact for SwapTrace {}

/// The routing run's [`trios_route::RoutingTrace`]: which strategy ran,
/// the SWAPs it inserted, and its trio events.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterTrace(pub trios_route::RoutingTrace);

impl Artifact for RouterTrace {}

/// The ASAP schedule of the final circuit.
#[derive(Debug, Clone)]
pub struct ProgramSchedule(pub Schedule);

impl Artifact for ProgramSchedule {}

/// Typed storage for pass-published intermediate results.
#[derive(Default)]
pub struct ArtifactMap {
    entries: HashMap<TypeId, Box<dyn Any>>,
}

impl ArtifactMap {
    /// Publishes `artifact`, replacing any previous value of the same type.
    pub fn insert<T: Artifact>(&mut self, artifact: T) {
        self.entries.insert(TypeId::of::<T>(), Box::new(artifact));
    }

    /// The published artifact of type `T`, if any pass produced one.
    pub fn get<T: Artifact>(&self) -> Option<&T> {
        self.entries
            .get(&TypeId::of::<T>())
            .and_then(|boxed| boxed.downcast_ref())
    }

    /// Removes and returns the artifact of type `T`.
    pub fn take<T: Artifact>(&mut self) -> Option<T> {
        self.entries
            .remove(&TypeId::of::<T>())
            .and_then(|boxed| boxed.downcast().ok())
            .map(|boxed| *boxed)
    }

    /// Number of published artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no artifacts have been published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for ArtifactMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArtifactMap({} artifacts)", self.entries.len())
    }
}

/// Everything a [`Pass`](crate::Pass) reads and writes while compiling one
/// circuit for one device.
#[derive(Debug)]
pub struct CompileContext<'a> {
    /// The device being compiled for.
    pub topology: &'a Topology,
    /// The configuration of this compilation.
    pub options: &'a CompileOptions,
    /// The working circuit; passes rewrite it in place.
    pub circuit: Circuit,
    /// The initial placement chosen by the mapping pass (logical →
    /// physical), before routing permutes it.
    pub layout: Option<Layout>,
    /// Where each logical qubit started, fixed by the routing pass.
    pub initial_layout: Option<Layout>,
    /// Where each logical qubit ended after all routing SWAPs.
    pub final_layout: Option<Layout>,
    /// SWAPs inserted by routing.
    pub swap_count: usize,
    /// Intermediate results published by passes.
    pub artifacts: ArtifactMap,
}

impl<'a> CompileContext<'a> {
    /// A fresh context for compiling `circuit` on `topology` under
    /// `options`.
    pub fn new(circuit: Circuit, topology: &'a Topology, options: &'a CompileOptions) -> Self {
        CompileContext {
            topology,
            options,
            circuit,
            layout: None,
            initial_layout: None,
            final_layout: None,
            swap_count: 0,
            artifacts: ArtifactMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_map_is_typed() {
        let mut map = ArtifactMap::default();
        assert!(map.is_empty());
        map.insert(SwapTrace(Vec::new()));
        map.insert(RouterTrace(trios_route::RoutingTrace {
            swaps: 2,
            ..Default::default()
        }));
        assert_eq!(map.len(), 2);
        assert!(map.get::<SwapTrace>().unwrap().0.is_empty());
        assert_eq!(map.get::<RouterTrace>().unwrap().0.swaps, 2);
        let taken = map.take::<SwapTrace>().unwrap();
        assert!(taken.0.is_empty());
        assert!(map.get::<SwapTrace>().is_none());
    }

    #[test]
    fn inserting_twice_replaces() {
        let trace = |swaps| {
            RouterTrace(trios_route::RoutingTrace {
                swaps,
                ..Default::default()
            })
        };
        let mut map = ArtifactMap::default();
        map.insert(trace(2));
        map.insert(trace(5));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get::<RouterTrace>().unwrap().0.swaps, 5);
    }
}
