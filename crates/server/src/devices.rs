//! The server's device table: each device spec is resolved once and the
//! topology shared by every request that names it.
//!
//! A topology fills its distance rows as routing reads them, so a device
//! kept here gets faster with use: warm requests pay neither the
//! construction nor the BFS runs of their device.

use crate::protocol::{self, ProtocolError};
use std::sync::{Arc, Mutex};
use trios_core::Topology;

/// Distinct device specs the table holds. Past it, the spec used least
/// recently is dropped; requests still holding its topology keep it
/// alive until they finish.
///
/// Workloads name a handful of devices, so eight keep them all. It also
/// bounds what the table can pin: a spec has at most
/// [`trios_topology::MAX_SPEC_QUBITS`] qubits, whose distance rows, all
/// filled, take 64 MiB.
pub(crate) const DEVICE_TABLE_CAPACITY: usize = 8;

/// Spec → shared topology, in order of last use (most recent last).
#[derive(Debug, Default)]
pub(crate) struct DeviceTable {
    entries: Mutex<Vec<(String, Arc<Topology>)>>,
}

impl DeviceTable {
    /// The topology of `spec`, built on its first request.
    ///
    /// Building happens under the table's lock, so two requests racing
    /// for a new spec share one topology. Construction is `O(n + m)` and
    /// a spec is capped in size, so the lock is held briefly.
    ///
    /// # Errors
    ///
    /// A `bad-request` error for a spec `parse_spec` refuses; nothing is
    /// stored for it.
    pub(crate) fn resolve(&self, spec: &str) -> Result<Arc<Topology>, ProtocolError> {
        let mut entries = self.entries.lock().expect("device table poisoned");
        let entry = match entries.iter().position(|(known, _)| known == spec) {
            Some(index) => entries.remove(index),
            None => {
                let device = Arc::new(protocol::resolve_device(spec)?);
                if entries.len() == DEVICE_TABLE_CAPACITY {
                    entries.remove(0);
                }
                (spec.to_string(), device)
            }
        };
        let device = Arc::clone(&entry.1);
        entries.push(entry);
        Ok(device)
    }

    /// The topology held for `spec`, if any, without touching its
    /// recency.
    #[cfg(test)]
    pub(crate) fn get(&self, spec: &str) -> Option<Arc<Topology>> {
        let entries = self.entries.lock().expect("device table poisoned");
        entries
            .iter()
            .find(|(known, _)| known == spec)
            .map(|(_, device)| Arc::clone(device))
    }

    /// Specs held, least recently used first.
    #[cfg(test)]
    pub(crate) fn specs(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("device table poisoned");
        entries.iter().map(|(spec, _)| spec.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spec_resolves_to_one_shared_topology() {
        let table = DeviceTable::default();
        let first = table.resolve("heavy-hex:127").unwrap();
        let again = table.resolve("heavy-hex:127").unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(first.num_qubits(), 127);
        // Another spec gets an entry of its own.
        let named = table.resolve("johannesburg").unwrap();
        assert!(!Arc::ptr_eq(&first, &named));
        assert_eq!(table.specs(), ["heavy-hex:127", "johannesburg"]);
    }

    #[test]
    fn bad_specs_are_errors_and_are_not_stored() {
        let table = DeviceTable::default();
        for bad in [
            "torus:3x3",
            "line:100000000",
            "heavy-hex:18446744073709551615",
        ] {
            let error = table.resolve(bad).unwrap_err();
            assert_eq!(error.kind, protocol::ErrorKind::BadRequest);
            assert!(error.message.contains(bad), "{}", error.message);
        }
        assert!(table.specs().is_empty());
    }

    #[test]
    fn the_least_recently_used_spec_is_dropped_at_capacity() {
        let table = DeviceTable::default();
        let specs: Vec<String> = (0..DEVICE_TABLE_CAPACITY + 3)
            .map(|i| format!("line:{}", i + 2))
            .collect();
        let first = table.resolve(&specs[0]).unwrap();
        for spec in &specs[1..DEVICE_TABLE_CAPACITY] {
            table.resolve(spec).unwrap();
        }
        // Touching the oldest entry makes the second-oldest the victim.
        assert!(Arc::ptr_eq(&first, &table.resolve(&specs[0]).unwrap()));
        for spec in &specs[DEVICE_TABLE_CAPACITY..] {
            let device = table.resolve(spec).unwrap();
            assert_eq!(device.name(), format!("line-{}", &spec[5..]));
            assert!(table.specs().len() <= DEVICE_TABLE_CAPACITY);
        }
        assert_eq!(table.specs().len(), DEVICE_TABLE_CAPACITY);
        assert!(table.get(&specs[0]).is_some(), "recently used entry kept");
        assert!(table.get(&specs[1]).is_none(), "oldest entry dropped");
        // A caller still holding a dropped topology keeps using it.
        assert_eq!(first.distance(0, 1), Some(1));
    }
}
