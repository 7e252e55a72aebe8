//! The daemon's neighborhood table.
//!
//! The PeerHood Daemon "monitors the immediate neighbors of a PTD, collects
//! information and stores it for possible future usage" (thesis §4.1). This
//! module is that store: per-device, per-technology freshness tracking plus a
//! cache of the remote device's registered services.

use std::time::Duration;

use netsim::{SimTime, Technology};

use crate::service::ServiceInfo;
use crate::types::{DeviceId, DeviceInfo};

/// Per-technology sighting times — a fixed map indexed by
/// [`Technology::ALL`] order. At crowd scale there is one of these per
/// neighbor entry, so it is an inline 3-slot array: the `BTreeMap` it
/// replaced cost a B-tree node allocation per entry, which dominated the
/// million-node heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SightingTimes([Option<SimTime>; 3]);

impl SightingTimes {
    fn slot(tech: Technology) -> usize {
        match tech {
            Technology::Bluetooth => 0,
            Technology::Wlan => 1,
            Technology::Gprs => 2,
        }
    }

    /// When the device last answered discovery over `tech`, if it has.
    pub fn get(&self, tech: Technology) -> Option<SimTime> {
        self.0[Self::slot(tech)]
    }

    /// Whether the device has been sighted over `tech` at all.
    pub fn contains(&self, tech: Technology) -> bool {
        self.get(tech).is_some()
    }

    /// Records a sighting over `tech`.
    pub fn insert(&mut self, tech: Technology, at: SimTime) {
        self.0[Self::slot(tech)] = Some(at);
    }

    /// Whether no technology has a recorded sighting.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(Option::is_none)
    }

    /// Recorded sightings as `(technology, time)`, in [`Technology::ALL`]
    /// priority order.
    pub fn iter(&self) -> impl Iterator<Item = (Technology, SimTime)> + '_ {
        Technology::ALL
            .into_iter()
            .zip(self.0)
            .filter_map(|(tech, seen)| seen.map(|at| (tech, at)))
    }

    /// Drops every sighting for which `keep` returns false.
    fn retain(&mut self, mut keep: impl FnMut(SimTime) -> bool) {
        for slot in &mut self.0 {
            if let Some(at) = slot {
                if !keep(*at) {
                    *slot = None;
                }
            }
        }
    }
}

/// Everything the daemon currently knows about one neighbor device.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborEntry {
    /// Identity and equipment of the device.
    pub info: DeviceInfo,
    /// When the device last answered discovery, per technology it was seen
    /// on.
    pub last_seen: SightingTimes,
    /// Cached remote service list, with the time it was fetched.
    pub services: Option<(SimTime, Vec<ServiceInfo>)>,
}

impl NeighborEntry {
    /// Technologies the device is currently visible on, in
    /// [`Technology::ALL`] priority order.
    pub fn visible_technologies(&self) -> Vec<Technology> {
        self.last_seen.iter().map(|(tech, _)| tech).collect()
    }

    /// The preferred (cheapest) technology the device is currently visible
    /// on.
    pub fn preferred_technology(&self) -> Option<Technology> {
        self.last_seen.iter().map(|(tech, _)| tech).next()
    }

    /// The most recent sighting over any technology.
    pub fn freshest_sighting(&self) -> Option<SimTime> {
        self.last_seen.iter().map(|(_, at)| at).max()
    }
}

/// The set of currently known neighbors.
///
/// Stored as a vector sorted by device id. Crowd-scale profiling showed a
/// `BTreeMap` here allocates an 11-slot root node per *table* — about
/// 1.6 KB for the typical 2–3 resident neighbors — which at a million
/// daemons was the single largest heap consumer. The sorted vec holds only
/// what it contains; lookups binary-search and inserts shift, both cheap at
/// neighborhood sizes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NeighborTable {
    /// Sorted ascending by `info.id`, unique.
    entries: Vec<NeighborEntry>,
}

/// The outcome of recording a sighting, so the daemon knows which
/// application events to raise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SightingOutcome {
    /// The device was not in the table before.
    NewDevice,
    /// The device was known; freshness was updated.
    Refreshed,
    /// The device was known but not previously visible on this technology.
    NewTechnology,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        NeighborTable::default()
    }

    /// Where `device` is, or where it would be inserted.
    fn position(&self, device: DeviceId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&device, |e| e.info.id)
    }

    /// The entry for `device`, if known.
    fn entry_mut(&mut self, device: DeviceId) -> Option<&mut NeighborEntry> {
        let at = self.position(device).ok()?;
        self.entries.get_mut(at)
    }

    /// Records that `info` answered discovery over `tech` at `now`.
    pub fn record_sighting(
        &mut self,
        info: DeviceInfo,
        tech: Technology,
        now: SimTime,
    ) -> SightingOutcome {
        if let Some(entry) = self.entry_mut(info.id) {
            entry.info = info;
            let fresh_tech = !entry.last_seen.contains(tech);
            entry.last_seen.insert(tech, now);
            return if fresh_tech {
                SightingOutcome::NewTechnology
            } else {
                SightingOutcome::Refreshed
            };
        }
        let mut last_seen = SightingTimes::default();
        last_seen.insert(tech, now);
        let at = self.position(info.id).unwrap_or_else(|at| at);
        self.entries.insert(
            at,
            NeighborEntry {
                info,
                last_seen,
                services: None,
            },
        );
        SightingOutcome::NewDevice
    }

    /// Stores a freshly fetched remote service list.
    ///
    /// Ignored if the device is no longer in the table.
    pub fn record_services(&mut self, device: DeviceId, services: Vec<ServiceInfo>, now: SimTime) {
        if let Some(entry) = self.entry_mut(device) {
            entry.services = Some((now, services));
        }
    }

    /// Drops sightings aged `ttl` or more and removes devices with no fresh
    /// sightings left; returns the removed devices. A sighting expires
    /// exactly at `seen + ttl`, which is also what [`NeighborTable::next_expiry`]
    /// reports, so a timer set from `next_expiry` is guaranteed to find work.
    pub fn expire(&mut self, now: SimTime, ttl: Duration) -> Vec<DeviceInfo> {
        let mut removed = Vec::new();
        self.entries.retain_mut(|entry| {
            entry
                .last_seen
                .retain(|seen| now.saturating_since(seen) < ttl);
            if entry.last_seen.is_empty() {
                removed.push(entry.info.clone());
                false
            } else {
                true
            }
        });
        removed
    }

    /// The earliest instant at which [`NeighborTable::expire`] would remove
    /// or trim something, given `ttl`; `None` when the table is empty.
    pub fn next_expiry(&self, ttl: Duration) -> Option<SimTime> {
        self.entries
            .iter()
            .flat_map(|e| e.last_seen.iter())
            .map(|(_, seen)| seen + ttl)
            .min()
    }

    /// Looks up one neighbor.
    pub fn get(&self, device: DeviceId) -> Option<&NeighborEntry> {
        let at = self.position(device).ok()?;
        self.entries.get(at)
    }

    /// Whether the device is currently known.
    pub fn contains(&self, device: DeviceId) -> bool {
        self.position(device).is_ok()
    }

    /// All neighbors in device-id order.
    pub fn iter(&self) -> impl Iterator<Item = &NeighborEntry> {
        self.entries.iter()
    }

    /// Snapshot of all neighbor device infos.
    pub fn device_infos(&self) -> Vec<DeviceInfo> {
        self.entries.iter().map(|e| e.info.clone()).collect()
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no neighbors are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes one neighbor outright (used when a connection proves it
    /// gone).
    pub fn remove(&mut self, device: DeviceId) -> Option<NeighborEntry> {
        self.position(device).ok().map(|at| self.entries.remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u64) -> DeviceInfo {
        DeviceInfo::new(DeviceId::new(id), format!("dev-{id}"), Technology::ALL)
    }

    #[test]
    fn sighting_outcomes() {
        let mut t = NeighborTable::new();
        let now = SimTime::from_secs(1);
        assert_eq!(
            t.record_sighting(info(1), Technology::Bluetooth, now),
            SightingOutcome::NewDevice
        );
        assert_eq!(
            t.record_sighting(info(1), Technology::Bluetooth, now),
            SightingOutcome::Refreshed
        );
        assert_eq!(
            t.record_sighting(info(1), Technology::Wlan, now),
            SightingOutcome::NewTechnology
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expiry_removes_stale_devices() {
        let mut t = NeighborTable::new();
        let ttl = Duration::from_secs(30);
        t.record_sighting(info(1), Technology::Bluetooth, SimTime::from_secs(0));
        t.record_sighting(info(2), Technology::Bluetooth, SimTime::from_secs(25));
        let removed = t.expire(SimTime::from_secs(40), ttl);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].id, DeviceId::new(1));
        assert!(t.contains(DeviceId::new(2)));
    }

    #[test]
    fn expiry_trims_single_technology() {
        let mut t = NeighborTable::new();
        let ttl = Duration::from_secs(30);
        t.record_sighting(info(1), Technology::Bluetooth, SimTime::from_secs(0));
        t.record_sighting(info(1), Technology::Wlan, SimTime::from_secs(25));
        let removed = t.expire(SimTime::from_secs(40), ttl);
        assert!(removed.is_empty());
        let entry = t.get(DeviceId::new(1)).unwrap();
        assert_eq!(entry.visible_technologies(), vec![Technology::Wlan]);
    }

    #[test]
    fn preferred_technology_order() {
        let mut t = NeighborTable::new();
        let now = SimTime::from_secs(1);
        t.record_sighting(info(1), Technology::Gprs, now);
        assert_eq!(
            t.get(DeviceId::new(1)).unwrap().preferred_technology(),
            Some(Technology::Gprs)
        );
        t.record_sighting(info(1), Technology::Bluetooth, now);
        assert_eq!(
            t.get(DeviceId::new(1)).unwrap().preferred_technology(),
            Some(Technology::Bluetooth)
        );
    }

    #[test]
    fn next_expiry_is_earliest_deadline() {
        let mut t = NeighborTable::new();
        let ttl = Duration::from_secs(10);
        assert_eq!(t.next_expiry(ttl), None);
        t.record_sighting(info(1), Technology::Bluetooth, SimTime::from_secs(5));
        t.record_sighting(info(2), Technology::Bluetooth, SimTime::from_secs(3));
        assert_eq!(t.next_expiry(ttl), Some(SimTime::from_secs(13)));
    }

    #[test]
    fn services_cache() {
        let mut t = NeighborTable::new();
        let now = SimTime::from_secs(1);
        t.record_sighting(info(1), Technology::Bluetooth, now);
        t.record_services(
            DeviceId::new(1),
            vec![ServiceInfo::new("PeerHoodCommunity")],
            now,
        );
        let entry = t.get(DeviceId::new(1)).unwrap();
        let (_, services) = entry.services.as_ref().unwrap();
        assert_eq!(services[0].name(), "PeerHoodCommunity");
        // Unknown device: silently ignored.
        t.record_services(DeviceId::new(9), vec![], now);
        assert!(!t.contains(DeviceId::new(9)));
    }

    #[test]
    fn remove_returns_entry() {
        let mut t = NeighborTable::new();
        t.record_sighting(info(1), Technology::Bluetooth, SimTime::ZERO);
        assert!(t.remove(DeviceId::new(1)).is_some());
        assert!(t.remove(DeviceId::new(1)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn freshest_sighting_across_technologies() {
        let mut t = NeighborTable::new();
        t.record_sighting(info(1), Technology::Bluetooth, SimTime::from_secs(1));
        t.record_sighting(info(1), Technology::Wlan, SimTime::from_secs(9));
        assert_eq!(
            t.get(DeviceId::new(1)).unwrap().freshest_sighting(),
            Some(SimTime::from_secs(9))
        );
    }
}
