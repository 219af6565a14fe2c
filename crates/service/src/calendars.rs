//! Per-person availability storage with a shared horizon.

use std::sync::Arc;

use stgq_schedule::{Calendar, SlotRange, CHUNK_ROWS};

use crate::ServiceError;

/// Calendars for every registered person over one slot horizon.
///
/// The store grows in lock-step with the network (the
/// [`World`](crate::World) calls [`ensure_people`](Self::ensure_people)
/// after registrations); new people start fully **unavailable**,
/// mirroring the paper's model where the system only knows the slots
/// users have shared. The world stamps calendar mutations on a version
/// axis of their own, so STGQ answers can be cache-stamped without
/// touching the graph caches.
#[derive(Clone, Debug)]
pub struct CalendarStore {
    cals: Vec<Calendar>,
    horizon: usize,
}

impl CalendarStore {
    /// An empty store over `horizon` slots.
    pub fn new(horizon: usize) -> Self {
        CalendarStore {
            cals: Vec::new(),
            horizon,
        }
    }

    /// A store holding `cals`, by person id — refused unless every
    /// calendar spans exactly `horizon` slots.
    pub(crate) fn from_calendars(
        horizon: usize,
        cals: Vec<Calendar>,
    ) -> Result<Self, ServiceError> {
        if let Some(bad) = cals.iter().find(|c| c.horizon() != horizon) {
            return Err(ServiceError::SlotOutOfRange {
                slot: bad.horizon(),
                horizon,
            });
        }
        Ok(CalendarStore { cals, horizon })
    }

    /// The shared slot horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Clone chunk `chunk` of shard `shard` of `count` — calendars of
    /// the residue class `person % count`, ordered by `person / count`,
    /// local rows `chunk * CHUNK_ROWS..` — the chunk a sharded snapshot
    /// holds there.
    pub fn shard_chunk(&self, shard: usize, count: usize, chunk: usize) -> Arc<[Calendar]> {
        let first = shard + chunk * CHUNK_ROWS * count;
        (first..self.cals.len())
            .step_by(count)
            .take(CHUNK_ROWS)
            .map(|p| self.cals[p].clone())
            .collect()
    }

    /// Number of calendars held.
    pub fn len(&self) -> usize {
        self.cals.len()
    }

    /// Whether the store holds no calendars yet.
    pub fn is_empty(&self) -> bool {
        self.cals.is_empty()
    }

    /// Grow to `count` calendars (new ones fully unavailable). Never
    /// shrinks — person ids are stable.
    pub fn ensure_people(&mut self, count: usize) {
        if count > self.cals.len() {
            self.cals.resize(count, Calendar::new(self.horizon));
        }
    }

    fn check_slot(&self, slot: usize) -> Result<(), ServiceError> {
        if slot >= self.horizon {
            return Err(ServiceError::SlotOutOfRange {
                slot,
                horizon: self.horizon,
            });
        }
        Ok(())
    }

    /// Mark one slot (un)available for `person` (index pre-validated by
    /// the world).
    pub fn set_slot(
        &mut self,
        person: usize,
        slot: usize,
        available: bool,
    ) -> Result<(), ServiceError> {
        self.check_slot(slot)?;
        self.cals[person].set_available(slot, available);
        Ok(())
    }

    /// Mark a whole range (un)available for `person`.
    pub fn set_range(
        &mut self,
        person: usize,
        range: SlotRange,
        available: bool,
    ) -> Result<(), ServiceError> {
        let SlotRange { lo, hi } = range;
        if lo > hi {
            return Err(ServiceError::InvertedRange { lo, hi });
        }
        self.check_slot(hi)?;
        self.cals[person].set_range(range, available);
        Ok(())
    }

    /// Replace one person's calendar wholesale (horizon must match).
    pub fn replace(&mut self, person: usize, calendar: Calendar) -> Result<(), ServiceError> {
        if calendar.horizon() != self.horizon {
            return Err(ServiceError::SlotOutOfRange {
                slot: calendar.horizon(),
                horizon: self.horizon,
            });
        }
        self.cals[person] = calendar;
        Ok(())
    }

    /// Read one calendar.
    pub fn calendar(&self, person: usize) -> &Calendar {
        &self.cals[person]
    }

    /// All calendars, indexed by person id — the exact slice the STGQ
    /// engines take.
    pub fn calendars(&self) -> &[Calendar] {
        &self.cals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_with_unavailable_defaults() {
        let mut store = CalendarStore::new(10);
        store.ensure_people(3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.calendar(0).count_available(), 0);
        store.ensure_people(2);
        assert_eq!(store.len(), 3, "never shrinks");
    }

    #[test]
    fn slot_and_range_updates() {
        let mut store = CalendarStore::new(10);
        store.ensure_people(1);
        store.set_slot(0, 4, true).unwrap();
        store.set_range(0, SlotRange::new(6, 8), true).unwrap();
        let c = store.calendar(0);
        assert!(c.is_available(4));
        assert!(c.is_available(7));
        assert!(!c.is_available(5));
        store.set_slot(0, 4, false).unwrap();
        assert!(!store.calendar(0).is_available(4));
    }

    #[test]
    fn out_of_range_slots_error() {
        let mut store = CalendarStore::new(5);
        store.ensure_people(1);
        assert!(matches!(
            store.set_slot(0, 5, true),
            Err(ServiceError::SlotOutOfRange { .. })
        ));
        assert!(matches!(
            store.set_range(0, SlotRange::new(3, 7), true),
            Err(ServiceError::SlotOutOfRange { .. })
        ));
        assert_eq!(
            store.set_range(0, SlotRange { lo: 3, hi: 1 }, true),
            Err(ServiceError::InvertedRange { lo: 3, hi: 1 })
        );
    }

    #[test]
    fn replace_validates_horizon() {
        let mut store = CalendarStore::new(5);
        store.ensure_people(1);
        assert!(store.replace(0, Calendar::all_available(5)).is_ok());
        assert_eq!(store.calendar(0).count_available(), 5);
        assert!(store.replace(0, Calendar::all_available(6)).is_err());
    }

    #[test]
    fn shard_chunks_partition_the_store_by_residue() {
        let mut store = CalendarStore::new(6);
        store.ensure_people(200);
        for p in 0..200 {
            store.set_slot(p, p % 6, true).unwrap();
        }
        for shards in [1usize, 3] {
            for s in 0..shards {
                let rows = (200 - s).div_ceil(shards);
                for c in 0..rows.div_ceil(CHUNK_ROWS) {
                    let chunk = store.shard_chunk(s, shards, c);
                    assert_eq!(chunk.len(), (rows - c * CHUNK_ROWS).min(CHUNK_ROWS));
                    for (i, cal) in chunk.iter().enumerate() {
                        let person = s + (c * CHUNK_ROWS + i) * shards;
                        assert_eq!(cal, store.calendar(person), "shard {s}/{shards}");
                    }
                }
            }
        }
    }
}
