//! The MVCC write buffer: epoch-tagged record inserts and updates
//! overlaid on an immutable base generation.
//!
//! A [`DeltaStore`] is append-only — every commit gets the next *epoch*
//! and its operations are never rewritten afterwards — so any number of
//! readers can share one delta through an `Arc` and each see a stable
//! prefix: a snapshot pins an epoch `E` and every accessor here filters
//! to versions with `epoch ≤ E`. Writers keep committing past `E`
//! without disturbing pinned readers; compaction swaps in a fresh
//! (empty) delta and leaves the old `Arc` intact for whoever still
//! holds it.
//!
//! Record-id assignment: the base generation owns ids `0..base_records`;
//! inserts take consecutive ids from `base_records` upward, in commit
//! order, so replaying the same operations against the same base always
//! reproduces the same ids. Updates replace the *whole* record content
//! (last version ≤ E wins) and may target base rows or earlier inserts.

use std::collections::BTreeMap;

use graphbi_bitmap::{Bitmap, RecordId};
use graphbi_graph::GraphRecord;
use parking_lot::Mutex;

/// One buffered write: a whole-record insert or whole-record replacement.
#[derive(Clone, Debug)]
pub enum DeltaOp {
    /// Appends a new record; its id is assigned on apply
    /// (`base_records + number of prior inserts`).
    Insert(GraphRecord),
    /// Replaces the full content of an existing record (base or
    /// previously inserted).
    Update(RecordId, GraphRecord),
}

struct DeltaInner {
    /// Last committed epoch (0 = nothing committed since the base).
    epoch: u64,
    /// Version chains in ascending record-id order; each chain is in
    /// ascending epoch order. Inserted rows get a chain too (their first
    /// version is the insert itself).
    versions: BTreeMap<RecordId, Vec<(u64, GraphRecord)>>,
    /// Commit epoch of each insert, in record-id order
    /// (`insert_epochs[k]` belongs to record `base_records + k`).
    /// Non-decreasing, so visibility counts are a partition point.
    insert_epochs: Vec<u64>,
}

/// An epoch-tagged, append-only buffer of record inserts and updates.
pub struct DeltaStore {
    base_records: u64,
    inner: Mutex<DeltaInner>,
}

impl DeltaStore {
    /// An empty delta over a base generation of `base_records` records,
    /// starting at epoch 0.
    pub fn new(base_records: u64) -> DeltaStore {
        DeltaStore::with_epoch(base_records, 0)
    }

    /// An empty delta whose epoch counter resumes at `epoch` — used after
    /// compaction (the fold watermark) and by WAL replay.
    pub fn with_epoch(base_records: u64, epoch: u64) -> DeltaStore {
        DeltaStore {
            base_records,
            inner: Mutex::new(DeltaInner {
                epoch,
                versions: BTreeMap::new(),
                insert_epochs: Vec::new(),
            }),
        }
    }

    /// Record count of the underlying base generation.
    pub fn base_records(&self) -> u64 {
        self.base_records
    }

    /// The last committed epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Applies one commit at the next epoch and returns that epoch.
    ///
    /// # Panics
    /// When an update targets a record id that exists neither in the base
    /// nor among the inserts applied so far (including earlier ops of the
    /// same commit).
    pub fn apply(&self, ops: &[DeltaOp]) -> u64 {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch + 1;
        self.apply_locked(&mut inner, epoch, ops);
        epoch
    }

    /// Replay path: applies a commit at an explicit epoch. Commits at or
    /// below the current epoch are skipped (idempotent re-replay) and
    /// reported as `false`.
    pub fn apply_at(&self, epoch: u64, ops: &[DeltaOp]) -> bool {
        let mut inner = self.inner.lock();
        if epoch <= inner.epoch {
            return false;
        }
        self.apply_locked(&mut inner, epoch, ops);
        true
    }

    fn apply_locked(&self, inner: &mut DeltaInner, epoch: u64, ops: &[DeltaOp]) {
        for op in ops {
            match op {
                DeltaOp::Insert(rec) => {
                    let rid = self.base_records + inner.insert_epochs.len() as u64;
                    let rid = u32::try_from(rid).expect("record id fits u32");
                    inner.insert_epochs.push(epoch);
                    inner
                        .versions
                        .entry(rid)
                        .or_default()
                        .push((epoch, rec.clone()));
                }
                DeltaOp::Update(rid, rec) => {
                    let known = self.base_records + inner.insert_epochs.len() as u64;
                    assert!(
                        u64::from(*rid) < known,
                        "update of unknown record {rid} (known: 0..{known})"
                    );
                    inner
                        .versions
                        .entry(*rid)
                        .or_default()
                        .push((epoch, rec.clone()));
                }
            }
        }
        inner.epoch = epoch;
    }

    /// Total record count visible at `epoch`: the base plus every insert
    /// committed at or before it.
    pub fn record_count_at(&self, epoch: u64) -> u64 {
        let inner = self.inner.lock();
        self.base_records + inner.insert_epochs.partition_point(|&e| e <= epoch) as u64
    }

    /// Base record ids superseded by a delta version at or before `epoch`
    /// — the mask the structural phase subtracts from base match sets.
    pub fn touched_base_at(&self, epoch: u64) -> Bitmap {
        let inner = self.inner.lock();
        let mut out = Bitmap::new();
        for (&rid, chain) in &inner.versions {
            if u64::from(rid) >= self.base_records {
                break; // BTreeMap is ordered: inserts follow all base rows
            }
            if chain.first().is_some_and(|&(e, _)| e <= epoch) {
                out.insert(rid);
            }
        }
        out
    }

    /// Visits every delta-owned record visible at `epoch` — updated base
    /// rows and inserts alike — in ascending record-id order, with its
    /// latest content at or before that epoch.
    pub fn for_each_visible_at(&self, epoch: u64, mut f: impl FnMut(RecordId, &GraphRecord)) {
        let inner = self.inner.lock();
        for (&rid, chain) in &inner.versions {
            if let Some((_, rec)) = chain.iter().rev().find(|&&(e, _)| e <= epoch) {
                f(rid, rec);
            }
        }
    }

    /// True when no commit at or before `epoch` is buffered.
    pub fn is_empty_at(&self, epoch: u64) -> bool {
        let inner = self.inner.lock();
        !inner
            .versions
            .values()
            .any(|chain| chain.first().is_some_and(|&(e, _)| e <= epoch))
    }

    /// Approximate heap footprint of the buffered versions.
    pub fn size_in_bytes(&self) -> usize {
        let inner = self.inner.lock();
        let records: usize = inner
            .versions
            .values()
            .flat_map(|chain| chain.iter())
            .map(|(_, rec)| {
                std::mem::size_of::<(u64, GraphRecord)>()
                    + rec.edges().len() * std::mem::size_of::<(u32, f64)>()
            })
            .sum();
        records + inner.insert_epochs.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi_graph::{EdgeId, RecordBuilder};

    fn rec(pairs: &[(u32, f64)]) -> GraphRecord {
        let mut b = RecordBuilder::new();
        for &(e, m) in pairs {
            b.add(EdgeId(e), m);
        }
        b.build()
    }

    /// The content of `rid` that [`DeltaStore::for_each_visible_at`] hands
    /// the merge path at `epoch`, if the delta owns a version of it.
    fn visible(d: &DeltaStore, epoch: u64, rid: RecordId) -> Option<GraphRecord> {
        let mut found = None;
        d.for_each_visible_at(epoch, |r, rec| {
            if r == rid {
                found = Some(rec.clone());
            }
        });
        found
    }

    #[test]
    fn inserts_take_consecutive_ids_and_epochs_gate_visibility() {
        let d = DeltaStore::new(10);
        let e1 = d.apply(&[DeltaOp::Insert(rec(&[(0, 1.0)]))]);
        let e2 = d.apply(&[
            DeltaOp::Insert(rec(&[(1, 2.0)])),
            DeltaOp::Insert(rec(&[(2, 3.0)])),
        ]);
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(d.record_count_at(0), 10);
        assert_eq!(d.record_count_at(e1), 11);
        assert_eq!(d.record_count_at(e2), 13);
        let mut seen = Vec::new();
        d.for_each_visible_at(e1, |rid, _| seen.push(rid));
        assert_eq!(seen, vec![10]);
        seen.clear();
        d.for_each_visible_at(e2, |rid, _| seen.push(rid));
        assert_eq!(seen, vec![10, 11, 12]);
    }

    #[test]
    fn updates_supersede_and_last_version_wins() {
        let d = DeltaStore::new(5);
        let e1 = d.apply(&[DeltaOp::Update(2, rec(&[(7, 1.0)]))]);
        let e2 = d.apply(&[DeltaOp::Update(2, rec(&[(7, 9.0)]))]);
        assert_eq!(d.touched_base_at(0).to_vec(), Vec::<u32>::new());
        assert_eq!(d.touched_base_at(e1).to_vec(), vec![2]);
        assert_eq!(visible(&d, e1, 2).unwrap().measure(EdgeId(7)), Some(1.0));
        assert_eq!(visible(&d, e2, 2).unwrap().measure(EdgeId(7)), Some(9.0));
        assert!(visible(&d, e1, 3).is_none());
    }

    #[test]
    fn update_of_prior_insert_is_not_a_base_touch() {
        let d = DeltaStore::new(3);
        let e1 = d.apply(&[DeltaOp::Insert(rec(&[(0, 1.0)]))]);
        let e2 = d.apply(&[DeltaOp::Update(3, rec(&[(0, 2.0)]))]);
        assert!(d.touched_base_at(e2).is_empty());
        assert_eq!(visible(&d, e2, 3).unwrap().measure(EdgeId(0)), Some(2.0));
        assert_eq!(visible(&d, e1, 3).unwrap().measure(EdgeId(0)), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "update of unknown record")]
    fn update_of_unknown_record_panics() {
        DeltaStore::new(2).apply(&[DeltaOp::Update(5, rec(&[(0, 1.0)]))]);
    }

    #[test]
    fn replay_is_idempotent() {
        let d = DeltaStore::with_epoch(4, 7);
        assert!(!d.apply_at(7, &[DeltaOp::Insert(rec(&[(0, 1.0)]))]));
        assert!(d.apply_at(8, &[DeltaOp::Insert(rec(&[(0, 1.0)]))]));
        assert!(!d.apply_at(8, &[DeltaOp::Insert(rec(&[(0, 1.0)]))]));
        assert_eq!(d.record_count_at(8), 5);
        assert_eq!(d.epoch(), 8);
    }
}
