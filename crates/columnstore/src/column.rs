//! Measure columns.

use bytes::{Buf, Bytes, BytesMut};
use graphbi_bitmap::kernels::{self, FoldAgg};
use graphbi_bitmap::{Bitmap, RecordId};

use crate::codec::Measures;
use crate::StoreError;

/// A sparse measure column: `values[presence.rank(r)]` is the measure of
/// record `r` when `presence.contains(r)`, NULL otherwise.
///
/// This is the vertically-compressed layout §4.1 relies on: NULLs occupy no
/// space, and the presence bitmap doubles as the edge's bitmap index column
/// `b_i` (a record has a measure on edge `i` exactly when it contains the
/// edge).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseColumn {
    presence: Bitmap,
    values: Measures,
}

impl SparseColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from parts.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != presence.len()`.
    pub fn from_parts(presence: Bitmap, values: Vec<f64>) -> SparseColumn {
        assert_eq!(
            presence.len(),
            values.len() as u64,
            "one value per present record"
        );
        SparseColumn {
            presence,
            values: Measures::Raw(values),
        }
    }

    /// The presence bitmap — also the bitmap index column of this edge.
    pub fn presence(&self) -> &Bitmap {
        &self.presence
    }

    /// Number of non-NULL entries.
    pub fn non_null_count(&self) -> usize {
        self.values.len()
    }

    /// The value for record `r`, or NULL.
    pub fn get(&self, r: RecordId) -> Option<f64> {
        self.presence.contains(r).then(|| {
            self.values
                .get(usize::try_from(self.presence.rank(r)).expect("rank fits usize"))
        })
    }

    /// Values for every record in `ids`, in ascending record order. Records
    /// absent from the column are skipped (a query result bitmap is always a
    /// subset of the presence bitmaps of the query's own edges, but view
    /// rewrites may probe wider sets).
    pub fn gather(&self, ids: &Bitmap) -> Vec<f64> {
        let mut out = Vec::with_capacity(ids.len().min(self.presence.len()) as usize);
        self.fold_over(ids, |v| out.push(v));
        out
    }

    /// Streams the values of every record in `ids` through `f`, in ascending
    /// record order, without materializing an intermediate vector — the fused
    /// gather-aggregate kernel. Skips records absent from the column, exactly
    /// like [`SparseColumn::gather`] (which is this kernel folded into a
    /// `Vec`).
    ///
    /// When `ids` covers the whole presence set (the full-column aggregate)
    /// every value streams through the block-decode kernels. Otherwise one
    /// [`Bitmap::for_each_rank_of`] walk turns each present id into its
    /// value offset — both key lists once, ranks incremental inside each
    /// container — so the cost is linear in the ids and containers touched,
    /// never a per-id rank from the column start.
    pub fn fold_over(&self, ids: &Bitmap, mut f: impl FnMut(f64)) {
        if self.covered_by(ids) {
            self.values.fold_all(&mut f);
        } else {
            self.presence.for_each_rank_of(ids, |r| {
                f(self
                    .values
                    .get(usize::try_from(r).expect("rank fits usize")))
            });
        }
    }

    /// True when `ids` contains every present record.
    fn covered_by(&self, ids: &Bitmap) -> bool {
        ids.len() >= self.presence.len() && self.presence.is_subset(ids)
    }

    /// Folds the values of every record in `ids` into a SUM/MIN/MAX/COUNT
    /// accumulator in one pass, in the documented four-lane order of
    /// [`graphbi_bitmap::kernels::fold_f64`] — identical on the scalar and
    /// simd paths, so aggregates computed here are bit-stable across
    /// hardware. When `ids` covers the whole column and the values are
    /// raw, the slice goes straight through the SIMD fold kernel.
    pub fn fold_aggregate(&self, ids: &Bitmap) -> FoldAgg {
        match self.values.raw_slice() {
            Some(slice) if self.covered_by(ids) => kernels::fold_f64(slice),
            _ => {
                let mut agg = FoldAgg::new();
                self.fold_over(ids, |v| agg.push(v));
                agg
            }
        }
    }

    /// Re-encodes the presence bitmap in its smallest representation; call
    /// after bulk loads.
    pub fn optimize(&mut self) {
        self.presence.optimize();
    }

    /// Appends the value of a record strictly beyond all present records —
    /// the incremental-ingest path (§6.1: the schema and data grow on
    /// demand as new records arrive).
    ///
    /// # Panics
    ///
    /// Panics when `record` is not larger than every present record.
    pub fn append(&mut self, record: RecordId, value: f64) {
        assert!(
            self.presence.max().is_none_or(|m| m < record),
            "append must be ascending: {record} after {:?}",
            self.presence.max()
        );
        self.presence.insert(record);
        self.values.push(value);
    }

    /// Heap bytes used by the column (bitmap + values). A
    /// dictionary-coded value block reports its packed size — the
    /// byte-budgeted column cache accounts compressed bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.presence.size_in_bytes() + self.values.size_in_bytes()
    }

    /// Serializes to a fresh buffer (v2 form): encoded presence bitmap
    /// then raw f64s.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.presence.encoded_len() + self.values.len() * 8);
        self.presence.encode_into(&mut buf);
        self.values.encode_raw_into(&mut buf);
        buf.freeze()
    }

    /// Decodes a column from the front of `buf` (v2 form).
    pub fn decode(buf: &mut impl Buf) -> Result<SparseColumn, StoreError> {
        let presence = Bitmap::decode(buf)?;
        let n = usize::try_from(presence.len()).expect("cardinality fits usize");
        let values = Measures::decode_raw(n, buf)
            .map_err(|_| StoreError::Format("sparse column values truncated"))?;
        Ok(SparseColumn { presence, values })
    }

    /// Serializes with the v3 compressed forms: v3-encoded presence bitmap
    /// then a codec-tagged value block.
    pub fn encode_v3(&self) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(1 + self.presence.encoded_len() + self.values.len() * 8);
        self.presence.encode_v3_into(&mut buf);
        self.values.encode_v3_into(&mut buf);
        buf.freeze()
    }

    /// Decodes a column written by [`SparseColumn::encode_v3`].
    pub fn decode_v3(buf: &mut impl Buf) -> Result<SparseColumn, StoreError> {
        let presence = Bitmap::decode(buf)?;
        let n = usize::try_from(presence.len()).expect("cardinality fits usize");
        let values = Measures::decode_v3(n, buf)?;
        Ok(SparseColumn { presence, values })
    }

    /// Iterates `(record, value)` pairs in ascending record order.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, f64)> + '_ {
        self.presence.iter().zip(self.values.iter())
    }

    /// Serializes only the value block in the raw v2 form (the presence
    /// bitmap is serialized separately so a disk-resident store can fetch
    /// the bitmap column without touching the measures).
    pub fn encode_values(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.values.len() * 8);
        self.values.encode_raw_into(&mut buf);
        buf.freeze()
    }

    /// Decodes a value block previously written by
    /// [`SparseColumn::encode_values`] and pairs it with its presence
    /// bitmap.
    pub fn decode_values(presence: Bitmap, buf: &mut impl Buf) -> Result<SparseColumn, StoreError> {
        let n = usize::try_from(presence.len()).expect("cardinality fits usize");
        let values = Measures::decode_raw(n, buf)?;
        Ok(SparseColumn { presence, values })
    }

    /// Serializes only the value block in the codec-tagged v3 form,
    /// dictionary-coding low-cardinality measures.
    pub fn encode_values_v3(&self) -> Bytes {
        self.values.encode_v3()
    }

    /// Decodes a v3 value block written by
    /// [`SparseColumn::encode_values_v3`]. A dictionary-coded block stays
    /// packed in memory; [`SparseColumn::fold_over`] and
    /// [`SparseColumn::get`] read straight through the dictionary.
    pub fn decode_values_v3(
        presence: Bitmap,
        buf: &mut impl Buf,
    ) -> Result<SparseColumn, StoreError> {
        let n = usize::try_from(presence.len()).expect("cardinality fits usize");
        let values = Measures::decode_v3(n, buf)?;
        Ok(SparseColumn { presence, values })
    }
}

/// Builds a [`SparseColumn`] from ascending `(record, value)` appends — the
/// loader's path.
#[derive(Default)]
pub struct ColumnBuilder {
    presence: graphbi_bitmap::BitmapBuilder,
    values: Vec<f64>,
}

impl ColumnBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the value of `record`; records must arrive strictly
    /// ascending.
    pub fn push(&mut self, record: RecordId, value: f64) {
        self.presence.push(record);
        self.values.push(value);
    }

    /// Finishes the column.
    pub fn finish(self) -> SparseColumn {
        SparseColumn {
            presence: self.presence.finish(),
            values: Measures::Raw(self.values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(entries: &[(u32, f64)]) -> SparseColumn {
        let mut b = ColumnBuilder::new();
        for &(r, v) in entries {
            b.push(r, v);
        }
        b.finish()
    }

    #[test]
    fn get_returns_value_or_null() {
        let c = column(&[(1, 10.0), (5, 50.0), (70_000, 7.0)]);
        assert_eq!(c.get(1), Some(10.0));
        assert_eq!(c.get(5), Some(50.0));
        assert_eq!(c.get(70_000), Some(7.0));
        assert_eq!(c.get(2), None);
        assert_eq!(c.non_null_count(), 3);
    }

    #[test]
    fn gather_both_paths_agree() {
        let entries: Vec<(u32, f64)> = (0..10_000).map(|i| (i * 3, f64::from(i))).collect();
        let c = column(&entries);
        // Small id set → rank walk.
        let small: Bitmap = [3u32, 9, 29_997].into_iter().collect();
        assert_eq!(c.gather(&small), vec![1.0, 3.0, 9_999.0]);
        // Covering id set → whole-column stream.
        let large: Bitmap = (0..30_000u32).collect();
        let got = c.gather(&large);
        assert_eq!(got.len(), 10_000);
        assert_eq!(got[0], 0.0);
        assert_eq!(got[9_999], 9_999.0);
    }

    #[test]
    fn fold_over_matches_gather_on_both_paths() {
        let entries: Vec<(u32, f64)> = (0..10_000).map(|i| (i * 3, f64::from(i))).collect();
        let c = column(&entries);
        let small: Bitmap = [3u32, 9, 29_997].into_iter().collect();
        let large: Bitmap = (0..30_000u32).collect();
        for ids in [&small, &large] {
            let mut streamed = Vec::new();
            c.fold_over(ids, |v| streamed.push(v));
            assert_eq!(streamed, c.gather(ids));
        }
        let mut sum = 0.0;
        let mut n = 0u64;
        c.fold_over(&large, |v| {
            sum += v;
            n += 1;
        });
        assert_eq!(n, 10_000);
        assert_eq!(sum, (0..10_000).map(f64::from).sum());
    }

    #[test]
    fn gather_skips_absent_records() {
        let c = column(&[(10, 1.0), (20, 2.0)]);
        let ids: Bitmap = [5u32, 10, 15, 20, 25].into_iter().collect();
        assert_eq!(c.gather(&ids), vec![1.0, 2.0]);
        let pairs: Vec<(u32, f64)> = ids
            .iter()
            .filter_map(|r| c.get(r).map(|v| (r, v)))
            .collect();
        assert_eq!(pairs, vec![(10, 1.0), (20, 2.0)]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = column(&[(0, -1.5), (100, f64::MAX), (65_536, 0.0)]);
        let bytes = c.encode();
        let back = SparseColumn::decode(&mut bytes.clone()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_truncated_values() {
        let c = column(&[(0, 1.0), (1, 2.0)]);
        let bytes = c.encode();
        let mut cut = bytes.slice(..bytes.len() - 4);
        assert!(SparseColumn::decode(&mut cut).is_err());
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let c = column(&[(2, 0.2), (4, 0.4)]);
        let pairs: Vec<(u32, f64)> = c.iter().collect();
        assert_eq!(pairs, vec![(2, 0.2), (4, 0.4)]);
    }
}
