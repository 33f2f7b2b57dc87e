//! Robustness: column and relation decoding must never panic on corrupt
//! bytes.

use graphbi_columnstore::{ColumnBuilder, SparseColumn};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn column_decode_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut buf = bytes::Bytes::from(bytes);
        if let Ok(col) = SparseColumn::decode(&mut buf) {
            prop_assert_eq!(col.presence().len(), col.non_null_count() as u64);
        }
    }

    #[test]
    fn column_round_trip_then_bitflip(
        entries in prop::collection::btree_map(0u32..100_000, -1e6f64..1e6, 1..200),
        flip_at in any::<prop::sample::Index>(),
    ) {
        let mut b = ColumnBuilder::new();
        for (&r, &v) in &entries {
            b.push(r, v);
        }
        let col = b.finish();
        let encoded = col.encode();
        // Round trip is exact.
        let back = SparseColumn::decode(&mut encoded.clone()).unwrap();
        prop_assert_eq!(&back, &col);
        // A corrupted copy decodes to something or errors — never panics.
        let mut corrupt = encoded.to_vec();
        let i = flip_at.index(corrupt.len());
        corrupt[i] ^= 0x40;
        let mut buf = bytes::Bytes::from(corrupt);
        let _ = SparseColumn::decode(&mut buf);
    }
}

#[test]
fn relation_load_rejects_corrupt_directory() {
    use graphbi_columnstore::{persist, RelationBuilder};
    use graphbi_graph::EdgeId;
    let dir = std::env::temp_dir().join(format!("graphbi-fuzz-rel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = RelationBuilder::new(8);
    for r in 0..50u32 {
        b.add_record(&[(EdgeId(r % 8), 1.0)]);
    }
    let relation = b.finish_with_width(4);
    persist::save(&relation, &dir).unwrap();

    // Truncate a partition file: load must error, not panic. Part files
    // are generation-named, so locate it by suffix.
    let part = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with("-part_0001.gbi"))
        })
        .expect("saved relation has a second partition file");
    let bytes = std::fs::read(&part).unwrap();
    std::fs::write(&part, &bytes[..bytes.len() / 2]).unwrap();
    assert!(persist::load(&dir).is_err());

    // Remove it entirely: also a clean error.
    std::fs::remove_file(&part).unwrap();
    assert!(persist::load(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
