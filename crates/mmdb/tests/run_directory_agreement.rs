//! The RID list's run directory against every paper method.
//!
//! A column's `RidList` keeps one offset per domain ID and answers
//! `search`/`lower_bound`/`equal_range`/`key_range` over the sorted ID
//! array it never stores. Each answer must equal what every one of the
//! eight kinds returns when built over that array expanded. Covered:
//! duplicates, empty and one-row columns, domain IDs no row carries
//! (`Column::from_parts` over a wider domain), and probes past the
//! domain, up to `u32::MAX`.

use ccindex_common::{OrderedIndex, SearchIndex, SortedArray};
use mmdb::{Column, Domain, IndexHandle, IndexKind, RidList, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// A column over the `d`-value domain `0, 10, .., 10 (d - 1)` whose rows
/// carry `ids`.
fn column(d: u32, ids: Vec<u32>) -> Column {
    let domain = Domain::from_values((0..i64::from(d)).map(|v| Value::Int(v * 10)).collect());
    Column::from_parts(domain, ids)
}

/// `probes`, each alone and each neighbouring pair as an inclusive key
/// range, through `rids` and through every kind built over its expanded
/// IDs.
fn assert_agrees_with_every_kind(rids: &RidList, probes: &[u32]) {
    let keys = SortedArray::from_vec(rids.expanded_ids());
    assert_eq!(keys.len(), rids.len());
    let pairs: Vec<(u32, u32)> = probes
        .windows(2)
        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
        .collect();
    for kind in IndexKind::ALL {
        let handle = IndexHandle::build(kind, &keys);
        assert_eq!(
            rids.search_batch(probes),
            handle.as_search().search_batch(probes),
            "{kind:?} search"
        );
        let Some(ordered) = handle.as_ordered() else {
            continue;
        };
        assert_eq!(
            rids.lower_bound_batch(probes),
            ordered.lower_bound_batch(probes),
            "{kind:?} lower_bound"
        );
        for &id in probes {
            assert_eq!(
                rids.equal_range(id),
                ordered.equal_range(id),
                "{kind:?} equal_range({id})"
            );
        }
        for &(lo, hi) in &pairs {
            assert_eq!(
                rids.key_range(lo, hi),
                ordered.key_range(lo, hi),
                "{kind:?} key_range({lo}, {hi})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `stride` > 1 leaves every ID off the stride without a row.
    #[test]
    fn the_run_directory_agrees_with_every_kind(
        d in 1u32..120,
        stride in 1u32..4,
        seeds in vec(0u32..1_000_000, 0..300),
        probes in vec(0u32..130, 1..40),
    ) {
        let ids = seeds.iter().map(|s| s % d / stride * stride).collect();
        let rids = RidList::for_column(&column(d, ids));
        prop_assert_eq!(rids.len(), seeds.len());
        let mut probes = probes;
        probes.push(u32::MAX);
        assert_agrees_with_every_kind(&rids, &probes);
    }
}

#[test]
fn empty_one_row_and_gapped_columns_agree_with_every_kind() {
    for (d, ids) in [
        (0, vec![]),
        (5, vec![]),
        (1, vec![0]),
        (9, vec![4]),
        (3, vec![2; 40]),
        (6, vec![5, 0, 5, 0]),
    ] {
        let rids = RidList::for_column(&column(d, ids.clone()));
        // Every ID, the two past the domain's end, and `u32::MAX`.
        let probes: Vec<u32> = (0..d + 2).chain([u32::MAX]).collect();
        assert_agrees_with_every_kind(&rids, &probes);
        // Every ID's run holds exactly the rows that carry it.
        for id in 0..d {
            let want: Vec<u32> = (0u32..)
                .zip(&ids)
                .filter(|&(_, &carried)| carried == id)
                .map(|(rid, _)| rid)
                .collect();
            assert_eq!(rids.run(id, id), want, "d={d} id={id}");
        }
    }
}

/// Paper scale, for the release-mode CI step: 2M rows over a domain of
/// 2^21 values, about a third of which no row carries.
#[test]
#[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
fn the_run_directory_agrees_with_every_kind_at_two_million_rows() {
    const ROWS: u32 = 2_000_000;
    const D: u32 = 1 << 21;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let ids = (0..ROWS).map(|_| (next() % u64::from(D)) as u32).collect();
    let rids = RidList::for_column(&column(D, ids));
    let mut probes: Vec<u32> = (0..100_000)
        .map(|_| (next() % u64::from(D + 10)) as u32)
        .collect();
    probes.extend([0, D - 1, D, u32::MAX]);
    assert_agrees_with_every_kind(&rids, &probes);
}
