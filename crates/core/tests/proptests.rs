//! Property tests for the attributes registry: ranking coherence,
//! set/get roundtrips, initiator matching laws, and the memoized
//! rankings.

use hetmem_bitmap::Bitmap;
use hetmem_core::RANK_MEMO_KEYS;
use hetmem_core::{attr, AttrError, AttrFlags, AttrId, MemAttrs, NodeId, TargetValue};
use hetmem_topology::platforms;
use proptest::prelude::*;
use std::sync::Arc;

fn registry() -> MemAttrs {
    MemAttrs::new(Arc::new(platforms::knl_snc4_flat()))
}

/// (node, value) assignments for one cluster-scoped initiator.
fn assignments() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..8, 1u64..1_000_000), 1..16)
}

/// Stored and queried initiators on the KNL: whole clusters, a few
/// cores inside one, a pair straddling two clusters, the whole
/// machine, and PUs past the machine that match nothing.
const INITIATORS: [&str; 7] = ["0-15", "16-31", "3-4", "12-19", "0-63", "48-63", "300-301"];

/// Which ranking query to run.
#[derive(Debug, Clone, Copy)]
enum Query {
    Any,
    Local,
}

fn rank(a: &MemAttrs, q: Query, id: AttrId, ini: &Bitmap) -> Result<Arc<[TargetValue]>, AttrError> {
    match q {
        Query::Any => a.rank_targets(id, ini),
        Query::Local => a.rank_local_targets(id, ini),
    }
}

fn cpuset(s: &str) -> Bitmap {
    s.parse().expect("cpuset")
}

/// A KNL registry filled with `(attribute, target, stored initiator,
/// value)` writes, plus one custom attribute of each direction.
fn filled(writes: &[(usize, u32, usize, u64)]) -> MemAttrs {
    let mut a = registry();
    for higher in [true, false] {
        a.register(
            &format!("Custom{higher}"),
            AttrFlags { higher_is_best: higher, need_initiator: true },
        )
        .expect("fresh name");
    }
    let settable: Vec<AttrId> = a
        .attributes()
        .into_iter()
        .filter(|&id| id != attr::CAPACITY && id != attr::LOCALITY)
        .collect();
    for &(attr_pick, node, ini_pick, value) in writes {
        let id = settable[attr_pick % settable.len()];
        let ini = cpuset(INITIATORS[ini_pick % INITIATORS.len()]);
        a.set_value(id, NodeId(node), Some(&ini), value).expect("valid write");
    }
    a
}

fn writes() -> impl Strategy<Value = Vec<(usize, u32, usize, u64)>> {
    prop::collection::vec((0usize..8, 0u32..8, 0usize..7, 1u64..1_000), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// rank_targets is sorted according to the attribute's direction,
    /// and get_best_target is exactly its head.
    #[test]
    fn ranking_is_sorted_and_best_is_head(vals in assignments(), higher in any::<bool>()) {
        let mut a = registry();
        let id = a
            .register("Custom", AttrFlags { higher_is_best: higher, need_initiator: true })
            .expect("fresh name");
        let ini: Bitmap = "0-15".parse().expect("cpuset");
        for (node, v) in &vals {
            a.set_value(id, NodeId(*node), Some(&ini), *v).expect("valid");
        }
        let ranked = a.rank_targets(id, &ini).expect("rank");
        for w in ranked.windows(2) {
            if higher {
                prop_assert!(w[0].value >= w[1].value);
            } else {
                prop_assert!(w[0].value <= w[1].value);
            }
            // Ties broken by node id → total deterministic order.
            if w[0].value == w[1].value {
                prop_assert!(w[0].node < w[1].node);
            }
        }
        let best = a.get_best_target(id, &ini);
        prop_assert_eq!(best, ranked.first().map(|tv| (tv.node, tv.value)));
    }

    /// set_value overwrites per initiator; last write wins.
    #[test]
    fn last_write_wins(v1 in 1u64..1_000_000, v2 in 1u64..1_000_000) {
        let mut a = registry();
        let ini: Bitmap = "0-15".parse().expect("cpuset");
        a.set_value(attr::BANDWIDTH, NodeId(0), Some(&ini), v1).expect("valid");
        a.set_value(attr::BANDWIDTH, NodeId(0), Some(&ini), v2).expect("valid");
        prop_assert_eq!(
            a.get_value(attr::BANDWIDTH, NodeId(0), Some(&ini)).expect("known"),
            Some(v2)
        );
        prop_assert_eq!(a.initiators(attr::BANDWIDTH, NodeId(0)).len(), 1);
    }

    /// Any query initiator inside the stored one resolves to the
    /// stored value (inclusion matching).
    #[test]
    fn included_queries_resolve(lo in 0usize..14, len in 0usize..2, v in 1u64..1_000_000) {
        let mut a = registry();
        let stored: Bitmap = "0-15".parse().expect("cpuset");
        a.set_value(attr::LATENCY, NodeId(0), Some(&stored), v).expect("valid");
        let query = Bitmap::from_range(lo, lo + len);
        prop_assert_eq!(
            a.get_value(attr::LATENCY, NodeId(0), Some(&query)).expect("known"),
            Some(v)
        );
    }

    /// Disjoint query initiators never resolve local-only values.
    #[test]
    fn disjoint_queries_do_not_resolve(lo in 16usize..60, v in 1u64..1_000_000) {
        let mut a = registry();
        let stored: Bitmap = "0-15".parse().expect("cpuset");
        a.set_value(attr::LATENCY, NodeId(0), Some(&stored), v).expect("valid");
        let query = Bitmap::from_range(lo, lo + 3);
        prop_assert_eq!(a.get_value(attr::LATENCY, NodeId(0), Some(&query)).expect("known"), None);
    }

    /// rank_local_targets is always a subsequence of rank_targets.
    #[test]
    fn local_ranking_is_subsequence(vals in assignments()) {
        let mut a = registry();
        let ini: Bitmap = "0-15".parse().expect("cpuset");
        for (node, v) in &vals {
            a.set_value(attr::BANDWIDTH, NodeId(*node), Some(&ini), *v).expect("valid");
        }
        let full: Vec<_> =
            a.rank_targets(attr::BANDWIDTH, &ini).expect("rank").iter().map(|t| t.node).collect();
        let local: Vec<_> = a
            .rank_local_targets(attr::BANDWIDTH, &ini)
            .expect("rank")
            .iter()
            .map(|t| t.node)
            .collect();
        let mut it = full.iter();
        for l in &local {
            prop_assert!(it.any(|f| f == l), "{local:?} not a subsequence of {full:?}");
        }
    }

    /// Capacity is stable under any performance-value writes.
    #[test]
    fn capacity_unaffected_by_perf_values(vals in assignments()) {
        let mut a = registry();
        let ini: Bitmap = "0-15".parse().expect("cpuset");
        let before: Vec<_> = (0..8)
            .map(|n| a.get_value(attr::CAPACITY, NodeId(n), None).expect("known"))
            .collect();
        for (node, v) in &vals {
            a.set_value(attr::LATENCY, NodeId(*node), Some(&ini), *v).expect("valid");
        }
        let after: Vec<_> = (0..8)
            .map(|n| a.get_value(attr::CAPACITY, NodeId(n), None).expect("known"))
            .collect();
        prop_assert_eq!(before, after);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A memoized ranking is the ranking: for every attribute, both
    /// scopes and every query initiator, the first and the second
    /// query equal what a fresh clone (empty memo) computes, and the
    /// second query shares the first one's slice.
    #[test]
    fn memoized_rankings_equal_uncached_ones(writes in writes()) {
        let a = filled(&writes);
        for id in a.attributes() {
            for q in [Query::Any, Query::Local] {
                for ini in INITIATORS.map(cpuset) {
                    let first = rank(&a, q, id, &ini).expect("known attribute");
                    let second = rank(&a, q, id, &ini).expect("known attribute");
                    let fresh = rank(&a.clone(), q, id, &ini).expect("known attribute");
                    prop_assert_eq!(&first, &fresh, "{:?} #{} from {}", q, id.0, ini);
                    prop_assert_eq!(&second, &fresh);
                    prop_assert!(Arc::ptr_eq(&first, &second), "a hit shares the slice");
                    prop_assert!(!Arc::ptr_eq(&first, &fresh), "a clone starts empty");
                }
            }
        }
    }
}

#[test]
fn set_value_and_register_reach_the_next_ranking() {
    let mut a = registry();
    let c0 = cpuset("0-15");
    a.set_value(attr::BANDWIDTH, NodeId(0), Some(&c0), 100).expect("valid");
    a.set_value(attr::BANDWIDTH, NodeId(4), Some(&c0), 200).expect("valid");
    let nodes = |a: &MemAttrs, q: Query| -> Vec<NodeId> {
        rank(a, q, attr::BANDWIDTH, &c0).expect("rank").iter().map(|tv| tv.node).collect()
    };
    for q in [Query::Any, Query::Local] {
        assert_eq!(nodes(&a, q), [NodeId(4), NodeId(0)], "{q:?}");
    }
    // A write that reorders the targets shows in the next ranking.
    a.set_value(attr::BANDWIDTH, NodeId(0), Some(&c0), 300).expect("valid");
    for q in [Query::Any, Query::Local] {
        assert_eq!(nodes(&a, q), [NodeId(0), NodeId(4)], "{q:?}");
    }
    // A register forgets the memo too: the next query computes anew,
    // and the new attribute ranks once it has values.
    let before = a.rank_targets(attr::BANDWIDTH, &c0).expect("rank");
    let next = AttrId(attr::FIRST_CUSTOM.0);
    assert_eq!(a.rank_targets(next, &c0), Err(AttrError::UnknownAttr(next)));
    let triad = a
        .register("Triad", AttrFlags { higher_is_best: true, need_initiator: true })
        .expect("fresh name");
    assert_eq!(triad, next);
    let after = a.rank_targets(attr::BANDWIDTH, &c0).expect("rank");
    assert_eq!(after, before);
    assert!(!Arc::ptr_eq(&after, &before), "register cleared the memo");
    assert!(a.rank_targets(triad, &c0).expect("registered").is_empty());
    a.set_value(triad, NodeId(4), Some(&c0), 9).expect("valid");
    let ranked = a.rank_local_targets(triad, &c0).expect("registered");
    assert_eq!(&ranked[..], [TargetValue { node: NodeId(4), value: 9 }]);
}

#[test]
fn past_the_cap_rankings_stay_correct_and_the_memo_stops_growing() {
    let mut a = registry();
    let c0 = cpuset("0-15");
    a.set_value(attr::LATENCY, NodeId(0), Some(&c0), 130).expect("valid");
    a.set_value(attr::LATENCY, NodeId(4), Some(&c0), 135).expect("valid");
    // RANK_MEMO_KEYS distinct initiators fill the memo.
    let initiators: Vec<Bitmap> =
        (0..RANK_MEMO_KEYS + 8).map(|i| Bitmap::from_range(i % 16, i)).collect();
    let kept: Vec<Arc<[TargetValue]>> = initiators[..RANK_MEMO_KEYS]
        .iter()
        .map(|ini| a.rank_targets(attr::LATENCY, ini).expect("rank"))
        .collect();
    // Later keys are computed correctly but never stored...
    for ini in &initiators[RANK_MEMO_KEYS..] {
        let first = a.rank_targets(attr::LATENCY, ini).expect("rank");
        let second = a.rank_targets(attr::LATENCY, ini).expect("rank");
        assert_eq!(first, a.clone().rank_targets(attr::LATENCY, ini).expect("rank"));
        assert_eq!(first, second);
        assert!(!Arc::ptr_eq(&first, &second), "{ini} was stored past the cap");
        let local = a.rank_local_targets(attr::LATENCY, ini).expect("rank");
        assert_eq!(local, a.clone().rank_local_targets(attr::LATENCY, ini).expect("rank"));
    }
    // ...and the keys already stored are still served from the memo.
    for (ini, kept) in initiators.iter().zip(&kept) {
        assert!(Arc::ptr_eq(kept, &a.rank_targets(attr::LATENCY, ini).expect("rank")));
    }
}

#[test]
fn threads_sharing_one_registry_get_the_single_thread_answer() {
    let writes: Vec<(usize, u32, usize, u64)> =
        (0..40).map(|i| (i % 8, (i * 3 % 8) as u32, i % 7, (i * 37 % 500 + 1) as u64)).collect();
    let shared = Arc::new(filled(&writes));
    let queries: Vec<(Query, AttrId, Bitmap)> = shared
        .attributes()
        .into_iter()
        .flat_map(|id| {
            [Query::Any, Query::Local]
                .into_iter()
                .flat_map(move |q| INITIATORS.map(|s| (q, id, cpuset(s))))
        })
        .collect();
    let expected: Vec<Arc<[TargetValue]>> = queries
        .iter()
        .map(|(q, id, ini)| rank(&shared.as_ref().clone(), *q, *id, ini).expect("rank"))
        .collect();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (shared, queries, expected, start) = (&shared, &queries, &expected, &start);
                scope.spawn(move || {
                    // All four start together, each from its own offset,
                    // so first computations race with hits.
                    start.wait();
                    for round in 0..50 {
                        for k in 0..queries.len() {
                            let i = (k + t * 17 + round) % queries.len();
                            let (q, id, ini) = &queries[i];
                            let got = rank(shared, *q, *id, ini).expect("rank");
                            assert_eq!(got, expected[i], "{q:?} #{} from {ini}", id.0);
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("ranking thread");
        }
    });
}
