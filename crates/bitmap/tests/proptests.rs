//! Property-based tests for bitmap set algebra.

use hetmem_bitmap::Bitmap;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy producing a finite bitmap together with its reference model.
fn finite_bitmap() -> impl Strategy<Value = (Bitmap, BTreeSet<usize>)> {
    prop::collection::btree_set(0usize..512, 0..64)
        .prop_map(|set| (Bitmap::from_indices(set.iter().copied()), set))
}

proptest! {
    #[test]
    fn model_or((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        let r = a.or(&b);
        let mr: BTreeSet<_> = ma.union(&mb).copied().collect();
        prop_assert_eq!(r.iter().collect::<Vec<_>>(), mr.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn model_and((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        let r = a.and(&b);
        let mr: BTreeSet<_> = ma.intersection(&mb).copied().collect();
        prop_assert_eq!(r.iter().collect::<Vec<_>>(), mr.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn model_xor((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        let r = a.xor(&b);
        let mr: BTreeSet<_> = ma.symmetric_difference(&mb).copied().collect();
        prop_assert_eq!(r.iter().collect::<Vec<_>>(), mr.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn model_andnot((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        let r = a.andnot(&b);
        let mr: BTreeSet<_> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(r.iter().collect::<Vec<_>>(), mr.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn weight_matches_model((a, ma) in finite_bitmap()) {
        prop_assert_eq!(a.weight(), Some(ma.len()));
    }

    #[test]
    fn and_weight_is_weight_of_and(
        (a, _) in finite_bitmap(),
        (b, _) in finite_bitmap(),
        flip_a in any::<bool>(),
        flip_b in any::<bool>(),
    ) {
        // Complements cover the infinite operands.
        let a = if flip_a { a.not() } else { a };
        let b = if flip_b { b.not() } else { b };
        prop_assert_eq!(a.and_weight(&b), a.and(&b).weight());
        prop_assert_eq!(b.and_weight(&a), a.and(&b).weight());
    }

    #[test]
    fn first_last_match_model((a, ma) in finite_bitmap()) {
        prop_assert_eq!(a.first(), ma.iter().next().copied());
        prop_assert_eq!(a.last(), ma.iter().next_back().copied());
    }

    #[test]
    fn display_parse_roundtrip((a, _) in finite_bitmap()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Bitmap>().unwrap(), a);
    }

    #[test]
    fn taskset_roundtrip((a, _) in finite_bitmap()) {
        let s = a.to_taskset().unwrap();
        prop_assert_eq!(Bitmap::from_taskset(&s).unwrap(), a);
    }

    #[test]
    fn includes_is_subset_relation((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        prop_assert_eq!(a.includes(&b), mb.is_subset(&ma));
    }

    #[test]
    fn intersects_is_nonempty_intersection((a, ma) in finite_bitmap(), (b, mb) in finite_bitmap()) {
        prop_assert_eq!(a.intersects(&b), !ma.is_disjoint(&mb));
    }

    #[test]
    fn demorgan((a, _) in finite_bitmap(), (b, _) in finite_bitmap()) {
        // !(a | b) == !a & !b — exercises the infinite representation.
        prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn complement_partitions((a, _) in finite_bitmap()) {
        let c = a.not();
        prop_assert!(!a.intersects(&c));
        prop_assert!(a.or(&c).is_full());
    }

    #[test]
    fn compare_is_total_order((a, _) in finite_bitmap(), (b, _) in finite_bitmap()) {
        use std::cmp::Ordering;
        let ab = a.compare(&b);
        let ba = b.compare(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(&a, &b);
        }
    }

    #[test]
    fn set_then_clear_is_identity((a, _) in finite_bitmap(), idx in 0usize..512) {
        let mut m = a.clone();
        let was = m.is_set(idx);
        m.set(idx);
        prop_assert!(m.is_set(idx));
        if !was {
            m.clear(idx);
            prop_assert_eq!(m, a);
        }
    }

    #[test]
    fn range_set_matches_loop(lo in 0usize..256, len in 0usize..64) {
        let hi = lo + len;
        let ranged = Bitmap::from_range(lo, hi);
        let looped = Bitmap::from_indices(lo..=hi);
        prop_assert_eq!(ranged, looped);
    }
}
