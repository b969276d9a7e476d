//! hwloc-style dynamic bitmaps.
//!
//! This crate provides [`Bitmap`], a growable set of unsigned bit indices
//! modelled on hwloc's `hwloc_bitmap_t`. Bitmaps are used throughout the
//! workspace as *CPU sets* (which logical processors an initiator covers)
//! and *node sets* (which NUMA nodes a memory binding covers).
//!
//! Like hwloc bitmaps, a [`Bitmap`] may be *infinitely set*: every index
//! above the explicitly stored words is considered set. This is how
//! `hwloc_bitmap_full()` and unbounded ranges (`"4-"`) are represented
//! without allocating unbounded storage.
//!
//! # Example
//!
//! ```
//! use hetmem_bitmap::Bitmap;
//!
//! let mut set = Bitmap::new();
//! set.set_range(0, 3);
//! set.set(8);
//! assert_eq!(set.to_string(), "0-3,8");
//! assert_eq!(set.weight(), Some(5));
//!
//! let full = Bitmap::full();
//! assert!(full.is_set(1_000_000));
//! assert!(full.includes(&set));
//! ```

#![warn(missing_docs)]
mod parse;

pub use parse::ParseBitmapError;

use std::cmp::Ordering;
use std::fmt;

const BITS_PER_WORD: usize = 64;

/// A dynamically sized set of unsigned bit indices, possibly infinite.
///
/// The set is stored as a vector of 64-bit words plus an `infinite` flag;
/// when `infinite` is true, every index at or above `words.len() * 64` is
/// considered a member. All operations normalize the representation so
/// that structural equality (`==`) matches set equality.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Vec<u64>,
    infinite: bool,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Bitmap { words: Vec::new(), infinite: false }
    }

    /// Creates a bitmap with every index set (hwloc's "full" bitmap).
    pub fn full() -> Self {
        Bitmap { words: Vec::new(), infinite: true }
    }

    /// Creates a bitmap with exactly one index set.
    pub fn only(index: usize) -> Self {
        let mut b = Bitmap::new();
        b.set(index);
        b
    }

    /// Creates a bitmap from an inclusive range of indices.
    pub fn from_range(begin: usize, end: usize) -> Self {
        let mut b = Bitmap::new();
        b.set_range(begin, end);
        b
    }

    /// Creates a bitmap from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut b = Bitmap::new();
        for i in indices {
            b.set(i);
        }
        b
    }

    fn word_index(index: usize) -> (usize, u64) {
        (index / BITS_PER_WORD, 1u64 << (index % BITS_PER_WORD))
    }

    fn ensure_words(&mut self, nwords: usize) {
        if self.words.len() < nwords {
            let fill = if self.infinite { u64::MAX } else { 0 };
            self.words.resize(nwords, fill);
        }
    }

    /// Removes trailing words that carry no information.
    fn normalize(&mut self) {
        let trail = if self.infinite { u64::MAX } else { 0 };
        while self.words.last() == Some(&trail) {
            self.words.pop();
        }
    }

    fn word_at(&self, i: usize) -> u64 {
        if i < self.words.len() {
            self.words[i]
        } else if self.infinite {
            u64::MAX
        } else {
            0
        }
    }

    /// Returns `true` if the bitmap has no index set.
    pub fn is_zero(&self) -> bool {
        !self.infinite && self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if every index is set.
    pub fn is_full(&self) -> bool {
        self.infinite && self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Returns `true` if the bitmap is infinitely set (all indices above
    /// some point are members).
    pub fn is_infinite(&self) -> bool {
        self.infinite
    }

    /// Tests whether `index` is a member.
    pub fn is_set(&self, index: usize) -> bool {
        let (w, m) = Self::word_index(index);
        self.word_at(w) & m != 0
    }

    /// Adds `index` to the set.
    pub fn set(&mut self, index: usize) {
        if self.infinite && index / BITS_PER_WORD >= self.words.len() {
            return;
        }
        let (w, m) = Self::word_index(index);
        self.ensure_words(w + 1);
        self.words[w] |= m;
        self.normalize();
    }

    /// Removes `index` from the set.
    pub fn clear(&mut self, index: usize) {
        let (w, m) = Self::word_index(index);
        if !self.infinite && w >= self.words.len() {
            return;
        }
        self.ensure_words(w + 1);
        self.words[w] &= !m;
        self.normalize();
    }

    /// Adds the inclusive range `[begin, end]` to the set.
    pub fn set_range(&mut self, begin: usize, end: usize) {
        if begin > end {
            return;
        }
        let last_word = end / BITS_PER_WORD;
        self.ensure_words(last_word + 1);
        for i in begin..=end {
            let (w, m) = Self::word_index(i);
            self.words[w] |= m;
        }
        self.normalize();
    }

    /// Adds every index at or above `begin` (an unbounded range, like
    /// hwloc's `"N-"` syntax).
    pub fn set_range_unbounded(&mut self, begin: usize) {
        let first_word = begin / BITS_PER_WORD;
        self.ensure_words(first_word + 1);
        // Set the partial word then drop everything after it.
        let within = begin % BITS_PER_WORD;
        let mask = u64::MAX << within;
        self.words[first_word] |= mask;
        for w in self.words.iter_mut().skip(first_word + 1) {
            *w = u64::MAX;
        }
        self.infinite = true;
        self.normalize();
    }

    /// Removes the inclusive range `[begin, end]` from the set.
    pub fn clear_range(&mut self, begin: usize, end: usize) {
        if begin > end {
            return;
        }
        let last_word = end / BITS_PER_WORD;
        if self.infinite || last_word < self.words.len() {
            self.ensure_words(last_word + 1);
        }
        let max = (self.words.len() * BITS_PER_WORD).saturating_sub(1);
        for i in begin..=end.min(max) {
            let (w, m) = Self::word_index(i);
            if w < self.words.len() {
                self.words[w] &= !m;
            }
        }
        self.normalize();
    }

    /// Empties the set.
    pub fn clear_all(&mut self) {
        self.words.clear();
        self.infinite = false;
    }

    /// Keeps only the lowest set index (hwloc's `hwloc_bitmap_singlify`).
    ///
    /// Used to pick one PU out of a CPU set when binding a thread.
    pub fn singlify(&mut self) {
        match self.first() {
            Some(first) => {
                self.clear_all();
                self.set(first);
            }
            None => self.clear_all(),
        }
    }

    /// Lowest set index, or `None` when empty.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * BITS_PER_WORD + w.trailing_zeros() as usize);
            }
        }
        if self.infinite {
            Some(self.words.len() * BITS_PER_WORD)
        } else {
            None
        }
    }

    /// Highest set index; `None` when empty **or** infinite.
    pub fn last(&self) -> Option<usize> {
        if self.infinite {
            return None;
        }
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(i * BITS_PER_WORD + (BITS_PER_WORD - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Lowest set index strictly greater than `prev`, or `None`.
    pub fn next(&self, prev: usize) -> Option<usize> {
        let start = prev + 1;
        let (mut w, _) = Self::word_index(start);
        let within = start % BITS_PER_WORD;
        if w >= self.words.len() {
            return if self.infinite { Some(start) } else { None };
        }
        let masked = self.words[w] & (u64::MAX << within);
        if masked != 0 {
            return Some(w * BITS_PER_WORD + masked.trailing_zeros() as usize);
        }
        w += 1;
        while w < self.words.len() {
            if self.words[w] != 0 {
                return Some(w * BITS_PER_WORD + self.words[w].trailing_zeros() as usize);
            }
            w += 1;
        }
        if self.infinite {
            Some(self.words.len() * BITS_PER_WORD)
        } else {
            None
        }
    }

    /// Lowest unset index, or `None` when full.
    pub fn first_unset(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                return Some(i * BITS_PER_WORD + (!w).trailing_zeros() as usize);
            }
        }
        if self.infinite {
            None
        } else {
            Some(self.words.len() * BITS_PER_WORD)
        }
    }

    /// Number of set indices; `None` when infinite.
    pub fn weight(&self) -> Option<usize> {
        if self.infinite {
            None
        } else {
            Some(self.words.iter().map(|w| w.count_ones() as usize).sum())
        }
    }

    /// Number of indices set in both bitmaps (`self.and(other).weight()`
    /// without building the intersection); `None` when both are
    /// infinite.
    pub fn and_weight(&self, other: &Bitmap) -> Option<usize> {
        if self.infinite && other.infinite {
            return None;
        }
        let n = self.words.len().max(other.words.len());
        Some((0..n).map(|i| (self.word_at(i) & other.word_at(i)).count_ones() as usize).sum())
    }

    /// Iterates over the set indices in increasing order.
    ///
    /// For infinite bitmaps the iterator never ends; callers typically
    /// bound it with `take`.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bitmap: self, next: self.first() }
    }

    /// Set union, in place.
    pub fn or_assign(&mut self, other: &Bitmap) {
        let n = self.words.len().max(other.words.len());
        self.ensure_words(n);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w |= other.word_at(i);
        }
        self.infinite |= other.infinite;
        self.normalize();
    }

    /// Set intersection, in place.
    pub fn and_assign(&mut self, other: &Bitmap) {
        let n = self.words.len().max(other.words.len());
        self.ensure_words(n);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.word_at(i);
        }
        self.infinite &= other.infinite;
        self.normalize();
    }

    /// Symmetric difference, in place.
    pub fn xor_assign(&mut self, other: &Bitmap) {
        let n = self.words.len().max(other.words.len());
        self.ensure_words(n);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w ^= other.word_at(i);
        }
        self.infinite ^= other.infinite;
        self.normalize();
    }

    /// Set difference (`self \ other`), in place.
    pub fn andnot_assign(&mut self, other: &Bitmap) {
        let n = self.words.len().max(other.words.len());
        self.ensure_words(n);
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.word_at(i);
        }
        self.infinite &= !other.infinite;
        self.normalize();
    }

    /// Returns the union of two bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.or_assign(other);
        r
    }

    /// Returns the intersection of two bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.and_assign(other);
        r
    }

    /// Returns the symmetric difference of two bitmaps.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.xor_assign(other);
        r
    }

    /// Returns `self \ other`.
    pub fn andnot(&self, other: &Bitmap) -> Bitmap {
        let mut r = self.clone();
        r.andnot_assign(other);
        r
    }

    /// Returns the complement.
    pub fn not(&self) -> Bitmap {
        let mut r =
            Bitmap { words: self.words.iter().map(|w| !w).collect(), infinite: !self.infinite };
        r.normalize();
        r
    }

    /// Returns `true` if the two bitmaps share at least one index.
    pub fn intersects(&self, other: &Bitmap) -> bool {
        let n = self.words.len().max(other.words.len());
        for i in 0..n {
            if self.word_at(i) & other.word_at(i) != 0 {
                return true;
            }
        }
        self.infinite && other.infinite
    }

    /// Returns `true` if `self` is a superset of `other`
    /// (hwloc's `hwloc_bitmap_isincluded(other, self)`).
    pub fn includes(&self, other: &Bitmap) -> bool {
        let n = self.words.len().max(other.words.len());
        for i in 0..n {
            if other.word_at(i) & !self.word_at(i) != 0 {
                return false;
            }
        }
        !other.infinite || self.infinite
    }

    /// hwloc-style total order: compares the highest differing index
    /// (the bitmap containing it is "greater").
    pub fn compare(&self, other: &Bitmap) -> Ordering {
        match (self.infinite, other.infinite) {
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        let n = self.words.len().max(other.words.len());
        for i in (0..n).rev() {
            let (a, b) = (self.word_at(i), other.word_at(i));
            if a != b {
                // The bitmap with the highest differing bit set is greater.
                let diff = a ^ b;
                let top = 1u64 << (63 - diff.leading_zeros());
                return if a & top != 0 { Ordering::Greater } else { Ordering::Less };
            }
        }
        Ordering::Equal
    }

    /// Compares lowest indices first (hwloc's `compare_first`): the bitmap
    /// whose lowest set index is smaller is "less". Empty sorts last.
    pub fn compare_first(&self, other: &Bitmap) -> Ordering {
        match (self.first(), other.first()) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Greater,
            (Some(_), None) => Ordering::Less,
            (Some(a), Some(b)) => a.cmp(&b),
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({self})")
    }
}

impl FromIterator<usize> for Bitmap {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Bitmap::from_indices(iter)
    }
}

/// Iterator over the set indices of a [`Bitmap`], in increasing order.
pub struct Iter<'a> {
    bitmap: &'a Bitmap,
    next: Option<usize>,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let cur = self.next?;
        self.next = self.bitmap.next(cur);
        Some(cur)
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = Bitmap::new();
        assert!(e.is_zero());
        assert!(!e.is_full());
        assert_eq!(e.weight(), Some(0));
        assert_eq!(e.first(), None);
        assert_eq!(e.last(), None);

        let f = Bitmap::full();
        assert!(f.is_full());
        assert!(!f.is_zero());
        assert_eq!(f.weight(), None);
        assert_eq!(f.first(), Some(0));
        assert_eq!(f.last(), None);
        assert!(f.is_set(123456));
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut b = Bitmap::new();
        b.set(5);
        b.set(64);
        b.set(129);
        assert!(b.is_set(5) && b.is_set(64) && b.is_set(129));
        assert!(!b.is_set(6));
        assert_eq!(b.weight(), Some(3));
        b.clear(64);
        assert!(!b.is_set(64));
        assert_eq!(b.weight(), Some(2));
        b.clear(64); // idempotent
        assert_eq!(b.weight(), Some(2));
    }

    #[test]
    fn set_on_full_is_noop() {
        let mut f = Bitmap::full();
        f.set(10);
        assert!(f.is_full());
    }

    #[test]
    fn clear_on_full_punches_hole() {
        let mut f = Bitmap::full();
        f.clear(70);
        assert!(!f.is_set(70));
        assert!(f.is_set(69) && f.is_set(71));
        assert!(f.is_infinite());
        assert_eq!(f.first_unset(), Some(70));
    }

    #[test]
    fn ranges() {
        let mut b = Bitmap::new();
        b.set_range(10, 20);
        assert_eq!(b.weight(), Some(11));
        assert_eq!(b.first(), Some(10));
        assert_eq!(b.last(), Some(20));
        b.clear_range(12, 18);
        assert_eq!(b.weight(), Some(4));
        assert!(b.is_set(11) && b.is_set(19));
        assert!(!b.is_set(15));
    }

    #[test]
    fn degenerate_range_is_empty() {
        let mut b = Bitmap::new();
        b.set_range(5, 4);
        assert!(b.is_zero());
        b.set_range(7, 7);
        assert_eq!(b.weight(), Some(1));
    }

    #[test]
    fn unbounded_range() {
        let mut b = Bitmap::new();
        b.set_range_unbounded(100);
        assert!(b.is_infinite());
        assert!(!b.is_set(99));
        assert!(b.is_set(100));
        assert!(b.is_set(1 << 20));
        assert_eq!(b.first(), Some(100));
        assert_eq!(b.weight(), None);
    }

    #[test]
    fn clear_range_on_infinite() {
        let mut b = Bitmap::full();
        b.clear_range(0, 63);
        assert_eq!(b.first(), Some(64));
        assert!(b.is_infinite());
    }

    #[test]
    fn singlify() {
        let mut b = Bitmap::from_indices([3, 9, 200]);
        b.singlify();
        assert_eq!(b.weight(), Some(1));
        assert!(b.is_set(3));

        let mut f = Bitmap::full();
        f.singlify();
        assert_eq!(f.weight(), Some(1));
        assert!(f.is_set(0));
    }

    #[test]
    fn next_iteration() {
        let b = Bitmap::from_indices([0, 1, 63, 64, 200]);
        let collected: Vec<_> = b.iter().collect();
        assert_eq!(collected, vec![0, 1, 63, 64, 200]);
        assert_eq!(b.next(0), Some(1));
        assert_eq!(b.next(1), Some(63));
        assert_eq!(b.next(200), None);
    }

    #[test]
    fn infinite_iteration_is_lazy() {
        let b = Bitmap::full();
        let first5: Vec<_> = b.iter().take(5).collect();
        assert_eq!(first5, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn boolean_ops() {
        let a = Bitmap::from_range(0, 9);
        let b = Bitmap::from_range(5, 14);
        assert_eq!(a.and(&b), Bitmap::from_range(5, 9));
        assert_eq!(a.or(&b), Bitmap::from_range(0, 14));
        let mut expected_xor = Bitmap::from_range(0, 4);
        expected_xor.set_range(10, 14);
        assert_eq!(a.xor(&b), expected_xor);
        assert_eq!(a.andnot(&b), Bitmap::from_range(0, 4));
    }

    #[test]
    fn not_involution() {
        let a = Bitmap::from_indices([1, 5, 77]);
        assert_eq!(a.not().not(), a);
        assert!(a.not().is_infinite());
        assert!(!a.not().is_set(5));
        assert!(a.not().is_set(4));
    }

    #[test]
    fn includes_and_intersects() {
        let a = Bitmap::from_range(0, 9);
        let b = Bitmap::from_range(3, 5);
        assert!(a.includes(&b));
        assert!(!b.includes(&a));
        assert!(a.intersects(&b));
        let c = Bitmap::from_range(100, 110);
        assert!(!a.intersects(&c));
        assert!(Bitmap::full().includes(&a));
        assert!(!a.includes(&Bitmap::full()));
        assert!(a.includes(&Bitmap::new()));
        assert!(!a.intersects(&Bitmap::new()));
        assert!(Bitmap::full().intersects(&Bitmap::full()));
    }

    #[test]
    fn compare_order() {
        let a = Bitmap::from_indices([1]);
        let b = Bitmap::from_indices([2]);
        assert_eq!(a.compare(&b), Ordering::Less);
        assert_eq!(b.compare(&a), Ordering::Greater);
        assert_eq!(a.compare(&a), Ordering::Equal);
        assert_eq!(Bitmap::full().compare(&a), Ordering::Greater);
        let c = Bitmap::from_indices([1, 2]);
        assert_eq!(c.compare(&b), Ordering::Greater);
    }

    #[test]
    fn compare_first_order() {
        let a = Bitmap::from_indices([1, 50]);
        let b = Bitmap::from_indices([2]);
        assert_eq!(a.compare_first(&b), Ordering::Less);
        assert_eq!(Bitmap::new().compare_first(&a), Ordering::Greater);
    }

    #[test]
    fn first_unset() {
        let b = Bitmap::from_range(0, 5);
        assert_eq!(b.first_unset(), Some(6));
        assert_eq!(Bitmap::full().first_unset(), None);
        assert_eq!(Bitmap::new().first_unset(), Some(0));
    }

    #[test]
    fn normalization_keeps_equality_structural() {
        let mut a = Bitmap::new();
        a.set(500);
        a.clear(500);
        assert_eq!(a, Bitmap::new());

        let mut f = Bitmap::full();
        f.clear(100);
        f.set(100);
        assert_eq!(f, Bitmap::full());
    }
}
