//! Wait-free SPSC race buffer — the storage layer under
//! [`crate::TelemetrySink`].
//!
//! One ring has exactly one producer at a time (the thread that owns
//! the [`crate::ThreadWriter`]) and any number of non-coordinating
//! observers (collectors). A dropped writer hands its ring to the next
//! thread that registers with the sink; that hand-off goes through the
//! sink's mutex, so each owner's pushes happen before the next
//! owner's. The protocol is the race buffer verified in
//! ekotrace's `RaceBuffer.tla` model, generalized from double-cell
//! entries to N-cell frames:
//!
//! * Storage is a power-of-two array of `AtomicU64` cells addressed by
//!   an unwrapped 64-bit sequence number (`cell = seqn % capacity`).
//! * The **two-word write cursor**: `write_seqn` is the sequence
//!   number of the next cell the writer will publish; `overwrite_seqn`
//!   is the sequence number of the oldest cell that is still safe to
//!   read. Both only ever grow.
//! * An entry is a **prefix cell** (a header word carrying a magic tag
//!   and the payload byte length) followed by the payload cells. The
//!   writer never blocks: when the ring is full it advances
//!   `overwrite_seqn` past whole victim entries *first* (with a
//!   release fence), then clobbers their cells, then publishes
//!   `write_seqn`.
//! * Reads are **overwrite-tolerant**: a collector snapshots the cell
//!   range `[max(read_seqn, overwrite_seqn), write_seqn)`, re-reads
//!   `overwrite_seqn` behind an acquire fence, and discards every
//!   snapshot entry the writer may have raced — any entry below the
//!   post-read overwrite cursor. A torn cell can therefore be *copied*
//!   but never *decoded*: cells are plain `u64`s, so the race is a
//!   stale value, not undefined behavior, and the post-check filters
//!   it out.
//!
//! Loss accounting is exact because the writer publishes a
//! monotonically increasing `written` entry count: once a producer is
//! quiescent, `written - decoded` over a fully drained ring is
//! precisely the number of entries the writer overwrote before any
//! collector decoded them.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Magic tag in the top 16 bits of every prefix (header) cell, so a
/// collector can assert it is frame-aligned.
const HEADER_MAGIC: u64 = 0x7E1E << 48;
const HEADER_MAGIC_MASK: u64 = 0xFFFF << 48;
/// Payload byte length lives in the low 32 bits of the header.
const HEADER_LEN_MASK: u64 = 0xFFFF_FFFF;

/// Packs a prefix cell for a payload of `len` bytes.
fn header(len: usize) -> u64 {
    HEADER_MAGIC | len as u64
}

/// Payload cell count for a header word.
fn payload_words(header: u64) -> u64 {
    (header & HEADER_LEN_MASK).div_ceil(8)
}

/// One wait-free SPSC ring. The owning [`crate::ThreadWriter`] is the
/// single producer; collectors are pure observers and never write.
pub(crate) struct Ring {
    cells: Box<[AtomicU64]>,
    mask: u64,
    /// Next sequence number the writer will publish (entry-aligned).
    write_seqn: AtomicU64,
    /// Oldest sequence number still safe to read (entry-aligned).
    overwrite_seqn: AtomicU64,
    /// Entries successfully written, published by the producer.
    written: AtomicU64,
    /// Entries rejected because their frame exceeds the ring capacity.
    oversize: AtomicU64,
    /// The ring's label (its registration order in the sink).
    thread: u64,
}

impl Ring {
    /// A ring of `capacity_words` cells (rounded up to a power of
    /// two, minimum 8).
    pub(crate) fn new(capacity_words: usize, thread: u64) -> Ring {
        let cap = capacity_words.next_power_of_two().max(8);
        Ring {
            cells: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as u64 - 1,
            write_seqn: AtomicU64::new(0),
            overwrite_seqn: AtomicU64::new(0),
            written: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
            thread,
        }
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.mask + 1
    }

    pub(crate) fn thread(&self) -> u64 {
        self.thread
    }

    /// Entries the producer has published so far.
    pub(crate) fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Entries rejected as larger than the whole ring.
    pub(crate) fn oversize(&self) -> u64 {
        self.oversize.load(Ordering::Relaxed)
    }

    /// Producer side: appends one frame (prefix cell + payload cells),
    /// overwriting the oldest entries if the ring is full. Returns
    /// `false` only when the frame cannot fit the ring at all.
    ///
    /// # Safety contract
    /// Must only be called from the single producer thread (enforced
    /// by [`crate::ThreadWriter`] being neither `Sync` nor `Clone`).
    /// Ownership moves to another thread only through the sink's
    /// mutex: the dropping writer parks the ring under it and the next
    /// registering thread takes it under it, which orders the old
    /// owner's last push before the new owner's first, so the relaxed
    /// cursor loads below read the latest values.
    pub(crate) fn push(&self, payload: &[u8]) -> bool {
        let words = payload.len().div_ceil(8) as u64;
        let total = 1 + words;
        if total > self.capacity() {
            // Count and drop: an entry that cannot fit even an empty
            // ring would deadlock the cursor walk below.
            self.oversize.store(self.oversize.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            return false;
        }
        let wseq = self.write_seqn.load(Ordering::Relaxed);
        let need = wseq + total;
        let mut oseq = self.overwrite_seqn.load(Ordering::Relaxed);
        if need - oseq > self.capacity() {
            // Free whole victim entries before clobbering any cell.
            // Only the producer ever stored these headers, so plain
            // relaxed loads read back exactly what it wrote.
            while need - oseq > self.capacity() {
                let victim = self.cells[(oseq & self.mask) as usize].load(Ordering::Relaxed);
                debug_assert_eq!(victim & HEADER_MAGIC_MASK, HEADER_MAGIC, "misaligned victim");
                oseq += 1 + payload_words(victim);
            }
            self.overwrite_seqn.store(oseq, Ordering::Relaxed);
            // Order the cursor store before the cell stores below: a
            // reader that observes a clobbered cell (relaxed load)
            // and then runs its acquire fence is guaranteed to see
            // this advanced cursor and discard the entry.
            fence(Ordering::Release);
        }
        self.cells[(wseq & self.mask) as usize].store(header(payload.len()), Ordering::Relaxed);
        for (i, chunk) in payload.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.cells[((wseq + 1 + i as u64) & self.mask) as usize]
                .store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        // Publish the whole frame; pairs with the collector's acquire
        // load of `write_seqn`.
        self.write_seqn.store(need, Ordering::Release);
        self.written.store(self.written.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        true
    }

    /// Observer side: drains every decodable frame published since
    /// `read_seqn`, invoking `on_frame` with each payload (oldest
    /// first). Returns `(next_read_seqn, frames_decoded)`.
    ///
    /// Tolerates concurrent overwrites: frames the producer raced are
    /// skipped, never mis-decoded.
    pub(crate) fn read_from(&self, read_seqn: u64, mut on_frame: impl FnMut(&[u8])) -> (u64, u64) {
        let wseq = self.write_seqn.load(Ordering::Acquire);
        let pre = self.overwrite_seqn.load(Ordering::Relaxed);
        let start = read_seqn.max(pre);
        if start >= wseq {
            // Nothing new, or the producer lapped this reader between
            // the two cursor loads: everything below `wseq` is gone.
            return (wseq, 0);
        }
        let mut snap = Vec::with_capacity((wseq - start) as usize);
        for seqn in start..wseq {
            snap.push(self.cells[(seqn & self.mask) as usize].load(Ordering::Relaxed));
        }
        // Pairs with the producer's release fence: any cell above that
        // was clobbered mid-copy forces this re-read to observe the
        // advanced overwrite cursor, putting the torn frame below
        // `valid`.
        fence(Ordering::Acquire);
        let post = self.overwrite_seqn.load(Ordering::Relaxed);
        let valid = start.max(post);

        let mut decoded = 0u64;
        let mut seqn = valid;
        let mut bytes = Vec::new();
        while seqn < wseq {
            let head = snap[(seqn - start) as usize];
            debug_assert_eq!(head & HEADER_MAGIC_MASK, HEADER_MAGIC, "misaligned frame");
            if head & HEADER_MAGIC_MASK != HEADER_MAGIC {
                // A corrupted frame boundary would desynchronize the
                // walk; abandon the rest of this snapshot. (Unreached
                // under the protocol; belt and braces for release
                // builds.)
                break;
            }
            let len = (head & HEADER_LEN_MASK) as usize;
            let words = payload_words(head);
            debug_assert!(seqn + 1 + words <= wseq, "producer published a partial frame");
            bytes.clear();
            for w in 0..words {
                let idx = (seqn + 1 + w - start) as usize;
                bytes.extend_from_slice(&snap[idx].to_le_bytes());
            }
            bytes.truncate(len);
            on_frame(&bytes);
            decoded += 1;
            seqn += 1 + words;
        }
        (wseq, decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ring: &Ring, read: &mut u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let (next, _) = ring.read_from(*read, |b| out.push(b.to_vec()));
        *read = next;
        out
    }

    #[test]
    fn roundtrips_in_order() {
        let ring = Ring::new(64, 0);
        for i in 0..10u8 {
            assert!(ring.push(&[i; 5]));
        }
        let mut read = 0;
        let got = drain(&ring, &mut read);
        assert_eq!(got.len(), 10);
        for (i, frame) in got.iter().enumerate() {
            assert_eq!(frame, &vec![i as u8; 5]);
        }
        assert!(drain(&ring, &mut read).is_empty());
        assert_eq!(ring.written(), 10);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = Ring::new(8, 0); // 8 cells; each 5-byte frame takes 2
        for i in 0..10u8 {
            assert!(ring.push(&[i; 5]));
        }
        let mut read = 0;
        let got = drain(&ring, &mut read);
        // Only the 4 newest frames fit; the 6 oldest were overwritten.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], vec![6u8; 5]);
        assert_eq!(got[3], vec![9u8; 5]);
        assert_eq!(ring.written(), 10);
    }

    #[test]
    fn variable_length_frames_survive_wrapping() {
        let ring = Ring::new(16, 0);
        let mut read = 0;
        let mut decoded = 0u64;
        for round in 0..50u64 {
            for len in [0usize, 1, 7, 8, 9, 23] {
                let byte = (round as u8).wrapping_add(len as u8);
                ring.push(&vec![byte; len]);
            }
            let got = drain(&ring, &mut read);
            for frame in &got {
                if !frame.is_empty() {
                    assert!(frame.iter().all(|&b| b == frame[0]));
                }
            }
            decoded += got.len() as u64;
        }
        assert!(decoded > 0);
        assert!(decoded <= ring.written());
    }

    #[test]
    fn oversize_frames_are_counted_not_wedged() {
        let ring = Ring::new(8, 0);
        assert!(!ring.push(&[0u8; 1024]));
        assert_eq!(ring.oversize(), 1);
        assert!(ring.push(&[1u8; 4]));
        let mut read = 0;
        assert_eq!(drain(&ring, &mut read).len(), 1);
    }

    #[test]
    fn empty_payload_frames_work() {
        let ring = Ring::new(8, 0);
        for _ in 0..20 {
            assert!(ring.push(&[]));
        }
        let mut read = 0;
        let got = drain(&ring, &mut read);
        assert_eq!(got.len(), 8); // one cell per frame, ring holds 8
        assert!(got.iter().all(|f| f.is_empty()));
    }

    #[test]
    fn concurrent_overwrite_never_tears_frames() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(Ring::new(64, 0));
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let ring = ring.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Frame content derives from its index so the
                    // reader can verify integrity.
                    let len = (n % 29) as usize;
                    ring.push(&vec![(n % 251) as u8; len]);
                    n += 1;
                }
                n
            })
        };
        let mut read = 0;
        let mut decoded = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while std::time::Instant::now() < deadline {
            let (next, _) = ring.read_from(read, |frame| {
                // Every decoded frame must be internally consistent:
                // uniform fill byte (torn frames would mix two values).
                if !frame.is_empty() {
                    assert!(frame.iter().all(|&b| b == frame[0]), "torn frame decoded: {frame:?}");
                }
            });
            decoded += next.saturating_sub(read).min(1);
            read = next;
        }
        stop.store(true, Ordering::Relaxed);
        let written = producer.join().expect("producer");
        assert!(written > 0);
        assert!(decoded > 0, "reader decoded nothing in 200ms");
        // Final drain at quiescence: the remaining frames all decode.
        let (_, _) = ring.read_from(read, |_| {});
    }
}
