//! The journal decoder is total (ROADMAP 4(b)): restore replays
//! whatever bytes a disk hands it, so any `kind ‖ payload` body framed
//! with a correct length and CRC must open without a panic and without
//! an allocation sized by a length field inside it; whatever decodes
//! must come back unchanged through `append` and `open`; and every
//! strict prefix of a frame is a torn tail, never an entry or an error.

use dla_logstore::epoch::{EpochId, EpochPolicy};
use dla_logstore::fragment::{fragment, Partition};
use dla_logstore::gen::paper_table1;
use dla_logstore::journal::{Journal, JournalEntry};
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A fresh journal path, unique per call in this process.
fn temp_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dla-journal-totality-{}-{n}.log",
        std::process::id()
    ))
}

/// `[len][crc][body]`, the frame `Journal::append` writes.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&dla_crypto::crc32(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Opens a journal holding exactly `bytes`; the entries it replays (or
/// the error) and the file's length afterwards.
fn replay(bytes: &[u8]) -> (Result<Vec<JournalEntry>, String>, u64) {
    let path = temp_path();
    std::fs::write(&path, bytes).expect("writes");
    let opened = Journal::open(&path).map(|(_, entries)| entries);
    let len = std::fs::metadata(&path).expect("exists").len();
    std::fs::remove_file(&path).expect("removes");
    (opened.map_err(|e| e.to_string()), len)
}

/// The body `Journal::append` frames for `entry`.
fn body_of(entry: &JournalEntry) -> Vec<u8> {
    let path = temp_path();
    let (mut journal, _) = Journal::open(&path).expect("creates");
    journal.append(entry).expect("appends");
    drop(journal);
    let bytes = std::fs::read(&path).expect("reads");
    std::fs::remove_file(&path).expect("removes");
    bytes[8..].to_vec()
}

/// One entry of every kind and tag, the seeds of the near-valid bodies.
fn valid_bodies() -> &'static [Vec<u8>] {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let entries = valid_entries();
        entries.iter().map(body_of).collect()
    })
}

fn valid_entries() -> [JournalEntry; 9] {
    let partition = Partition::paper_example(&Schema::paper_example());
    let mut fragments = fragment(&paper_table1()[0], &partition);
    [
        JournalEntry::Fragment(fragments.remove(1)),
        JournalEntry::Tombstone(Glsn(0x139a_ef78)),
        JournalEntry::AclGrant {
            ticket: "T-7".into(),
            ops: 0x0F,
            glsn: Glsn(9),
        },
        JournalEntry::Standby(fragments.remove(0)),
        JournalEntry::Adopted(fragments.remove(0)),
        JournalEntry::EpochSeal(EpochId(3)),
        JournalEntry::EpochPolicy(EpochPolicy::new(Glsn(7), 64)),
        JournalEntry::EpochMaterialized(EpochId(2)),
        JournalEntry::Blob {
            tag: 0x7E,
            bytes: b"deposit".to_vec(),
        },
    ]
}

/// A body replayed alone: no panic; an entry, if it decodes, that
/// round-trips through `append` and `open`; and every cut of its frame
/// in `cuts` a torn tail the open truncates away.
fn check_body(body: &[u8], cuts: &[usize]) -> Result<(), TestCaseError> {
    let framed = frame(body);
    let (opened, len) = replay(&framed);
    match opened {
        Ok(entries) => {
            prop_assert_eq!(entries.len(), 1, "one whole frame is one entry");
            prop_assert_eq!(len, framed.len() as u64, "a whole frame stays");
            let (again, _) = replay(&frame(&body_of(&entries[0])));
            prop_assert_eq!(again, Ok(entries));
        }
        Err(e) => prop_assert!(e.contains("corrupt"), "{}", e),
    }
    for &cut in cuts {
        let cut = cut % framed.len();
        let (torn, len) = replay(&framed[..cut]);
        prop_assert_eq!(torn, Ok(Vec::new()), "cut at {}", cut);
        prop_assert_eq!(len, 0, "a torn tail is truncated away");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary kinds (the four known ones more often) and payloads.
    #[test]
    fn arbitrary_bodies_never_panic_and_what_decodes_round_trips(
        kind in prop_oneof![prop::sample::select(vec![1u8, 2, 3, 4]), any::<u8>()],
        tag in prop_oneof![prop::sample::select(vec![0x10u8, 0x11, 0x12, 0x13, 0x14]), any::<u8>()],
        payload in prop::collection::vec(any::<u8>(), 0..96),
        cuts in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut body = vec![kind];
        // A blob's first payload byte is its tag.
        if kind == 4 && !payload.is_empty() {
            body.push(tag);
            body.extend_from_slice(&payload[1..]);
        } else {
            body.extend_from_slice(&payload);
        }
        check_body(&body, &cuts)?;
    }

    /// Valid bodies of every kind with one byte flipped, the tail cut,
    /// or eight bytes overwritten by a length no payload backs — the
    /// fragment decoder's name and value lengths among them.
    #[test]
    fn near_valid_bodies_never_panic_or_allocate_on_a_claimed_length(
        which in 0usize..9,
        at in any::<usize>(),
        mutation in 0u8..3,
        flip in 1u8..=255,
        claimed in prop::sample::select(vec![u64::MAX, 1 << 62, 1 << 40, u64::from(u32::MAX) + 1, 97]),
        cuts in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut body = valid_bodies()[which].clone();
        let at = 1 + at % (body.len() - 1);
        match mutation {
            0 => body[at] ^= flip,
            1 => body.truncate(at),
            _ => {
                let end = (at + 8).min(body.len());
                let claimed = claimed.to_be_bytes();
                body[at..end].copy_from_slice(&claimed[..end - at]);
            }
        }
        check_body(&body, &cuts)?;
    }

    /// Typed entries with arbitrary field values decode to themselves:
    /// a decoder that narrows or drops a field fails here even where
    /// its output still round-trips.
    #[test]
    fn random_entries_decode_to_themselves(
        which in 0usize..6,
        a in any::<u64>(),
        b in any::<u64>(),
        ops in any::<u8>(),
        tag in any::<u8>(),
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let ticket: String = bytes.iter().map(|&b| char::from(b % 128)).chain("·é".chars()).collect();
        // Blob tags 0x10..=0x14 read back typed.
        let tag = if (0x10..=0x14).contains(&tag) { tag ^ 0x40 } else { tag };
        let entry = match which {
            0 => JournalEntry::Tombstone(Glsn(a)),
            1 => JournalEntry::AclGrant { ticket, ops, glsn: Glsn(a) },
            2 => JournalEntry::EpochSeal(EpochId(a)),
            3 => JournalEntry::EpochPolicy(EpochPolicy::new(Glsn(a), b)),
            4 => JournalEntry::EpochMaterialized(EpochId(a)),
            _ => JournalEntry::Blob { tag, bytes },
        };
        prop_assert_eq!(replay(&frame(&body_of(&entry))).0, Ok(vec![entry]));
    }
}

#[test]
fn every_valid_body_decodes_to_its_entry_and_every_prefix_is_torn() {
    for (body, entry) in valid_bodies().iter().zip(valid_entries()) {
        let cuts: Vec<usize> = (0..frame(body).len()).collect();
        check_body(body, &cuts).expect("holds");
        assert_eq!(replay(&frame(body)).0, Ok(vec![entry]));
    }
}
