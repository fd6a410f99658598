//! Durable append-only fragment journal.
//!
//! A production DLA node must survive restarts without losing the log
//! fragments it is trusted to keep (losing one would make every
//! integrity circulation for that glsn fail, §4.1). The journal is the
//! simplest crash-safe shape: length- and CRC-framed entries appended
//! to a file, fsynced per append, replayed at startup. A torn final
//! entry (crash mid-write) is detected by the CRC and truncated away;
//! corruption anywhere earlier is reported loudly. The journal only
//! frames and returns entries; what they mean is decided by the one
//! transition function of whoever replays them
//! (`FragmentStore::apply` for a node journal).
//!
//! Entry layout: `[len: u32 BE][crc32: u32 BE][kind: u8][payload]` with
//! `len = 1 + payload.len()` and the CRC computed over `kind ‖ payload`.

use crate::epoch::{EpochId, EpochPolicy};
use crate::fragment::Fragment;
use crate::model::Glsn;
use crate::LogError;
use dla_crypto::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One journal entry. A node journal's entries are typed — each is one
/// state transition of the `FragmentStore` that wrote it; higher layers
/// journal their own state as [`JournalEntry::Blob`]s.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEntry {
    /// A fragment was stored.
    Fragment(Fragment),
    /// A glsn was deleted: its own fragment, any standby or adopted copy
    /// of it and its ACL grants are gone.
    Tombstone(Glsn),
    /// A glsn was authorized under a ticket.
    AclGrant {
        /// The ticket id.
        ticket: String,
        /// The encoded operation set ([`crate::acl::OperationSet::to_byte`]).
        ops: u8,
        /// The authorized glsn.
        glsn: Glsn,
    },
    /// A standby copy of another node's fragment arrived (blob `0x10`).
    Standby(Fragment),
    /// A standby was promoted to a served copy after its owner died
    /// (blob `0x11`).
    Adopted(Fragment),
    /// An epoch was sealed: it admits no further deposit (blob `0x12`).
    EpochSeal(EpochId),
    /// The policy the trail is sharded with, written once when a durable
    /// store first opens its journal (blob `0x13`).
    EpochPolicy(EpochPolicy),
    /// An epoch's aggregate partials were materialized (blob `0x14`).
    /// Only the fact is journaled: replay recomputes the values from the
    /// fragments it has applied so far. Journals written before the
    /// payload shrank to the epoch id carry a full
    /// [`crate::epoch::EpochPartials::encode`], which begins with the
    /// same eight bytes; the rest is ignored.
    EpochMaterialized(EpochId),
    /// An opaque, caller-defined record (higher layers journal their own
    /// state — e.g. the DLA cluster's accumulator deposits — through the
    /// same crash-safe framing). Tags `0x10..=0x14` are taken.
    Blob {
        /// Caller-defined discriminator.
        tag: u8,
        /// Caller-encoded payload.
        bytes: Vec<u8>,
    },
}

const KIND_FRAGMENT: u8 = 0x01;
const KIND_TOMBSTONE: u8 = 0x02;
const KIND_ACL_GRANT: u8 = 0x03;
const KIND_BLOB: u8 = 0x04;

const TAG_STANDBY: u8 = 0x10;
const TAG_ADOPTED: u8 = 0x11;
const TAG_EPOCH_SEAL: u8 = 0x12;
const TAG_EPOCH_POLICY: u8 = 0x13;
const TAG_EPOCH_MATERIALIZED: u8 = 0x14;

/// The append-only journal file.
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Journal({})", self.path.display())
    }
}

impl Journal {
    /// Opens (or creates) the journal at `path` and replays every valid
    /// entry. A torn trailing entry is truncated away; corruption
    /// before the tail is an error.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] on I/O failure or mid-file
    /// corruption.
    pub fn open(path: &Path) -> Result<(Self, Vec<JournalEntry>), LogError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| LogError::Store(format!("open {}: {e}", path.display())))?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut raw))
            .map_err(|e| LogError::Store(format!("read {}: {e}", path.display())))?;

        let mut entries = Vec::new();
        let mut offset = 0usize;
        let mut valid_until = 0usize;
        while offset < raw.len() {
            match decode_entry(&raw[offset..]) {
                Ok((entry, consumed)) => {
                    entries.push(entry);
                    offset += consumed;
                    valid_until = offset;
                }
                Err(EntryError::Torn) => break, // crash tail: truncate
                Err(EntryError::Corrupt(what)) => {
                    return Err(LogError::Store(format!(
                        "journal {} corrupt at byte {offset}: {what}",
                        path.display()
                    )));
                }
            }
        }
        if valid_until < raw.len() {
            file.set_len(valid_until as u64)
                .and_then(|_| file.seek(SeekFrom::End(0)).map(|_| ()))
                .map_err(|e| LogError::Store(format!("truncate torn tail: {e}")))?;
        }
        Ok((
            Journal {
                file,
                path: path.to_owned(),
            },
            entries,
        ))
    }

    /// Appends and fsyncs one entry.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] on I/O failure.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), LogError> {
        self.append_batch(std::slice::from_ref(entry))
    }

    /// Appends a batch of entries with a **single** fsync: every frame
    /// is written back-to-back, then `sync_data` once. A crash mid-batch
    /// leaves a torn tail that [`Journal::open`] truncates away, so the
    /// batch is atomic per entry (a prefix survives) but costs one disk
    /// sync instead of one per entry — the amortization behind the
    /// cluster's batched deposit pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Store`] on I/O failure.
    pub fn append_batch(&mut self, entries: &[JournalEntry]) -> Result<(), LogError> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut framed = Vec::new();
        for entry in entries {
            encode_framed(entry, &mut framed);
        }
        if let Some(keep) = failpoint::tears(framed.len()) {
            let _ = self.file.write_all(&framed[..keep]);
            return Err(LogError::Store(format!(
                "append to {}: failpoint tore the write at byte {keep} of {}",
                self.path.display(),
                framed.len()
            )));
        }
        self.file
            .write_all(&framed)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| LogError::Store(format!("append to {}: {e}", self.path.display())))
    }
}

/// Crash injection for the recovery tests, with the standing of
/// `FragmentStore::tamper`: thread-local, disarmed unless a test arms
/// it, reachable from no configuration. While armed it counts this
/// thread's [`Journal::append_batch`] calls; the `nth` writes only a
/// strict prefix of its frame bytes — a process dying mid-`write` — and
/// it and every later one return [`LogError::Store`], the dead process
/// writing nothing more.
#[doc(hidden)]
pub mod failpoint {
    use std::cell::Cell;
    use std::cmp::Ordering;

    /// Appends seen since armed, the append to tear (0: disarmed), and
    /// how many of its bytes reach the file.
    type Armed = (u64, u64, fn(usize) -> usize);

    thread_local! {
        static ARMED: Cell<Armed> = const { Cell::new((0, 0, |len| len)) };
    }

    /// Arms the failpoint: the `nth` append from now keeps `keep(len)`
    /// of its `len` bytes (clamped below `len`).
    pub fn arm(nth: u64, keep: fn(usize) -> usize) {
        ARMED.set((0, nth, keep));
    }

    /// Disarms the failpoint and returns the appends seen while armed.
    pub fn disarm() -> u64 {
        ARMED.replace((0, 0, |len| len)).0
    }

    pub(super) fn tears(len: usize) -> Option<usize> {
        let (seen, nth, keep) = ARMED.get();
        if nth == 0 {
            return None;
        }
        ARMED.set((seen + 1, nth, keep));
        match (seen + 1).cmp(&nth) {
            Ordering::Less => None,
            Ordering::Equal => Some(keep(len).min(len - 1)),
            Ordering::Greater => Some(0),
        }
    }
}

/// Frames one entry (`[len][crc][kind ‖ payload]`) onto `out`.
fn encode_framed(entry: &JournalEntry, out: &mut Vec<u8>) {
    let blob = |tag: u8, bytes: &[u8]| (KIND_BLOB, [&[tag], bytes].concat());
    let (kind, payload) = match entry {
        JournalEntry::Fragment(frag) => (KIND_FRAGMENT, frag.to_canonical_bytes()),
        JournalEntry::Tombstone(glsn) => (KIND_TOMBSTONE, glsn.0.to_be_bytes().to_vec()),
        JournalEntry::AclGrant { ticket, ops, glsn } => {
            let mut payload = Vec::with_capacity(9 + ticket.len());
            payload.push(*ops);
            payload.extend_from_slice(&glsn.0.to_be_bytes());
            payload.extend_from_slice(ticket.as_bytes());
            (KIND_ACL_GRANT, payload)
        }
        JournalEntry::Standby(frag) => blob(TAG_STANDBY, &frag.to_canonical_bytes()),
        JournalEntry::Adopted(frag) => blob(TAG_ADOPTED, &frag.to_canonical_bytes()),
        JournalEntry::EpochSeal(epoch) => blob(TAG_EPOCH_SEAL, &epoch.0.to_be_bytes()),
        JournalEntry::EpochPolicy(policy) => {
            let (base, length) = (policy.base().0.to_be_bytes(), policy.length().to_be_bytes());
            blob(TAG_EPOCH_POLICY, &[base, length].concat())
        }
        JournalEntry::EpochMaterialized(epoch) => {
            blob(TAG_EPOCH_MATERIALIZED, &epoch.0.to_be_bytes())
        }
        JournalEntry::Blob { tag, bytes } => blob(*tag, bytes),
    };
    let mut body = Vec::with_capacity(1 + payload.len());
    body.push(kind);
    body.extend_from_slice(&payload);
    out.reserve(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&body).to_be_bytes());
    out.extend_from_slice(&body);
}

enum EntryError {
    /// The buffer ends mid-entry (a crash tail).
    Torn,
    /// Framing is intact but the content is wrong.
    Corrupt(String),
}

fn decode_entry(raw: &[u8]) -> Result<(JournalEntry, usize), EntryError> {
    if raw.len() < 8 {
        return Err(EntryError::Torn);
    }
    let len = u32::from_be_bytes(raw[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_be_bytes(raw[4..8].try_into().expect("4 bytes"));
    if len == 0 {
        return Err(EntryError::Corrupt("zero-length entry".into()));
    }
    if raw.len() < 8 + len {
        return Err(EntryError::Torn);
    }
    let body = &raw[8..8 + len];
    if crc32(body) != crc {
        // A bad CRC on the *last* entry is indistinguishable from a torn
        // write; callers treat it as torn only when nothing follows.
        return if raw.len() == 8 + len {
            Err(EntryError::Torn)
        } else {
            Err(EntryError::Corrupt("crc mismatch".into()))
        };
    }
    let (kind, payload) = body.split_first().expect("len >= 1");
    let entry = match *kind {
        KIND_FRAGMENT => JournalEntry::Fragment(
            Fragment::from_canonical_bytes(payload)
                .map_err(|e| EntryError::Corrupt(e.to_string()))?,
        ),
        KIND_TOMBSTONE => {
            let bytes: [u8; 8] = payload
                .try_into()
                .map_err(|_| EntryError::Corrupt("tombstone payload".into()))?;
            JournalEntry::Tombstone(Glsn(u64::from_be_bytes(bytes)))
        }
        KIND_ACL_GRANT => {
            if payload.len() < 9 {
                return Err(EntryError::Corrupt("acl grant payload".into()));
            }
            let ops = payload[0];
            let glsn = Glsn(u64::from_be_bytes(
                payload[1..9].try_into().expect("8 bytes"),
            ));
            let ticket = String::from_utf8(payload[9..].to_vec())
                .map_err(|_| EntryError::Corrupt("acl grant ticket utf-8".into()))?;
            JournalEntry::AclGrant { ticket, ops, glsn }
        }
        KIND_BLOB => {
            let (tag, bytes) = payload
                .split_first()
                .ok_or_else(|| EntryError::Corrupt("empty blob payload".into()))?;
            let corrupt = |what: &str| EntryError::Corrupt(format!("{what} payload"));
            let fragment = || {
                Fragment::from_canonical_bytes(bytes)
                    .map_err(|e| EntryError::Corrupt(e.to_string()))
            };
            let be_u64 = |bytes: &[u8], what| match bytes.try_into() {
                Ok(raw) => Ok(u64::from_be_bytes(raw)),
                Err(_) => Err(corrupt(what)),
            };
            match *tag {
                TAG_STANDBY => JournalEntry::Standby(fragment()?),
                TAG_ADOPTED => JournalEntry::Adopted(fragment()?),
                TAG_EPOCH_SEAL => JournalEntry::EpochSeal(EpochId(be_u64(bytes, "epoch seal")?)),
                TAG_EPOCH_POLICY if bytes.len() == 16 => {
                    JournalEntry::EpochPolicy(EpochPolicy::new(
                        Glsn(be_u64(&bytes[..8], "epoch policy")?),
                        be_u64(&bytes[8..], "epoch policy")?,
                    ))
                }
                TAG_EPOCH_POLICY => return Err(corrupt("epoch policy")),
                TAG_EPOCH_MATERIALIZED => {
                    let head = bytes.get(..8).unwrap_or(bytes);
                    JournalEntry::EpochMaterialized(EpochId(be_u64(head, "epoch partials")?))
                }
                _ => JournalEntry::Blob {
                    tag: *tag,
                    bytes: bytes.to_vec(),
                },
            }
        }
        other => {
            return Err(EntryError::Corrupt(format!(
                "unknown entry kind {other:#x}"
            )))
        }
    };
    Ok((entry, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{fragment, Partition};
    use crate::gen::paper_table1;
    use crate::schema::Schema;
    use crate::store::FragmentStore;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dla-journal-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_fragments() -> Vec<Fragment> {
        let schema = Schema::paper_example();
        let partition = Partition::paper_example(&schema);
        paper_table1()
            .iter()
            .map(|r| fragment(r, &partition).remove(1))
            .collect()
    }

    /// What node 1's store holds after replaying the journal at `path`.
    fn restored_fragments(path: &Path) -> Vec<Fragment> {
        let store = FragmentStore::restore(1, path).unwrap();
        store.scan().cloned().collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        let frags = sample_fragments();
        {
            let (mut journal, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for f in &frags {
                journal.append(&JournalEntry::Fragment(f.clone())).unwrap();
            }
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), frags.len());
        assert_eq!(restored_fragments(&path), frags);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_single_sync_round_trips() {
        let path = temp_path("batch");
        let frags = sample_fragments();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            let entries: Vec<JournalEntry> = frags
                .iter()
                .map(|f| JournalEntry::Fragment(f.clone()))
                .collect();
            journal.append_batch(&entries).unwrap();
            journal.append_batch(&[]).unwrap(); // empty batch is a no-op
        }
        assert_eq!(restored_fragments(&path), frags);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_remove_on_restore() {
        let path = temp_path("tombstone");
        let frags = sample_fragments();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for f in &frags {
                journal.append(&JournalEntry::Fragment(f.clone())).unwrap();
            }
            journal
                .append(&JournalEntry::Tombstone(frags[2].glsn))
                .unwrap();
        }
        let live = restored_fragments(&path);
        assert_eq!(live.len(), frags.len() - 1);
        assert!(live.iter().all(|f| f.glsn != frags[2].glsn));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_succeeds() {
        let path = temp_path("torn");
        let frags = sample_fragments();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for f in &frags[..3] {
                journal.append(&JournalEntry::Fragment(f.clone())).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();

        let (mut journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2, "the torn third entry is dropped");
        // The journal is usable again after truncation.
        journal
            .append(&JournalEntry::Fragment(frags[3].clone()))
            .unwrap();
        drop(journal);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn typed_entries_are_the_blobs_older_journals_hold() {
        let frag = sample_fragments().remove(0);
        let policy = EpochPolicy::new(Glsn(7), 64);
        let policy_bytes = [7u64.to_be_bytes(), 64u64.to_be_bytes()].concat();
        let mut full_partials = crate::epoch::EpochPartials::empty(EpochId(3)).encode();
        let pairs = [
            (
                JournalEntry::Standby(frag.clone()),
                0x10,
                frag.to_canonical_bytes(),
            ),
            (
                JournalEntry::Adopted(frag.clone()),
                0x11,
                frag.to_canonical_bytes(),
            ),
            (
                JournalEntry::EpochSeal(EpochId(3)),
                0x12,
                3u64.to_be_bytes().to_vec(),
            ),
            (JournalEntry::EpochPolicy(policy), 0x13, policy_bytes),
            (
                JournalEntry::EpochMaterialized(EpochId(3)),
                0x14,
                3u64.to_be_bytes().to_vec(),
            ),
        ];
        let (typed_path, blob_path) = (temp_path("typed"), temp_path("typed-blobs"));
        let (mut typed, _) = Journal::open(&typed_path).unwrap();
        let (mut blobs, _) = Journal::open(&blob_path).unwrap();
        for (entry, tag, bytes) in &pairs {
            let (tag, bytes) = (*tag, bytes.clone());
            typed.append(entry).unwrap();
            blobs.append(&JournalEntry::Blob { tag, bytes }).unwrap();
        }
        // Same bytes on disk, and either spelling reads back typed.
        assert_eq!(
            std::fs::read(&typed_path).unwrap(),
            std::fs::read(&blob_path).unwrap()
        );
        let (_, replayed) = Journal::open(&blob_path).unwrap();
        assert!(replayed.iter().eq(pairs.iter().map(|(entry, _, _)| entry)));

        // The full partials payload of older journals keeps its meaning;
        // a payload of the wrong size is corruption, not a torn tail.
        full_partials.extend_from_slice(&[0; 24]);
        let old = JournalEntry::Blob {
            tag: 0x14,
            bytes: full_partials,
        };
        blobs.append(&old).unwrap();
        let (_, replayed) = Journal::open(&blob_path).unwrap();
        assert_eq!(
            replayed.last(),
            Some(&JournalEntry::EpochMaterialized(EpochId(3)))
        );
        for (tag, len) in [(0x12u8, 7), (0x13, 15), (0x14, 7), (0x10, 3)] {
            let bytes = vec![0; len];
            blobs.append(&JournalEntry::Blob { tag, bytes }).unwrap();
            let err = Journal::open(&blob_path).unwrap_err();
            assert!(err.to_string().contains("corrupt"), "{tag:#x}: {err}");
            std::fs::copy(&typed_path, &blob_path).unwrap();
            blobs = Journal::open(&blob_path).unwrap().0;
        }
        std::fs::remove_file(&typed_path).unwrap();
        std::fs::remove_file(&blob_path).unwrap();
    }

    #[test]
    fn failpoint_tears_exactly_the_armed_append() {
        let path = temp_path("failpoint");
        let entries: Vec<JournalEntry> = sample_fragments()
            .into_iter()
            .map(JournalEntry::Fragment)
            .collect();
        let (mut journal, _) = Journal::open(&path).unwrap();
        failpoint::arm(2, |len| len * 3 / 4);
        journal.append(&entries[0]).unwrap();
        let whole = std::fs::metadata(&path).unwrap().len();
        // The second append is a batch: its first frame fits in the
        // surviving three quarters, its last does not.
        let err = journal.append_batch(&entries[1..4]).unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        assert!(std::fs::metadata(&path).unwrap().len() > whole);
        journal.append(&entries[4]).unwrap_err(); // a dead process stays dead
        assert_eq!(failpoint::disarm(), 3);
        drop(journal);

        let (mut journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, entries[..3], "a whole-frame prefix survives");
        journal.append(&entries[4]).expect("disarmed");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_reported() {
        let path = temp_path("corrupt");
        let frags = sample_fragments();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for f in &frags[..3] {
                journal.append(&JournalEntry::Fragment(f.clone())).unwrap();
            }
        }
        // Flip a byte in the FIRST entry's body (not the tail).
        let mut raw = std::fs::read(&path).unwrap();
        raw[12] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fragment_canonical_round_trip() {
        for frag in sample_fragments() {
            let bytes = frag.to_canonical_bytes();
            let back = Fragment::from_canonical_bytes(&bytes).unwrap();
            assert_eq!(back, frag);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Fragment::from_canonical_bytes(&[]).is_err());
        assert!(Fragment::from_canonical_bytes(&[1, 2, 3]).is_err());
        let mut valid = sample_fragments()[0].to_canonical_bytes();
        valid.push(0xFF); // trailing junk makes the record decoder fail
        assert!(Fragment::from_canonical_bytes(&valid).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Four entries framed at the commit before the journal's own
    /// bit-at-a-time CRC gave way to the shared table-driven routine:
    /// they open under it, and what is written today is those bytes.
    #[test]
    fn a_journal_written_with_the_bitwise_crc_opens_and_is_rewritten_bit_for_bit() {
        const WRITTEN_BEFORE: &str = "000000090587d7e202123456789abcdef0\
            000000129788a126030f000000000000004d542d706172656e74\
            0000000af15ef34104120000000000000003\
            0000002b998057b3047e000102030405060708090a0b0c0d0e0f1011121314\
            15161718191a1b1c1d1e1f202122232425262728";
        let bytes: Vec<u8> = (0..WRITTEN_BEFORE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&WRITTEN_BEFORE[i..i + 2], 16).unwrap())
            .collect();
        let expected = [
            JournalEntry::Tombstone(Glsn(0x1234_5678_9ABC_DEF0)),
            JournalEntry::AclGrant {
                ticket: "T-parent".into(),
                ops: 0x0F,
                glsn: Glsn(77),
            },
            JournalEntry::EpochSeal(EpochId(3)),
            JournalEntry::Blob {
                tag: 0x7E,
                bytes: (0u8..=40).collect(),
            },
        ];
        let path = temp_path("bitwise-crc");
        std::fs::write(&path, &bytes).unwrap();
        let (_, entries) = Journal::open(&path).unwrap();
        assert_eq!(entries, expected);
        let mut rewritten = Vec::new();
        for entry in &expected {
            encode_framed(entry, &mut rewritten);
        }
        assert_eq!(rewritten, bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrites_of_same_glsn_are_rejected() {
        // A second fragment entry for a live glsn used to silently win
        // ("keep latest") — a duplicated deposit could rewrite history
        // on replay. Restore refuses, as the live write does.
        let path = temp_path("rewrite");
        let mut frag = sample_fragments()[0].clone();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal
                .append(&JournalEntry::Fragment(frag.clone()))
                .unwrap();
            frag.values.insert(
                crate::model::AttrName::new("c2"),
                crate::model::AttrValue::Fixed2(99_999),
            );
            journal
                .append(&JournalEntry::Fragment(frag.clone()))
                .unwrap();
        }
        let err = FragmentStore::restore(1, &path).unwrap_err();
        assert!(
            matches!(err, LogError::DuplicateGlsn { glsn, .. } if glsn == frag.glsn),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delete_then_rewrite_is_legal() {
        let path = temp_path("del-rewrite");
        let frag = sample_fragments()[0].clone();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal
                .append(&JournalEntry::Fragment(frag.clone()))
                .unwrap();
            journal.append(&JournalEntry::Tombstone(frag.glsn)).unwrap();
            journal
                .append(&JournalEntry::Fragment(frag.clone()))
                .unwrap();
        }
        assert_eq!(restored_fragments(&path), vec![frag]);
        std::fs::remove_file(&path).unwrap();
    }
}
