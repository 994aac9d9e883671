//! Crash-safe snapshot store for the persistent goal cache.
//!
//! The store persists opaque `(key, payload)` entries — the goal cache's
//! completed proofs — across processes in one file per directory,
//! `proofs.bin`, with one non-negotiable invariant mirrored from the
//! chaos suite:
//!
//! > corruption, torn writes, ENOSPC, vanished files, or concurrent
//! > processes degrade to a **cold cache**, never to a wrong verdict or
//! > a crashed run.
//!
//! # On-disk layout
//!
//! ```text
//! magic    8 bytes   "JHPROOFS"
//! version  u32 LE    FORMAT_VERSION
//! digest   u64 LE    the caller's semantic digest
//! count    u32 LE    number of entries
//! entries  count × [key: u128 LE][len: u32 LE][payload: len bytes]
//! crc      u32 LE    CRC-32 of every byte before it
//! ```
//!
//! # Load
//!
//! [`Store::load`] accepts the snapshot only if its magic, version,
//! digest, CRC and exact length all check. Every length is checked
//! against the bytes read before it is used, so a corrupt header can
//! neither read past the file nor allocate more than the file holds.
//! Anything else starts cold, and the caller learns why. A directory
//! with no `proofs.bin` — a fresh one, or one in an older layout, whose
//! files are left alone — loads empty.
//!
//! # Save
//!
//! [`Store::save`] rewrites the whole snapshot: it writes
//! `proofs.bin.tmp`, fsyncs it, renames it over `proofs.bin` and fsyncs
//! the directory, so a crash at any point leaves the old snapshot or the
//! new one. An entry the caller dropped is simply absent from the next
//! snapshot.
//!
//! # Concurrency
//!
//! Nothing excludes two processes on one directory: the last rename
//! wins, so one process can lose the other's new entries, and two saves
//! that overlap on the temp file can publish a mix of both, which the
//! next load rejects. Either way the cache only gets colder.
//!
//! # Fault injection
//!
//! The store consults an optional [`FaultPlan`] through
//! [`FaultPlan::decide_disk`] at its `store.load` and `store.flush`
//! sites. Each site applies the fault kinds that are physically
//! meaningful for it (a torn write cannot happen during a read) and
//! ignores the rest, exactly as the dispatcher ignores disk faults aimed
//! at its sites.

use crate::chaos::{DiskFault, FaultPlan};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Bumped whenever the snapshot layout changes, and whenever a change
/// withdraws proofs a prover used to give: a snapshot written under
/// another version loads cold, so no older build's proof is replayed.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every snapshot.
const MAGIC: &[u8; 8] = b"JHPROOFS";

/// The least bytes an entry takes: its key and its payload length.
const ENTRY_HEAD: usize = 16 + 4;

/// The snapshot and the one name every save writes it under first.
const SNAPSHOT: &str = "proofs.bin";
const TEMP: &str = "proofs.bin.tmp";

/// Chaos sites for the store's two IO boundaries.
const SITE_LOAD: &str = "store.load";
const SITE_FLUSH: &str = "store.flush";

/// One persisted entry: a goal-cache fingerprint and its opaque payload
/// (the goal cache owns the encoding).
pub type Entry = (u128, Vec<u8>);

/// The snapshot store of one directory, keyed by the caller's semantic
/// digest.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    digest: u64,
    plan: Option<Arc<FaultPlan>>,
}

impl Store {
    /// The store at `dir`, created if missing, keyed by `digest`: a
    /// snapshot saved under another digest never loads. Errs only when
    /// the directory cannot be created.
    pub fn open(dir: &Path, digest: u64, plan: Option<Arc<FaultPlan>>) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_owned(),
            digest,
            plan,
        })
    }

    /// The snapshot's entries, in the order they were saved: none when
    /// there is no snapshot, `Err(reason)` when there is one and it is
    /// rejected.
    pub fn load(&self) -> Result<Vec<Entry>, String> {
        let mut bytes = match fs::read(self.dir.join(SNAPSHOT)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        match self.plan.as_deref().and_then(|p| p.decide_disk(SITE_LOAD)) {
            // A truncated read: a bad sector, a vanished tail.
            Some(DiskFault::ShortRead) => bytes.truncate(bytes.len() / 2),
            // Silent media corruption on the read path.
            Some(DiskFault::BitFlip) => {
                let at = bytes.len() / 2;
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 0x04;
                }
            }
            _ => {} // write-side kinds cannot happen on a read
        }
        decode(&bytes, self.digest)
    }

    /// Replace the snapshot with `entries`, returning the bytes written.
    /// A failed save leaves the old snapshot, a stray temp file that the
    /// next save replaces, or (under an injected torn write) a torn
    /// snapshot that the next load rejects.
    pub fn save(&self, entries: &[Entry]) -> io::Result<u64> {
        let fault = self
            .plan
            .as_deref()
            .and_then(|plan| plan.decide_disk(SITE_FLUSH));
        if fault == Some(DiskFault::NoSpace) {
            // ENOSPC at write time: nothing lands on disk.
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected ENOSPC at store.flush",
            ));
        }
        let mut bytes = encode(entries, self.digest);
        match fault {
            // Silent media corruption after checksumming: the save
            // "succeeds" and the next load's CRC catches it.
            Some(DiskFault::BitFlip) => {
                let at = bytes.len() / 2;
                bytes[at] ^= 0x10;
            }
            // A crash mid-write whose rename still landed (journal
            // reordering): only a prefix reaches the disk.
            Some(DiskFault::TornWrite) => bytes.truncate(bytes.len() / 2),
            _ => {}
        }

        let temp = self.dir.join(TEMP);
        {
            let mut file = File::create(&temp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        if fault == Some(DiskFault::RenameFail) {
            return Err(io::Error::other(
                "chaos: injected rename failure at store.flush",
            ));
        }
        fs::rename(&temp, self.dir.join(SNAPSHOT))?;
        // Publishing the rename durably requires fsyncing the directory.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        if fault == Some(DiskFault::TornWrite) {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "chaos: injected torn write at store.flush",
            ));
        }
        Ok(bytes.len() as u64)
    }
}

fn encode(entries: &[Entry], digest: u64) -> Vec<u8> {
    let size = entries
        .iter()
        .map(|(_, p)| ENTRY_HEAD + p.len())
        .sum::<usize>();
    let mut out = Vec::with_capacity(MAGIC.len() + 16 + size + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, payload) in entries {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The entries of snapshot `bytes` saved under `digest`, or why the
/// snapshot is rejected.
fn decode(bytes: &[u8], digest: u64) -> Result<Vec<Entry>, String> {
    let truncated = || format!("truncated at {} bytes", bytes.len());
    let (mut rest, crc) = bytes.split_last_chunk::<4>().ok_or_else(truncated)?;
    if take(&mut rest, MAGIC.len()) != Some(&MAGIC[..]) {
        return Err("bad magic".to_owned());
    }
    let version = u32::from_le_bytes(le(&mut rest).ok_or_else(truncated)?);
    if version != FORMAT_VERSION {
        return Err(format!("format version {version} != {FORMAT_VERSION}"));
    }
    if u64::from_le_bytes(le(&mut rest).ok_or_else(truncated)?) != digest {
        return Err("config digest changed".to_owned());
    }
    if crc32(&bytes[..bytes.len() - 4]) != u32::from_le_bytes(*crc) {
        return Err("checksum mismatch".to_owned());
    }
    let count = u32::from_le_bytes(le(&mut rest).ok_or_else(truncated)?) as usize;
    // Every entry takes at least `ENTRY_HEAD` bytes, so a corrupt count
    // cannot reserve more than the file holds.
    let mut entries = Vec::with_capacity(count.min(rest.len() / ENTRY_HEAD));
    for _ in 0..count {
        let key = u128::from_le_bytes(le(&mut rest).ok_or_else(truncated)?);
        let len = u32::from_le_bytes(le(&mut rest).ok_or_else(truncated)?);
        let payload = take(&mut rest, len as usize).ok_or_else(truncated)?;
        entries.push((key, payload.to_vec()));
    }
    if !rest.is_empty() {
        return Err(format!("{} bytes after the last entry", rest.len()));
    }
    Ok(entries)
}

/// Split `n` bytes off the front of `rest`; `None` when fewer remain.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

/// The next `N` bytes of `rest`, for a little-endian integer.
fn le<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    take(rest, N)?.try_into().ok()
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected). Hand-rolled: the workspace has no deps.

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32/IEEE over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("jahob-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(n: u8) -> Entry {
        (
            0x1111_0000_0000_0000_0000_0000_0000_0000u128 + n as u128,
            vec![n; 5],
        )
    }

    /// The directory's file names, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir, 7, None).unwrap();
        assert_eq!(store.load(), Ok(Vec::new()), "a fresh directory is empty");
        store.save(&[sample(1), sample(2)]).unwrap();
        // A save replaces the snapshot: an entry left out is gone.
        store.save(&[sample(2), sample(3)]).unwrap();
        let store = Store::open(&dir, 7, None).unwrap();
        assert_eq!(store.load(), Ok(vec![sample(2), sample(3)]));
        assert_eq!(files(&dir), ["proofs.bin"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_mismatch_resets() {
        let dir = temp_dir("digest");
        Store::open(&dir, 7, None)
            .unwrap()
            .save(&[sample(1)])
            .unwrap();
        let store = Store::open(&dir, 8, None).unwrap();
        assert_eq!(store.load(), Err("config digest changed".to_owned()));
        // The next save under the new digest replaces the snapshot.
        store.save(&[sample(2)]).unwrap();
        assert_eq!(store.load(), Ok(vec![sample(2)]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_loads_cold() {
        let dir = temp_dir("torn");
        let store = Store::open(&dir, 7, None).unwrap();
        store.save(&[sample(1), sample(2), sample(3)]).unwrap();
        // Chop the last 10 bytes off, as a crash mid-write would if the
        // rename had still landed: the whole snapshot goes cold.
        let path = dir.join(SNAPSHOT);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert_eq!(store.load(), Err("checksum mismatch".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_is_caught_by_crc() {
        let dir = temp_dir("flip");
        let store = Store::open(&dir, 7, None).unwrap();
        store.save(&[sample(1)]).unwrap();
        let path = dir.join(SNAPSHOT);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 6;
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(), Err("checksum mismatch".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_snapshot_loads_cold_until_the_next_save() {
        let dir = temp_dir("garbage");
        let store = Store::open(&dir, 7, None).unwrap();
        fs::write(dir.join(SNAPSHOT), b"not a snapshot at all").unwrap();
        assert_eq!(store.load(), Err("bad magic".to_owned()));
        store.save(&[sample(1)]).unwrap();
        assert_eq!(store.load(), Ok(vec![sample(1)]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lengths_never_over_read_or_over_allocate() {
        let bytes = encode(&[sample(1), sample(2)], 7);
        let count_at = MAGIC.len() + 4 + 8;
        let first_len_at = count_at + 4 + 16;
        for (at, value) in [
            (count_at, u32::MAX),
            (first_len_at, u32::MAX),
            (count_at, 1),
        ] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            // Re-seal the CRC, so only the length checks stand between
            // the corrupt header and the allocator.
            let body = bad.len() - 4;
            let crc = crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(decode(&bad, 7).is_err(), "length {value} at byte {at}");
        }
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len], 7).is_err(), "prefix of {len} bytes");
        }
        assert_eq!(decode(&bytes, 7), Ok(vec![sample(1), sample(2)]));
    }

    #[test]
    fn stray_temp_file_is_never_read() {
        // And the next save replaces it.
        let dir = temp_dir("orphan");
        let store = Store::open(&dir, 7, None).unwrap();
        store.save(&[sample(1)]).unwrap();
        fs::write(dir.join(TEMP), encode(&[sample(9)], 7)).unwrap();
        assert_eq!(store.load(), Ok(vec![sample(1)]));
        store.save(&[sample(2)]).unwrap();
        assert_eq!(files(&dir), ["proofs.bin"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_injected_disk_fault_degrades_cleanly() {
        use crate::chaos::Fault;
        for fault in [
            DiskFault::TornWrite,
            DiskFault::BitFlip,
            DiskFault::ShortRead,
            DiskFault::NoSpace,
            DiskFault::RenameFail,
        ] {
            let dir = temp_dir("chaos");
            Store::open(&dir, 7, None)
                .unwrap()
                .save(&[sample(1), sample(2)])
                .unwrap();
            let plan = Arc::new(
                FaultPlan::quiet()
                    .inject(SITE_FLUSH, 0..u64::MAX, Fault::Disk(fault))
                    .inject(SITE_LOAD, 0..u64::MAX, Fault::Disk(fault)),
            );
            // Under the fault a load may start cold and a save may fail,
            // but neither panics nor hard-errors.
            let store = Store::open(&dir, 7, Some(plan)).unwrap();
            let _ = store.load();
            let _ = store.save(&[sample(3)]);
            // Without it the directory loads a whole snapshot or none.
            if let Ok(entries) = Store::open(&dir, 7, None).unwrap().load() {
                let old = entries == [sample(1), sample(2)];
                assert!(old || entries == [sample(3)], "fault {fault}: {entries:?}");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
