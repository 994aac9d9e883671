//! Crash-safe append-only segment store for the persistent goal cache.
//!
//! The store persists opaque `(key, payload)` records — the goal cache's
//! proved entries and eviction tombstones — across process boundaries,
//! with one non-negotiable invariant mirrored from the chaos suite:
//!
//! > corruption, torn writes, ENOSPC, vanished files, or concurrent
//! > processes degrade to a **cold cache**, never to a wrong verdict or
//! > a crashed run.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/MANIFEST            format version + semantic-config digest
//! <dir>/LOCK                advisory PID lock (held while a writer is open)
//! <dir>/seg-00000000.log    append-only record segments, replayed in order
//! <dir>/seg-00000001.log
//! <dir>/seg-00000003.log.corrupt   quarantined unreadable segment
//! ```
//!
//! Every segment starts with an 8-byte magic and then a sequence of
//! records framed as `[len: u32 LE][crc32: u32 LE][body]` where the body
//! is `[key: u128 LE][flags: u8][payload bytes]` (flag bit 0 marks a
//! tombstone). The CRC covers the body; `len` is the body length and is
//! sanity-capped, so a torn tail is detected by length, checksum, or
//! truncation and simply dropped. Segments are never modified in place:
//! each flush serializes a fresh segment to `*.tmp`, fsyncs it, and
//! atomically renames it into place, so readers never observe a
//! half-written segment under a crash at any instruction boundary.
//!
//! # Invalidation
//!
//! The `MANIFEST` records the store [`FORMAT_VERSION`] and a caller
//! -supplied semantic digest (prover configuration + code version). A
//! mismatch on open resets the store: entries proved under different
//! semantics are never replayed. Resetting cached data is always safe —
//! the next run just re-proves.
//!
//! # Recovery ladder (on open)
//!
//! 1. orphaned `*.tmp` files from interrupted flushes are deleted;
//! 2. a missing/garbled/mismatched `MANIFEST` resets the store;
//! 3. each segment is scanned record-by-record: a bad length, CRC
//!    mismatch, or truncation drops that record and the rest of the
//!    segment (torn tail);
//! 4. a segment that cannot be read at all, or whose magic is wrong, is
//!    quarantined by renaming to `*.corrupt` and skipped;
//! 5. whatever records survive are replayed in segment order.
//!
//! # Concurrency
//!
//! A `LOCK` file holding the writer's PID provides advisory mutual
//! exclusion. A lock whose PID is no longer alive (checked via
//! `/proc/<pid>`) is stale and taken over; a live holder demotes this
//! open to read-only — entries load, flushes are skipped.
//!
//! # Fault injection
//!
//! The store threads an optional [`FaultPlan`] through every IO
//! operation and consults [`FaultPlan::decide_disk`] at the `store.load`
//! / `store.flush` / `store.lock` sites. Each site applies the fault
//! kinds that are physically meaningful for it (a torn write cannot
//! happen during a read) and ignores the rest, exactly as the
//! dispatcher ignores disk faults aimed at its sites.

use crate::chaos::{DiskFault, FaultPlan};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::OnceLock;

/// Bumped whenever the record framing or manifest layout changes; a
/// mismatch on open resets the store rather than misparsing old bytes.
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every segment file. A segment without them is not
/// ours (or had its head destroyed) and is quarantined wholesale.
const SEGMENT_MAGIC: &[u8; 8] = b"JHSEG\x00\x00\x01";

/// Upper bound on a single record body; anything larger is framing
/// corruption, not data (goal-cache payloads are ~30 bytes).
const MAX_RECORD_LEN: u32 = 1 << 20;

/// Chaos sites for the store's three IO boundaries.
const SITE_LOAD: &str = "store.load";
const SITE_FLUSH: &str = "store.flush";
const SITE_LOCK: &str = "store.lock";

/// One persisted cache operation: a proved entry (`tombstone == false`,
/// payload = encoded proof metadata) or an eviction (`tombstone == true`,
/// empty payload). Replay applies records in order; later records win.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The goal-cache fingerprint this record is keyed on.
    pub key: u128,
    /// `true` erases `key` on replay (watchdog-evicted entry).
    pub tombstone: bool,
    /// Opaque payload; the goal cache owns the encoding.
    pub payload: Vec<u8>,
}

impl Record {
    /// A proved-entry record.
    pub fn entry(key: u128, payload: Vec<u8>) -> Record {
        Record {
            key,
            tombstone: false,
            payload,
        }
    }

    /// An eviction tombstone.
    pub fn tombstone(key: u128) -> Record {
        Record {
            key,
            tombstone: true,
            payload: Vec::new(),
        }
    }

    /// Serialized frame size of this record (header + body).
    pub fn frame_len(&self) -> u64 {
        8 + 17 + self.payload.len() as u64
    }
}

/// How the advisory lock was (or wasn't) acquired on open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockState {
    /// The lock was free and is now held by this store.
    Acquired,
    /// A stale lock (dead PID) was removed and the lock re-acquired.
    TookOverStale,
    /// Another live process holds the lock; this store loads entries but
    /// never writes.
    ReadOnly,
}

impl LockState {
    /// Short stable label for observability events.
    pub fn label(self) -> &'static str {
        match self {
            LockState::Acquired => "acquired",
            LockState::TookOverStale => "took-over-stale",
            LockState::ReadOnly => "read-only",
        }
    }
}

/// What [`Store::open`] found and did, for observability and tests.
#[derive(Debug)]
pub struct OpenReport {
    /// Surviving records in replay order (across segments).
    pub records: Vec<Record>,
    /// Segments read successfully (fully or up to a torn tail).
    pub segments: u64,
    /// Records dropped to torn/corrupt tails.
    pub dropped: u64,
    /// Segments quarantined to `*.corrupt`.
    pub quarantined: u64,
    /// `Some(reason)` when the store was reset (version/digest mismatch,
    /// unreadable manifest); existing segments were discarded.
    pub reset: Option<String>,
    /// Advisory-lock outcome.
    pub lock: LockState,
}

/// A handle on an open store directory. Dropping the handle releases the
/// advisory lock. All mutation goes through [`Store::append`], which
/// writes a whole new segment atomically.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    next_segment: u64,
    lock: LockState,
    plan: Option<Arc<FaultPlan>>,
}

impl Store {
    /// Open (creating if necessary) the store at `dir`, keyed by the
    /// caller's semantic `digest`. Never replays entries recorded under a
    /// different digest or format version. Hard-errors only when the
    /// directory itself cannot be created or listed — every data-level
    /// problem degrades per the recovery ladder and is reported in the
    /// [`OpenReport`].
    pub fn open(
        dir: &Path,
        digest: u64,
        plan: Option<Arc<FaultPlan>>,
    ) -> io::Result<(Store, OpenReport)> {
        fs::create_dir_all(dir)?;
        let lock = acquire_lock(dir, plan.as_deref())?;

        // Sweep orphaned temp files from interrupted flushes. Only when
        // we hold the lock: a live writer's in-flight temp is not ours.
        if lock != LockState::ReadOnly {
            for path in list_dir(dir)? {
                if path.extension().is_some_and(|e| e == "tmp") {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        let reset = check_manifest(dir, digest, lock)?;
        let mut report = OpenReport {
            records: Vec::new(),
            segments: 0,
            dropped: 0,
            quarantined: 0,
            reset,
            lock,
        };

        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for path in list_dir(dir)? {
            if let Some(index) = segment_index(&path) {
                segments.push((index, path));
            }
        }
        segments.sort();
        let next_segment = segments.last().map_or(0, |(i, _)| i + 1);

        if report.reset.is_some() {
            // A reset with the lock held already deleted the segments; a
            // read-only reset cannot, but must still refuse to replay
            // entries recorded under foreign semantics.
            segments.clear();
        }
        for (_, path) in segments {
            match read_segment(&path, plan.as_deref()) {
                Ok((records, dropped)) => {
                    report.segments += 1;
                    report.dropped += dropped;
                    report.records.extend(records);
                }
                Err(_) => {
                    // Unreadable or wrong magic: quarantine. If even the
                    // rename fails the segment is simply skipped — it will
                    // be retried (and likely re-quarantined) next open.
                    let mut corrupt = path.clone().into_os_string();
                    corrupt.push(".corrupt");
                    if lock != LockState::ReadOnly && fs::rename(&path, &corrupt).is_ok() {
                        report.quarantined += 1;
                    }
                }
            }
        }

        Ok((
            Store {
                dir: dir.to_owned(),
                next_segment,
                lock,
                plan,
            },
            report,
        ))
    }

    /// `true` when another live process holds the lock; appends are
    /// rejected and the caller should skip flushing.
    pub fn read_only(&self) -> bool {
        self.lock == LockState::ReadOnly
    }

    /// Append `records` as one new segment, written atomically
    /// (temp + fsync + rename). Returns the bytes written. An empty batch
    /// writes nothing. Errors leave the store directory consistent: the
    /// worst outcome of a failed append is an orphaned temp file (swept
    /// on next open) or a torn segment tail (dropped on next open).
    pub fn append(&mut self, records: &[Record]) -> io::Result<u64> {
        if records.is_empty() {
            return Ok(0);
        }
        if self.read_only() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "store is read-only: another live process holds the lock",
            ));
        }

        let fault = self
            .plan
            .as_deref()
            .and_then(|plan| plan.decide_disk(SITE_FLUSH));
        if matches!(fault, Some(DiskFault::NoSpace)) {
            // Model ENOSPC at write time: nothing lands on disk.
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected ENOSPC at store.flush",
            ));
        }

        let mut buf: Vec<u8> = Vec::with_capacity(
            SEGMENT_MAGIC.len()
                + records
                    .iter()
                    .map(|r| r.frame_len() as usize)
                    .sum::<usize>(),
        );
        buf.extend_from_slice(SEGMENT_MAGIC);
        for record in records {
            encode_record(record, &mut buf);
        }

        if matches!(fault, Some(DiskFault::BitFlip)) {
            // Flip one payload bit AFTER checksumming, modeling silent
            // media corruption: the write "succeeds" and the damage is
            // caught by CRC on the next open.
            let at = SEGMENT_MAGIC.len() + 8 + 4; // first record's body
            if at < buf.len() {
                buf[at] ^= 0x10;
            }
        }
        if matches!(fault, Some(DiskFault::TornWrite)) {
            // Model a crash mid-write: only a prefix reaches the disk,
            // but the rename completed (journal reordering). The torn
            // tail must be dropped by the next open.
            let keep = SEGMENT_MAGIC.len() + (buf.len() - SEGMENT_MAGIC.len()) / 2;
            buf.truncate(keep.max(SEGMENT_MAGIC.len() + 9));
        }

        let name = format!("seg-{:08}.log", self.next_segment);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let dst = self.dir.join(&name);
        let written = buf.len() as u64;
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_all()?;
        }
        if matches!(fault, Some(DiskFault::RenameFail)) {
            // The temp file is complete but never published; it is swept
            // as an orphan on the next open.
            return Err(io::Error::other(
                "chaos: injected rename failure at store.flush",
            ));
        }
        fs::rename(&tmp, &dst)?;
        // Publishing the rename durably requires fsyncing the directory.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.next_segment += 1;

        if matches!(fault, Some(DiskFault::TornWrite)) {
            // The torn prefix is on disk under the final name; surface
            // the failure so the caller can count it.
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "chaos: injected torn write at store.flush",
            ));
        }
        Ok(written)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if self.lock != LockState::ReadOnly {
            let _ = fs::remove_file(self.dir.join("LOCK"));
        }
    }
}

// ---------------------------------------------------------------------
// Record framing

fn encode_record(record: &Record, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(17 + record.payload.len());
    body.extend_from_slice(&record.key.to_le_bytes());
    body.push(record.tombstone as u8);
    body.extend_from_slice(&record.payload);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decode records from `bytes` (after the segment magic). Returns the
/// surviving records and the count of dropped torn-tail records (0 or 1
/// detectable frames — everything after the first bad frame is
/// unframeable, so the drop count tallies frames we *know* were lost,
/// which is what the obs events report).
fn decode_records(mut bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 8 {
            return (records, 1); // torn header
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if !(17..=MAX_RECORD_LEN).contains(&len) || bytes.len() < 8 + len as usize {
            return (records, 1); // corrupt length or truncated body
        }
        let body = &bytes[8..8 + len as usize];
        if crc32(body) != crc {
            return (records, 1); // checksum mismatch
        }
        let mut key = [0u8; 16];
        key.copy_from_slice(&body[..16]);
        records.push(Record {
            key: u128::from_le_bytes(key),
            tombstone: body[16] & 1 != 0,
            payload: body[17..].to_vec(),
        });
        bytes = &bytes[8 + len as usize..];
    }
    (records, 0)
}

/// Read one segment file. `Err` means the segment is unreadable or not
/// ours (wrong magic) — the caller quarantines it. A torn tail is NOT an
/// error: the readable prefix is returned with the drop count.
fn read_segment(path: &Path, plan: Option<&FaultPlan>) -> io::Result<(Vec<Record>, u64)> {
    let fault = plan.and_then(|p| p.decide_disk(SITE_LOAD));
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    match fault {
        Some(DiskFault::ShortRead) => {
            // Model a truncated read (bad sector, vanished tail).
            bytes.truncate(bytes.len() / 2);
        }
        Some(DiskFault::BitFlip) => {
            // Model silent media corruption on the read path.
            let at = bytes.len().saturating_sub(1) / 2;
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 0x04;
            }
        }
        _ => {} // write-side and lock-side kinds are meaningless here
    }
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad segment magic",
        ));
    }
    Ok(decode_records(&bytes[SEGMENT_MAGIC.len()..]))
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.len() == 8 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

fn list_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    Ok(paths)
}

// ---------------------------------------------------------------------
// Manifest

/// Validate (or initialize) the manifest. Returns `Some(reason)` when the
/// store had to be reset: segments deleted, fresh manifest written.
fn check_manifest(dir: &Path, digest: u64, lock: LockState) -> io::Result<Option<String>> {
    let path = dir.join("MANIFEST");
    let have_segments = list_dir(dir)?.iter().any(|p| segment_index(p).is_some());
    let reason = match fs::read_to_string(&path) {
        Ok(text) => match parse_manifest(&text) {
            Some((FORMAT_VERSION, d)) if d == digest => None,
            Some((FORMAT_VERSION, _)) => Some("config digest changed".to_owned()),
            Some((v, _)) => Some(format!("format version {v} != {FORMAT_VERSION}")),
            None => Some("unreadable manifest".to_owned()),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            if have_segments {
                // Segments without a manifest cannot be trusted: the
                // digest they were recorded under is unknown.
                Some("manifest missing with segments present".to_owned())
            } else {
                // Pristine directory: initialize silently.
                if lock != LockState::ReadOnly {
                    write_manifest(dir, digest)?;
                }
                None
            }
        }
        Err(e) => Some(format!("manifest unreadable: {e}")),
    };
    if reason.is_some() && lock != LockState::ReadOnly {
        // A read-only open cannot reset someone else's store; it just
        // refuses to replay (segments are skipped because `reason` is
        // reported and the caller starts cold anyway).
        for path in list_dir(dir)? {
            if segment_index(&path).is_some() {
                let _ = fs::remove_file(&path);
            }
        }
        write_manifest(dir, digest)?;
    }
    Ok(reason)
}

fn parse_manifest(text: &str) -> Option<(u32, u64)> {
    let mut version = None;
    let mut digest = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("format ") {
            version = v.trim().parse::<u32>().ok();
        } else if let Some(d) = line.strip_prefix("digest ") {
            digest = u64::from_str_radix(d.trim(), 16).ok();
        }
    }
    Some((version?, digest?))
}

fn write_manifest(dir: &Path, digest: u64) -> io::Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    let dst = dir.join("MANIFEST");
    {
        let mut file = File::create(&tmp)?;
        write!(
            file,
            "jahob-store\nformat {FORMAT_VERSION}\ndigest {digest:016x}\n"
        )?;
        file.sync_all()?;
    }
    fs::rename(&tmp, &dst)
}

// ---------------------------------------------------------------------
// Advisory lock

/// Acquire the advisory PID lock at `<dir>/LOCK`. A missing lock is
/// created; a lock naming a dead PID is stale and taken over (once); a
/// live holder demotes to [`LockState::ReadOnly`].
fn acquire_lock(dir: &Path, plan: Option<&FaultPlan>) -> io::Result<LockState> {
    acquire_lock_with(dir, plan, &pid_alive)
}

/// [`acquire_lock`] with an injectable liveness probe, so the takeover
/// and demotion paths are testable without fabricating real PIDs.
fn acquire_lock_with(
    dir: &Path,
    plan: Option<&FaultPlan>,
    probe: &dyn Fn(u32) -> bool,
) -> io::Result<LockState> {
    if let Some(DiskFault::StaleLock) = plan.and_then(|p| p.decide_disk(SITE_LOCK)) {
        // Fabricate a crashed writer: a LOCK naming a PID that is long
        // dead, forcing this open through the takeover path.
        let _ = fs::write(dir.join("LOCK"), "999999999\n");
    }
    let path = dir.join("LOCK");
    for attempt in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let _ = writeln!(file, "{}", std::process::id());
                let _ = file.sync_all();
                return Ok(if attempt == 0 {
                    LockState::Acquired
                } else {
                    LockState::TookOverStale
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = match holder {
                    // Our own PID means another handle in this very
                    // process holds the lock — definitely alive.
                    Some(pid) if pid == std::process::id() => false,
                    Some(pid) => !probe(pid),
                    // An unparseable lock body is a torn lock write from
                    // a crashed holder: stale.
                    None => true,
                };
                if stale && attempt == 0 {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                return Ok(LockState::ReadOnly);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(LockState::ReadOnly)
}

/// Is the lock-holding PID still alive? Compile-time dispatch: the
/// `/proc` probe only exists on Linux, so other platforms must not use
/// it — a `/proc`-less OS would report every holder dead and let two
/// live processes both take write ownership of the same segment dir.
#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Non-Linux unix: probe with `kill(pid, 0)`. The raw syscall is
/// declared inline because the workspace has no deps (no `libc`).
/// `0` or `EPERM` (the process exists but belongs to someone else)
/// both mean alive; only `ESRCH` proves the holder is gone. Any other
/// errno is "can't tell", which conservatively counts as alive — we
/// demote to read-only rather than risk corrupting a live writer.
#[cfg(all(unix, not(target_os = "linux")))]
fn pid_alive(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = match i32::try_from(pid) {
        Ok(p) if p > 0 => p,
        _ => return true, // unrepresentable holder: can't tell, assume live
    };
    if unsafe { kill(pid, 0) } == 0 {
        return true;
    }
    const ESRCH: i32 = 3; // same value on every unix we could run on
    std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

/// No portable liveness probe at all: every holder looks alive, so a
/// crashed writer's lock pins later opens to read-only until removed by
/// hand. Safe (never corrupts), merely conservative.
#[cfg(not(unix))]
fn pid_alive(_pid: u32) -> bool {
    true
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

    fn sample(n: u8) -> Record {
        Record::entry(
            0x1111_0000_0000_0000_0000_0000_0000_0000u128 + n as u128,
            vec![n; 5],
        )
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let (mut store, report) = Store::open(&dir, 7, None).unwrap();
            assert_eq!(report.lock, LockState::Acquired);
            assert!(report.records.is_empty());
            store.append(&[sample(1), sample(2)]).unwrap();
            store
                .append(&[Record::tombstone(sample(1).key), sample(3)])
                .unwrap();
        }
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.reset, None);
        assert_eq!(report.records.len(), 4);
        assert!(report.records[2].tombstone);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_mismatch_resets() {
        let dir = temp_dir("digest");
        {
            let (mut store, _) = Store::open(&dir, 7, None).unwrap();
            store.append(&[sample(1)]).unwrap();
        }
        let (_store, report) = Store::open(&dir, 8, None).unwrap();
        assert!(report.reset.is_some(), "digest change must reset");
        assert!(report.records.is_empty());
        drop(_store);
        // And the reset is durable: reopening under the new digest is clean.
        let (_store, report) = Store::open(&dir, 8, None).unwrap();
        assert_eq!(report.reset, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        {
            let (mut store, _) = Store::open(&dir, 7, None).unwrap();
            store.append(&[sample(1), sample(2), sample(3)]).unwrap();
        }
        // Chop the last 10 bytes off the segment, as a crash mid-write
        // would (if rename had still landed).
        let seg = dir.join("seg-00000000.log");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_is_caught_by_crc() {
        let dir = temp_dir("flip");
        {
            let (mut store, _) = Store::open(&dir, 7, None).unwrap();
            store.append(&[sample(1)]).unwrap();
        }
        let seg = dir.join("seg-00000000.log");
        let mut bytes = fs::read(&seg).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.dropped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_segment_is_quarantined() {
        let dir = temp_dir("garbage");
        {
            let (mut store, _) = Store::open(&dir, 7, None).unwrap();
            store.append(&[sample(1)]).unwrap();
        }
        fs::write(dir.join("seg-00000001.log"), b"not a segment at all").unwrap();
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.records.len(), 1, "good segment still loads");
        assert_eq!(report.quarantined, 1);
        assert!(dir.join("seg-00000001.log.corrupt").exists());
        drop(_store);
        // The quarantined file never comes back.
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lock_demotes_to_read_only() {
        let dir = temp_dir("lock");
        let (mut writer, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.lock, LockState::Acquired);
        writer.append(&[sample(1)]).unwrap();
        // Second open while the first handle is alive: read-only, but the
        // entries still load.
        let (mut reader, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.lock, LockState::ReadOnly);
        assert_eq!(report.records.len(), 1);
        assert!(reader.append(&[sample(2)]).is_err());
        drop(reader);
        // The reader's drop must NOT release the writer's lock.
        assert!(dir.join("LOCK").exists());
        drop(writer);
        assert!(!dir.join("LOCK").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_taken_over() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("LOCK"), "999999999\n").unwrap();
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.lock, LockState::TookOverStale);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_says_dead_takes_over_stale_lock() {
        // Through the probe seam, independent of the host OS's notion of
        // PID liveness: a holder the probe declares dead is taken over.
        let dir = temp_dir("seam-dead");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("LOCK"), "12345\n").unwrap();
        let state = acquire_lock_with(&dir, None, &|_| false).unwrap();
        assert_eq!(state, LockState::TookOverStale);
        // The takeover rewrote the lock with our own PID.
        let body = fs::read_to_string(dir.join("LOCK")).unwrap();
        assert_eq!(body.trim().parse::<u32>().unwrap(), std::process::id());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_says_alive_demotes_to_read_only() {
        // "Can't tell" and "alive" both report true from the probe (the
        // non-Linux fallbacks): the open must demote, never steal.
        let dir = temp_dir("seam-live");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("LOCK"), "12345\n").unwrap();
        let state = acquire_lock_with(&dir, None, &|_| true).unwrap();
        assert_eq!(state, LockState::ReadOnly);
        // The live holder's lock file is untouched.
        let body = fs::read_to_string(dir.join("LOCK")).unwrap();
        assert_eq!(body.trim(), "12345");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lock_is_stale_without_consulting_the_probe() {
        use std::cell::Cell;
        let dir = temp_dir("seam-torn");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("LOCK"), "not a pid").unwrap();
        let asked = Cell::new(false);
        let state = acquire_lock_with(&dir, None, &|_| {
            asked.set(true);
            true
        })
        .unwrap();
        assert_eq!(state, LockState::TookOverStale);
        assert!(!asked.get(), "torn lock bodies are stale by definition");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn own_pid_holder_is_live_without_consulting_the_probe() {
        use std::cell::Cell;
        let dir = temp_dir("seam-own");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("LOCK"), format!("{}\n", std::process::id())).unwrap();
        let asked = Cell::new(false);
        let state = acquire_lock_with(&dir, None, &|_| {
            asked.set(true);
            false
        })
        .unwrap();
        assert_eq!(state, LockState::ReadOnly);
        assert!(!asked.get(), "our own PID is alive by definition");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_tmp_files_are_swept() {
        let dir = temp_dir("orphan");
        {
            let (mut store, _) = Store::open(&dir, 7, None).unwrap();
            store.append(&[sample(1)]).unwrap();
        }
        fs::write(dir.join("seg-00000099.log.tmp"), b"half-written").unwrap();
        let (_store, report) = Store::open(&dir, 7, None).unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(!dir.join("seg-00000099.log.tmp").exists());
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
            DiskFault::StaleLock,
        ] {
            let dir = temp_dir("chaos");
            // Seed the store cleanly first.
            {
                let (mut store, _) = Store::open(&dir, 7, None).unwrap();
                store.append(&[sample(1), sample(2)]).unwrap();
            }
            let plan = Arc::new(
                FaultPlan::quiet()
                    .inject(SITE_FLUSH, 0..u64::MAX, Fault::Disk(fault))
                    .inject(SITE_LOAD, 0..u64::MAX, Fault::Disk(fault))
                    .inject(SITE_LOCK, 0..u64::MAX, Fault::Disk(fault)),
            );
            // Open under the fault: never panics, never hard-errors.
            let (mut store, _report) = Store::open(&dir, 7, Some(Arc::clone(&plan))).unwrap();
            // Appending may fail (ENOSPC, torn write, rename) but must
            // not panic and must leave the directory reopenable.
            let _ = store.append(&[sample(3)]);
            drop(store);
            let (_store, report) = Store::open(&dir, 7, None).unwrap();
            // Whatever survived is well-formed; the store works again.
            for r in &report.records {
                assert!(r.payload.len() <= 5, "fault {fault} corrupted a payload");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
