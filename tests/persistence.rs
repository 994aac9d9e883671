//! Crash-safe persistent proof cache (ISSUE 6) — cross-process pins.
//!
//! Each test opens the cache the way a real second process would: a fresh
//! `Verifier` (or a fresh `GoalCache::open_persistent`) pointed at the
//! same directory. The invariants:
//!
//! * **Warm restarts replay, never re-prove.** A second session over the
//!   same source discharges every previously-proved goal from the store —
//!   zero fresh `proved.*` counters — and its method verdicts are
//!   identical to the cold run's.
//! * **Reports are persistence-blind.** A cold run with persistence on is
//!   byte-for-byte the run with persistence off, at 1, 2, and 8 workers;
//!   warm runs are byte-for-byte identical to each other at any worker
//!   count.
//! * **Corruption degrades, never lies.** Torn tails, flipped bytes,
//!   deleted manifests, garbage segments, orphaned temp files, and stale
//!   locks all reopen — at worst cold — with unchanged verdicts, and the
//!   directory stays reopenable afterwards.
//! * **Injected disk faults are invisible in verdicts.** Every
//!   `DiskFault` kind, targeted at every store IO site, completes the
//!   run with baseline verdicts and leaves the directory reopenable.

use jahob_repro::jahob::goal_cache::{CachedProof, Lookup};
use jahob_repro::jahob::{Config, GoalCache, ProverId, ReportRender, VerifyReport};
use jahob_repro::util::{DiskFault, Fault, FaultPlan};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique per-test scratch directory (no tempfile crate in the tree).
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jahob-persistence-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

fn source() -> String {
    fs::read_to_string("case_studies/list.javax").expect("case study")
}

/// A two-method counter class: a handful of quick LIA obligations, all
/// proved — enough to exercise populate/replay without the cost of a
/// full case study. Used by the 6-kind × 3-site fault-injection matrix.
const TINY: &str = r#"
class Tiny {
   /*:
     public static specvar count :: int;
     invariant "0 <= count";
   */
   private static int c;

   public static void reset()
   /*: modifies count ensures "count = 0" */
   {
      c = 0;
      //: count := "0";
   }

   public static void inc()
   /*: requires "0 <= count" modifies count ensures "count = old count + 1" */
   {
      c = c + 1;
      //: count := "count + 1";
   }
}
"#;

/// Run `src` through a fresh session; `dir` enables persistence.
fn run(src: &str, dir: Option<&Path>, workers: usize) -> VerifyReport {
    run_with_plan(src, dir, workers, None)
}

fn run_with_plan(
    src: &str,
    dir: Option<&Path>,
    workers: usize,
    plan: Option<Arc<FaultPlan>>,
) -> VerifyReport {
    let mut builder = Config::builder().workers(workers);
    if let Some(dir) = dir {
        builder = builder.cache_path(dir);
    }
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    builder
        .build_verifier()
        .verify(src)
        .expect("pipeline must complete")
}

/// The stable per-method verdict section, the part of the report that
/// must never depend on cache temperature or store health.
fn methods_json(report: &VerifyReport) -> String {
    report
        .methods
        .iter()
        .map(|m| m.to_json(ReportRender::STABLE))
        .collect::<Vec<_>>()
        .join("\n")
}

fn stat(report: &VerifyReport, key: &str) -> u64 {
    report.stats.get(key).copied().unwrap_or(0)
}

fn fresh_proof_count(report: &VerifyReport) -> u64 {
    report
        .stats
        .iter()
        .filter(|(k, _)| k.starts_with("proved."))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn warm_restart_replays_proofs_and_never_reproves() {
    let src = source();
    let dir = temp_dir("warm");

    let cold = run(&src, Some(&dir), 1);
    assert!(fresh_proof_count(&cold) > 0, "cold run proves goals fresh");
    assert!(stat(&cold, "store.flush.records") > 0, "cold run persists");

    // A brand-new session (fresh Verifier, fresh GoalCache) — the only
    // shared state is the directory on disk.
    let warm = run(&src, Some(&dir), 1);
    assert_eq!(
        methods_json(&cold),
        methods_json(&warm),
        "warm verdicts must be identical to cold"
    );
    assert!(
        stat(&warm, "store.load.entries") > 0,
        "warm run replays the store: {:?}",
        warm.stats
    );
    assert_eq!(
        fresh_proof_count(&warm),
        0,
        "a warm session never re-proves a persisted goal: {:?}",
        warm.stats
    );
    assert_eq!(
        stat(&warm, "cache.hit"),
        stat(&warm, "store.load.entries"),
        "every replayed entry is hit exactly once on list.javax"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_reports_are_bit_identical_to_persistence_off() {
    let src = source();
    for workers in [1usize, 2, 8] {
        let dir = temp_dir("identity");
        let off = run(&src, None, workers);
        let on = run(&src, Some(&dir), workers);
        assert_eq!(
            off.to_json(ReportRender::STABLE),
            on.to_json(ReportRender::STABLE),
            "persistence must be invisible in the stable report (workers={workers})"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_reports_are_worker_invariant() {
    let src = source();
    let dir = temp_dir("workers");
    run(&src, Some(&dir), 1); // populate

    let warm1 = run(&src, Some(&dir), 1);
    for workers in [2usize, 8] {
        let warm_n = run(&src, Some(&dir), workers);
        assert_eq!(
            warm1.to_json(ReportRender::STABLE),
            warm_n.to_json(ReportRender::STABLE),
            "warm report must not depend on worker count (workers={workers})"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `Verifier` session reuse with persistence enabled. Hit attribution
/// stays deterministic and the second `verify()` call never re-proves;
/// dropping the session flushes its store so a later session on the same
/// directory starts warm.
#[test]
fn session_reuse_with_shared_persistent_cache() {
    let src = TINY;
    let dir = temp_dir("session");

    let verifier = Config::builder()
        .workers(1)
        .cache_path(&dir)
        .build_verifier();

    let first = verifier.verify(src).expect("first call");
    assert!(fresh_proof_count(&first) > 0, "first call proves fresh");

    let second = verifier.verify(src).expect("second call");
    assert_eq!(
        methods_json(&first),
        methods_json(&second),
        "session reuse must not change verdicts"
    );
    assert_eq!(
        fresh_proof_count(&second),
        0,
        "second call replays the session's warm cache: {:?}",
        second.stats
    );
    // Deterministic hit attribution: the second call hits exactly the
    // distinct goals the first call proved and cached; only uncacheable
    // goals (refutations, unknowns) miss again.
    assert_eq!(
        stat(&second, "cache.hit"),
        stat(&first, "cache.miss") + stat(&first, "cache.hit") - stat(&second, "cache.miss"),
        "first: {:?}\nsecond: {:?}",
        first.stats,
        second.stats
    );

    // Drop the session: the write-behind layer flushes on drop, so a
    // later session on the same directory starts warm from disk.
    drop(verifier);
    let reopened = Config::builder()
        .workers(1)
        .cache_path(&dir)
        .build_verifier();
    assert!(
        reopened.goal_cache().is_some_and(|cache| !cache.is_empty()),
        "dropping the session persisted the proofs"
    );
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
}

/// Apply `corrupt` to a populated store directory, then pin: the warm
/// run still completes with baseline verdicts (at worst cold), leaves no
/// `*.tmp` file behind, and the directory remains reopenable for one more
/// clean round-trip.
fn corruption_case(tag: &str, corrupt: impl Fn(&Path)) {
    let src = TINY;
    let dir = temp_dir(tag);
    let baseline = run(src, Some(&dir), 1);

    corrupt(&dir);

    let recovered = run(src, Some(&dir), 1);
    assert_eq!(
        methods_json(&baseline),
        methods_json(&recovered),
        "{tag}: corruption must never change a verdict"
    );
    let leftover: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tmp"))
        .collect();
    assert!(leftover.is_empty(), "{tag}: temp files left: {leftover:?}");

    // The store must have healed: one more clean round-trip works.
    let again = run(src, Some(&dir), 1);
    assert_eq!(
        methods_json(&baseline),
        methods_json(&again),
        "{tag}: directory must stay reopenable after recovery"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    assert!(!segments.is_empty(), "populated store has segments");
    segments
}

#[test]
fn truncated_segment_tail_is_dropped() {
    corruption_case("truncate", |dir| {
        let seg = segment_paths(dir).pop().unwrap();
        let bytes = fs::read(&seg).unwrap();
        // Tear mid-record: keep the magic plus half of the remainder.
        let keep = 8 + (bytes.len() - 8) / 2;
        fs::write(&seg, &bytes[..keep]).unwrap();
    });
}

#[test]
fn flipped_byte_is_caught_by_the_record_crc() {
    corruption_case("bitflip", |dir| {
        let seg = segment_paths(dir).pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let mid = 8 + (bytes.len() - 8) / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, bytes).unwrap();
    });
}

#[test]
fn missing_manifest_resets_to_cold() {
    corruption_case("manifest", |dir| {
        fs::remove_file(dir.join("MANIFEST")).unwrap();
    });
}

#[test]
fn garbage_segment_is_quarantined() {
    corruption_case("garbage", |dir| {
        let seg = segment_paths(dir).pop().unwrap();
        fs::write(&seg, b"this is not a segment file at all").unwrap();
    });
}

#[test]
fn orphan_tmp_file_is_swept() {
    corruption_case("orphantmp", |dir| {
        // A crash between a flush's write and its rename leaves the
        // half-written segment under its temp name.
        fs::write(dir.join("seg-99999999.log.tmp"), b"half-written segment").unwrap();
    });
}

#[test]
fn stale_lock_is_taken_over() {
    corruption_case("stalelock", |dir| {
        // A PID that is certainly not alive: the kernel's pid_max caps
        // real PIDs well below this.
        fs::write(dir.join("LOCK"), "999999999\n").unwrap();
    });
}

#[test]
fn foreign_digest_entries_are_never_replayed() {
    const THEIRS: u64 = 1;
    const OURS: u64 = 2;
    let dir = temp_dir("digest");
    {
        let cache = GoalCache::open_persistent(&dir, THEIRS, None, None);
        if let Lookup::Miss(claim) = cache.begin(7) {
            claim.fill(CachedProof {
                prover: ProverId::Lia,
                bound: None,
                fuel: 3,
            });
        };
        // drop flushes
    }
    let foreign = GoalCache::open_persistent(&dir, OURS, None, None);
    assert_eq!(foreign.len(), 0, "a digest change must cold-start");
    drop(foreign);
    let _ = fs::remove_dir_all(&dir);
}

/// Every injected disk-fault kind, at every store IO site, on both the
/// cold (populate) and warm (replay) leg: the run completes, verdicts
/// match the fault-free baseline, and the directory stays reopenable.
#[test]
fn injected_store_faults_never_change_verdicts() {
    let src = TINY;
    let baseline = run(src, None, 1);
    let baseline_methods = methods_json(&baseline);

    let kinds = [
        DiskFault::TornWrite,
        DiskFault::BitFlip,
        DiskFault::ShortRead,
        DiskFault::NoSpace,
        DiskFault::RenameFail,
        DiskFault::StaleLock,
    ];
    for kind in kinds {
        for site in ["store.load", "store.flush", "store.lock"] {
            let dir = temp_dir("inject");
            let plan = || Arc::new(FaultPlan::quiet().inject(site, 0..64, Fault::Disk(kind)));

            // Cold leg under fault, then warm leg under the same fault.
            let cold = run_with_plan(src, Some(&dir), 1, Some(plan()));
            assert_eq!(
                baseline_methods,
                methods_json(&cold),
                "{kind} at {site}: cold verdicts must match baseline"
            );
            let warm = run_with_plan(src, Some(&dir), 1, Some(plan()));
            assert_eq!(
                baseline_methods,
                methods_json(&warm),
                "{kind} at {site}: warm verdicts must match baseline"
            );

            // The battered directory always reopens cleanly.
            let healed = run(src, Some(&dir), 1);
            assert_eq!(
                baseline_methods,
                methods_json(&healed),
                "{kind} at {site}: directory must stay reopenable"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn read_only_fallback_when_lock_is_held() {
    let src = TINY;
    let dir = temp_dir("readonly");
    run(src, Some(&dir), 1); // populate

    // Hold the lock the way a live sibling process would (same process
    // counts: the store sees its own live PID and demotes to read-only).
    fs::write(dir.join("LOCK"), format!("{}\n", std::process::id())).unwrap();

    let warm = run(src, Some(&dir), 1);
    assert_eq!(
        fresh_proof_count(&warm),
        0,
        "read-only mode still replays persisted proofs: {:?}",
        warm.stats
    );
    assert_eq!(
        stat(&warm, "store.lock.read-only"),
        1,
        "the demotion is observable: {:?}",
        warm.stats
    );

    fs::remove_file(dir.join("LOCK")).unwrap();
    let _ = fs::remove_dir_all(&dir);
}
