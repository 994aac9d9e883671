//! Crash-safe persistent proof cache — cross-process pins.
//!
//! Each test opens the cache the way a real second process would: a fresh
//! `Verifier` (or a fresh `GoalCache::open_persistent`) pointed at the
//! same directory, whose one data file is the snapshot `proofs.bin`. The
//! invariants:
//!
//! * **Warm restarts replay, never re-prove.** A second session over the
//!   same source discharges every previously-proved goal from the store —
//!   zero fresh `proved.*` counters — and its method verdicts are
//!   identical to the cold run's.
//! * **Reports are persistence-blind.** A cold run with persistence on is
//!   byte-for-byte the run with persistence off, at 1, 2, and 8 workers;
//!   warm runs are byte-for-byte identical to each other at any worker
//!   count.
//! * **Corruption degrades, never lies.** Truncated, bit-flipped and
//!   garbage snapshots, a directory in the old segment layout, stray temp
//!   files, leftover lock files and two sessions saving at once all
//!   reopen — at worst cold — with unchanged verdicts, and the next save
//!   leaves a whole snapshot.
//! * **Injected disk faults are invisible in verdicts.** Every
//!   `DiskFault` kind, targeted at every store IO site, completes the
//!   run with baseline verdicts and leaves the directory reopenable.
//! * **One file.** However long the edit history, the directory holds
//!   one snapshot between saves.

use jahob_repro::jahob::goal_cache::{CachedProof, Lookup};
use jahob_repro::jahob::{Config, GoalCache, ProverId, ReportRender, VerifyReport};
use jahob_repro::util::store::Store;
use jahob_repro::util::{DiskFault, Fault, FaultPlan};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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
/// full case study. Used by the 5-kind × 2-site fault-injection matrix.
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

    // Drop the session: the cache saves what it lacks on drop, so a
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

/// The directory's file names, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// What the store makes of `dir`'s snapshot under the default
/// configuration: its entry count, or why it is rejected.
fn load(dir: &Path) -> Result<usize, String> {
    let digest = Config::builder().build().dispatch.cache_digest();
    let store = Store::open(dir, digest, None).expect("open store");
    store.load().map(|entries| entries.len())
}

/// How the first run after a corruption must start.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Start {
    /// Nothing loads and every proof is fresh.
    Cold,
    /// The snapshot loads and nothing is re-proved.
    Warm,
}

/// Apply `corrupt` to a directory holding one session's snapshot, then
/// pin: the next run keeps the baseline verdicts, starts as `start`
/// says and leaves no temp file, and the run after it re-proves nothing,
/// because the last save left a whole snapshot. Returns the directory,
/// for the caller's own checks and removal, and the first run's report.
fn corruption_case(tag: &str, start: Start, corrupt: impl Fn(&Path)) -> (PathBuf, VerifyReport) {
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
    match start {
        Start::Cold => {
            assert_eq!(stat(&recovered, "store.load.entries"), 0, "{tag}");
            assert_eq!(
                fresh_proof_count(&recovered),
                fresh_proof_count(&baseline),
                "{tag}: a cold start re-proves everything"
            );
        }
        Start::Warm => assert_eq!(fresh_proof_count(&recovered), 0, "{tag}"),
    }
    let leftover: Vec<String> = files(&dir)
        .into_iter()
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftover.is_empty(), "{tag}: temp files left: {leftover:?}");

    // The store must have healed: one more run replays everything.
    let again = run(src, Some(&dir), 1);
    assert_eq!(
        methods_json(&baseline),
        methods_json(&again),
        "{tag}: directory must stay reopenable after recovery"
    );
    assert_eq!(
        fresh_proof_count(&again),
        0,
        "{tag}: the last save left a whole snapshot: {:?}",
        again.stats
    );
    (dir, recovered)
}

/// A truncated `proofs.bin` loads cold, and the next save replaces it.
#[test]
fn truncated_segment_tail_is_dropped() {
    let (dir, recovered) = corruption_case("truncate", Start::Cold, |dir| {
        let path = dir.join("proofs.bin");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load(dir).is_err(), "a torn snapshot is rejected");
    });
    assert_eq!(stat(&recovered, "store.recovered"), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// One flipped byte in `proofs.bin` is caught by the file's CRC, and the
/// snapshot loads cold.
#[test]
fn flipped_byte_is_caught_by_the_record_crc() {
    let (dir, recovered) = corruption_case("bitflip", Start::Cold, |dir| {
        let path = dir.join("proofs.bin");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        assert_eq!(load(dir), Err("checksum mismatch".to_owned()));
    });
    assert_eq!(stat(&recovered, "store.recovered"), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A directory in the old segment layout (`MANIFEST`, `LOCK`,
/// `seg-*.log`, no `proofs.bin`) opens cold, and the next save lands
/// beside the old files, which are left as they were.
#[test]
fn missing_manifest_resets_to_cold() {
    let old = [
        (
            "MANIFEST",
            "jahob-store\nformat 1\ndigest 0123456789abcdef\n",
        ),
        ("LOCK", "999999999\n"),
        ("seg-00000000.log", "JHSEG\0\0\x01 old records"),
    ];
    let (dir, recovered) = corruption_case("oldlayout", Start::Cold, |dir| {
        fs::remove_file(dir.join("proofs.bin")).unwrap();
        for (name, body) in old {
            fs::write(dir.join(name), body).unwrap();
        }
    });
    assert_eq!(
        stat(&recovered, "store.recovered"),
        0,
        "no snapshot, no reset"
    );
    for (name, body) in old {
        assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), body, "{name}");
    }
    assert!(load(&dir).is_ok_and(|entries| entries > 0));
    let _ = fs::remove_dir_all(&dir);
}

/// A garbage `proofs.bin` loads cold, and the next save replaces it.
#[test]
fn garbage_segment_is_quarantined() {
    let (dir, recovered) = corruption_case("garbage", Start::Cold, |dir| {
        fs::write(dir.join("proofs.bin"), b"this is not a snapshot at all").unwrap();
        assert_eq!(load(dir), Err("bad magic".to_owned()));
    });
    assert_eq!(stat(&recovered, "store.recovered"), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// An orphaned temp file is never read, and the next save replaces it.
#[test]
fn orphan_tmp_file_is_swept() {
    let (dir, _) = corruption_case("orphantmp", Start::Cold, |dir| {
        // A save whose rename never happened leaves a whole snapshot
        // under the temp name, and here no published one beside it.
        fs::rename(dir.join("proofs.bin"), dir.join("proofs.bin.tmp")).unwrap();
    });
    assert_eq!(files(&dir), ["proofs.bin"]);
    let _ = fs::remove_dir_all(&dir);
}

/// A leftover `LOCK` file changes nothing: the snapshot loads warm.
#[test]
fn stale_lock_is_taken_over() {
    let (dir, _) = corruption_case("stalelock", Start::Warm, |dir| {
        // A PID that is certainly not alive: the kernel's pid_max caps
        // real PIDs well below this.
        fs::write(dir.join("LOCK"), "999999999\n").unwrap();
    });
    let _ = fs::remove_dir_all(&dir);
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
    ];
    for kind in kinds {
        for site in ["store.load", "store.flush"] {
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

/// Two live sessions on one directory exclude each other no more: both
/// load, both save (the last rename wins), and a third session reopens
/// the directory with baseline verdicts and re-proves nothing.
#[test]
fn read_only_fallback_when_lock_is_held() {
    let src = TINY;
    let baseline = methods_json(&run(src, None, 1));
    let dir = temp_dir("twosessions");
    let session = || {
        Config::builder()
            .workers(1)
            .cache_path(&dir)
            .build_verifier()
    };
    let (first, second) = (session(), session());
    for verifier in [&first, &second] {
        let report = verifier.verify(src).expect("pipeline must complete");
        assert_eq!(methods_json(&report), baseline);
        assert!(
            stat(&report, "store.flush.records") > 0,
            "each session saves: {:?}",
            report.stats
        );
    }
    drop((first, second));

    let third = run(src, Some(&dir), 1);
    assert_eq!(methods_json(&third), baseline);
    assert_eq!(
        fresh_proof_count(&third),
        0,
        "the last save holds every proof: {:?}",
        third.stats
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Two sessions in two threads save into one directory at once, round
/// after round. However the saves interleave, every run keeps the
/// baseline verdicts, and each reopen loads a whole snapshot, re-proving
/// nothing, or starts cold.
#[test]
fn concurrent_saves_leave_a_whole_snapshot_or_none() {
    let src = TINY;
    let baseline = methods_json(&run(src, None, 1));
    let dir = temp_dir("twowriters");
    for round in 0..24 {
        let _ = fs::remove_file(dir.join("proofs.bin"));
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let verifier = Config::builder()
                        .workers(1)
                        .cache_path(&dir)
                        .build_verifier();
                    barrier.wait();
                    let report = verifier.verify(src).expect("pipeline must complete");
                    assert_eq!(methods_json(&report), baseline, "round {round}");
                });
            }
        });
        let reopened = run(src, Some(&dir), 1);
        assert_eq!(methods_json(&reopened), baseline, "round {round}");
        let whole = fresh_proof_count(&reopened) == 0;
        let cold = stat(&reopened, "store.load.entries") == 0;
        assert!(
            whole || cold,
            "round {round}: part of a snapshot loaded: {:?}",
            reopened.stats
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An edit-and-recheck history: twenty sessions, each on the source of
/// the last plus one method with one new provable goal, leave exactly one
/// data file, and a last session replays every goal with no fresh proof.
#[test]
fn edit_history_leaves_one_snapshot() {
    let dir = temp_dir("history");
    let class = TINY.trim_end().strip_suffix('}').expect("class body");
    let mut methods = String::new();
    for k in 1..=20 {
        methods.push_str(&format!(
            r#"
   public static void add{k}()
   /*: requires "0 <= count" modifies count ensures "count = old count + {k}" */
   {{
      c = c + {k};
      //: count := "count + {k}";
   }}
"#
        ));
        let report = run(&format!("{class}{methods}}}"), Some(&dir), 1);
        assert!(
            fresh_proof_count(&report) > 0,
            "edit {k} proves its new goal: {:?}",
            report.stats
        );
        assert_eq!(files(&dir), ["proofs.bin"], "after edit {k}");
    }
    let last = run(&format!("{class}{methods}}}"), Some(&dir), 1);
    assert_eq!(
        fresh_proof_count(&last),
        0,
        "every goal replays: {:?}",
        last.stats
    );
    let _ = fs::remove_dir_all(&dir);
}
