//! The `jahob` binary's front door, pinned byte for byte against the
//! library.
//!
//! Each test runs the built binary and compares what it prints and the
//! JSONL stream it writes (`JAHOB_OBS`) with an in-process [`Verifier`]
//! session on the same input: stdout must be the session's
//! `report.to_json(ReportRender::STABLE)` plus a newline, and the stream,
//! with its wall-clock fields dropped, must be the session's events
//! through `Event::to_json(false)`. The `Event` enum is thus the one
//! schema of the stream: a line the binary writes that the typed
//! serializer would not write fails here.
//!
//! * **One-shot.** `jahob --json` at 1, 2 and 8 workers.
//! * **Cold and warm cache.** Two runs on one `JAHOB_CACHE` directory
//!   against an in-process session pair on a second directory.
//! * **Daemon.** `jahob serve`, one streaming `jahob submit`, concurrent
//!   warm submits, `status`, `drain`, and the daemon's own stream.
//! * **Unwritable stream.** One-shot and `submit` with `JAHOB_OBS` on
//!   `/dev/full` print their report and say on stderr that the stream is
//!   incomplete.

use jahob_repro::jahob::{Config, MemorySink, ReportRender, Verifier, VerifyReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const LIST: &str = "case_studies/list.javax";

/// The `jahob` binary with `args`, every `JAHOB_*` variable of this
/// process cleared: a test sets the ones it means with `Command::env`.
fn jahob(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jahob"));
    cmd.args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("JAHOB_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// A written JSONL stream, each line without its `,"micros":N` and
/// `,"workers":N` fields: exactly `Event::to_json(false)` of each event.
fn stable_stream(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .map(|line| {
            let mut line = line.to_owned();
            for field in [",\"micros\":", ",\"workers\":"] {
                if let Some(at) = line.find(field) {
                    let end = at + field.len();
                    let digits = line[end..].bytes().take_while(u8::is_ascii_digit).count();
                    line.replace_range(at..end + digits, "");
                }
            }
            line
        })
        .collect()
}

/// Run `cmd` to completion; it must exit 0. Returns its stdout.
fn stdout(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn jahob");
    assert!(
        out.status.success(),
        "{cmd:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `requests` verifications of list.javax on one in-process session
/// (persistent on `cache`, if given), and the whole stream it emitted,
/// read after the session is dropped so its store's last flush is in it.
fn session(cache: Option<&Path>, requests: usize) -> (Vec<VerifyReport>, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let verifier = Verifier::new(Config {
        workers: 1,
        cache_path: cache.map(Path::to_path_buf),
        sink: Some(sink.clone()),
        ..Config::default()
    });
    let src = fs::read_to_string(LIST).expect("case study");
    let reports = (0..requests)
        .map(|_| verifier.verify(&src).expect("pipeline"))
        .collect();
    drop(verifier);
    let stream = sink.events().iter().map(|e| e.to_json(false)).collect();
    (reports, stream)
}

/// What `jahob --json` prints for `report`.
fn json_stdout(report: &VerifyReport) -> String {
    report.to_json(ReportRender::STABLE) + "\n"
}

/// A fresh scratch directory for one test (socket paths are length-
/// limited, so keep it short).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jahob-fd-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A spawned `jahob serve`, killed if a failing test leaves it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
    }
}

/// Spawn `serve` (a `jahob serve --socket <socket>` command) and wait
/// until it binds `socket`.
fn bound(serve: &mut Command, socket: &Path) -> Daemon {
    let daemon = Daemon(
        serve
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn jahob serve"),
    );
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "the daemon never bound its socket");
    daemon
}

#[test]
fn one_shot_json_and_stream_match_the_library() {
    let dir = scratch("oneshot");
    let (reports, want_stream) = session(None, 1);
    let want = json_stdout(&reports[0]);
    for workers in ["1", "2", "8"] {
        let obs = dir.join(format!("run-{workers}.jsonl"));
        let got = stdout(
            jahob(&["--json", LIST])
                .env("JAHOB_OBS", &obs)
                .env("JAHOB_WORKERS", workers),
        );
        assert_eq!(got, want, "stdout at {workers} workers");
        assert_eq!(
            stable_stream(&obs),
            want_stream,
            "stream at {workers} workers"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_and_warm_cache_runs_match_the_library() {
    let dir = scratch("cache");
    let (binary_cache, library_cache) = (dir.join("binary"), dir.join("library"));
    let mut runs = Vec::new();
    for pass in ["cold", "warm"] {
        let obs = dir.join(format!("{pass}.jsonl"));
        let got = stdout(
            jahob(&["--json", LIST])
                .env("JAHOB_CACHE", &binary_cache)
                .env("JAHOB_OBS", &obs),
        );
        let (mut reports, want_stream) = session(Some(&library_cache), 1);
        let report = reports.pop().unwrap();
        assert_eq!(got, json_stdout(&report), "{pass} stdout");
        assert_eq!(stable_stream(&obs), want_stream, "{pass} stream");
        runs.push((report, want_stream));
    }
    let ((cold, cold_stream), (warm, _)) = (&runs[0], &runs[1]);
    assert!(
        cold_stream
            .iter()
            .any(|line| line.starts_with("{\"type\":\"store.flush\"")),
        "the cold run persists"
    );
    // The session's `store.*` and `cache.*` counters tally its stream,
    // which the binary's equals.
    let stat = |key: &str| warm.stats.get(key).copied().unwrap_or(0);
    assert!(
        stat("store.load.entries") > 0,
        "the warm run replays the store"
    );
    assert!(stat("cache.hit") > 0, "the warm run never hit the store");
    let methods = |r: &VerifyReport| -> Vec<String> {
        r.methods
            .iter()
            .map(|m| m.to_json(ReportRender::STABLE))
            .collect()
    };
    assert_eq!(
        methods(warm),
        methods(cold),
        "warm verdicts differ from cold"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn daemon_serves_the_one_shot_report_and_stream() {
    const CLIENTS: usize = 8;
    let dir = scratch("daemon");
    let socket = dir.join("d.sock");
    let socket_arg = socket.to_str().expect("utf-8 socket path");
    let (daemon_obs, client_obs) = (dir.join("daemon.jsonl"), dir.join("client.jsonl"));
    let mut serve = bound(
        jahob(&["serve", "--socket", socket_arg]).env("JAHOB_OBS", &daemon_obs),
        &socket,
    );

    // The reference: one in-process session serving the same requests in
    // order, a cold one and then CLIENTS warm ones.
    let (reports, joined) = session(None, 1 + CLIENTS);
    let (_, cold_stream) = session(None, 1);
    let submit = ["submit", "--socket", socket_arg, "--json", LIST];

    let cold = stdout(jahob(&submit).env("JAHOB_OBS", &client_obs));
    assert_eq!(
        cold,
        json_stdout(&reports[0]),
        "a cold submit prints the one-shot report"
    );
    assert_eq!(stable_stream(&client_obs), cold_stream, "client stream");

    let warm = json_stdout(&reports[1]);
    assert!(
        reports[1..].iter().all(|r| json_stdout(r) == warm),
        "every warm request reports alike, so the clients' order cannot matter"
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            jahob(&submit)
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn jahob submit")
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let out = client.wait_with_output().expect("wait for jahob submit");
        assert!(out.status.success(), "client {i}: {}", out.status);
        assert_eq!(String::from_utf8_lossy(&out.stdout), warm, "client {i}");
    }

    stdout(&mut jahob(&["status", "--socket", socket_arg]));
    stdout(&mut jahob(&["drain", "--socket", socket_arg]));
    let status = serve.0.wait().expect("wait for jahob serve");
    assert!(
        status.success(),
        "serve exits 0 after a drain, got {status}"
    );
    assert!(!socket.exists(), "a drained daemon removes its socket");

    let requests: Vec<String> = stable_stream(&daemon_obs)
        .into_iter()
        .filter(|line| !line.starts_with("{\"type\":\"service."))
        .collect();
    assert_eq!(
        requests, joined,
        "the daemon stream without service.* lines"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_stream_is_reported_by_one_shot_and_submit() {
    let dir = scratch("full");
    let socket = dir.join("d.sock");
    let socket_arg = socket.to_str().expect("utf-8 socket path");
    let _serve = bound(&mut jahob(&["serve", "--socket", socket_arg]), &socket);
    let (reports, _) = session(None, 1);
    let want = json_stdout(&reports[0]);
    for args in [
        vec!["--json", LIST],
        vec!["submit", "--socket", socket_arg, "--json", LIST],
    ] {
        let out = jahob(&args)
            .env("JAHOB_OBS", "/dev/full")
            .output()
            .expect("spawn jahob");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{args:?}");
        assert!(
            stderr.contains("[obs] JSONL sink") && stderr.contains("stream is incomplete"),
            "{args:?} must report the lost stream, stderr: {stderr:?}"
        );
    }
    stdout(&mut jahob(&["drain", "--socket", socket_arg]));
    let _ = fs::remove_dir_all(&dir);
}
