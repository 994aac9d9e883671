//! The persistent verification service (ISSUE 9).
//!
//! Five pins:
//!
//! * **Identity.** Verdicts and canonical event streams through the
//!   daemon are bit-for-bit identical to one-shot session runs — for
//!   every case study, at 1, 2, and 8 workers, cold and warm, and under
//!   concurrent clients.
//! * **Typed load-shedding.** A full admission queue answers BUSY with
//!   the queue depth; every *accepted* request is answered with a final
//!   report — accepted work is never dropped.
//! * **Graceful drain.** A DRAIN frame or SIGTERM finishes all admitted
//!   work, flushes, removes the socket file, and exits 0.
//! * **Socket chaos.** Every `SocketFault` kind at every `service.*`
//!   site degrades to at worst a dropped connection — a retrying client
//!   always lands the identical report, and the daemon keeps serving.
//! * **Codec integrity.** Property tests: frames round-trip, and no
//!   truncation or single-bit corruption ever parses back.

use jahob_repro::jahob::cli::OutputMode;
use jahob_repro::jahob::{
    Client, Config, Fault, FaultPlan, MemorySink, ReportRender, RequestOptions, Service,
    SocketFault, SubmitOptions, SubmitOutcome, Verifier,
};
use jahob_repro::util::ipc::{
    self, kind, read_frame, write_frame, Frame, Writer, DEFAULT_MAX_FRAME,
};
use proptest::prelude::*;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const JAHOB_BIN: &str = env!("CARGO_BIN_EXE_jahob");

const CASE_STUDIES: [&str; 5] = [
    "case_studies/list.javax",
    "case_studies/client.javax",
    "case_studies/assoclist.javax",
    "case_studies/globalset.javax",
    "case_studies/game.javax",
];

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

fn fixture(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A socket path in a fresh temp dir (Unix socket paths are
/// length-limited, so keep it short).
fn socket_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jahob-svc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("d.sock")
}

fn service_config(workers: usize, socket: &Path) -> Config {
    Config {
        workers,
        socket: Some(socket.to_path_buf()),
        ..Config::default()
    }
}

/// Start a service and run its accept loop on a background thread.
/// Returns a handle that panics if the loop errored.
fn spawn_service(config: Config) -> (PathBuf, std::thread::JoinHandle<()>) {
    let service = Service::bind(config).expect("bind");
    let path = service.socket_path().to_path_buf();
    let handle = std::thread::spawn(move || service.run().expect("service run"));
    (path, handle)
}

/// The canonical form of a streamed (stable-rendered) event line: drop
/// the schedule-dependent families, exactly as
/// `Event::is_schedule_dependent` defines them.
fn is_canonical_line(line: &str) -> bool {
    let ty = line
        .strip_prefix("{\"type\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("unparseable event line: {line}"));
    !ty.starts_with("service.")
}

/// One-shot reference for request `k` of a session: the report JSON
/// (stable render) and the canonical event stream.
fn reference_run(verifier: &Verifier, src: &str) -> (String, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let options = RequestOptions {
        sink: Some(sink.clone() as Arc<dyn jahob_repro::jahob::Sink>),
        ..RequestOptions::default()
    };
    let report = verifier.verify_with(src, &options).expect("pipeline");
    let stream = sink
        .events()
        .iter()
        .filter(|ev| !ev.is_schedule_dependent())
        .map(|ev| ev.to_json(false))
        .collect();
    (report.to_json(ReportRender::STABLE), stream)
}

/// Submit through the daemon asking for the stable stream; returns the
/// report JSON (stripped of the render's trailing newline) and the
/// canonical stream.
fn daemon_run(client: &mut Client, src: &str) -> (String, Vec<String>) {
    let mut lines = Vec::new();
    let outcome = client
        .submit(
            src,
            &SubmitOptions {
                output: OutputMode::Json,
                stream_obs: true,
                stable_obs: true,
                deadline: None,
            },
            |line| lines.push(line.to_owned()),
        )
        .expect("submit");
    let SubmitOutcome::Report(text) = outcome else {
        panic!("expected a report, got {outcome:?}");
    };
    lines.retain(|l| is_canonical_line(l));
    (text.trim_end().to_owned(), lines)
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// The tentpole invariant: for every case study, at every worker count,
/// cold and warm, the daemon's report and canonical stream are
/// bit-for-bit the session's. The reference session runs the same
/// request sequence, because a warm session legitimately attributes
/// replayed goals to its cache.
#[test]
fn daemon_matches_one_shot_cold_and_warm_across_worker_counts() {
    for workers in WORKER_MATRIX {
        let socket = socket_path(&format!("ident{workers}"));
        let (path, handle) = spawn_service(service_config(workers, &socket));
        let reference = Verifier::new(Config {
            workers,
            ..Config::default()
        });
        let mut client = Client::connect(&path).expect("connect");
        // Two passes over the corpus: pass one is cold per fixture,
        // pass two replays warm out of the shared session cache.
        for pass in ["cold", "warm"] {
            for case in CASE_STUDIES {
                let src = fixture(case);
                let (want_report, want_stream) = reference_run(&reference, &src);
                let (got_report, got_stream) = daemon_run(&mut client, &src);
                assert_eq!(
                    got_report, want_report,
                    "{case} ({pass}, {workers} workers): daemon report diverged"
                );
                assert_eq!(
                    got_stream, want_stream,
                    "{case} ({pass}, {workers} workers): daemon stream diverged"
                );
            }
        }
        client.drain().expect("drain");
        handle.join().unwrap();
        assert!(!path.exists(), "drained daemon must remove its socket");
    }
}

/// Concurrent clients: with the goal cache off every request is
/// independent, so all interleavings must produce the one-shot answer
/// exactly — fairness and queueing may reorder work but never change
/// it.
#[test]
fn concurrent_clients_all_get_the_one_shot_answer() {
    let socket = socket_path("conc");
    let config = Config {
        workers: 2,
        goal_cache: false,
        queue_depth: 64,
        socket: Some(socket.clone()),
        ..Config::default()
    };
    let (path, handle) = spawn_service(config);
    let reference = Verifier::new(Config {
        workers: 2,
        goal_cache: false,
        ..Config::default()
    });
    let expected: Vec<(String, (String, Vec<String>))> = CASE_STUDIES
        .iter()
        .map(|case| {
            let src = fixture(case);
            let want = reference_run(&reference, &src);
            (src, want)
        })
        .collect();
    let expected = Arc::new(expected);
    let mut joins = Vec::new();
    for n in 0..8usize {
        let path = path.clone();
        let expected = Arc::clone(&expected);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&path).expect("connect");
            // Stagger starting points so lanes genuinely interleave.
            for i in 0..expected.len() {
                let (src, (want_report, want_stream)) = &expected[(n + i) % expected.len()];
                let (got_report, got_stream) = daemon_run(&mut client, src);
                assert_eq!(&got_report, want_report, "client {n}: report diverged");
                assert_eq!(&got_stream, want_stream, "client {n}: stream diverged");
            }
        }));
    }
    for join in joins {
        join.join().unwrap();
    }
    let mut client = Client::connect(&path).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(status.accepted, 8 * CASE_STUDIES.len() as u64);
    assert_eq!(status.completed, status.accepted);
    client.drain().expect("drain");
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Overflow sheds with a typed BUSY carrying the bound, and every
/// accepted request still gets its final report: replies partition
/// exactly into FINAL (= accepted) and BUSY (= rejected).
#[test]
fn queue_overflow_sheds_busy_and_never_drops_accepted_work() {
    let socket = socket_path("busy");
    let config = Config {
        queue_depth: 1,
        socket: Some(socket.clone()),
        ..Config::default()
    };
    let (path, handle) = spawn_service(config);
    let src = fixture("case_studies/list.javax");

    // Raw pipelining: fire 8 SUBMITs without waiting for replies, so
    // later ones land while earlier ones are still admitted.
    let mut stream = UnixStream::connect(&path).expect("connect");
    let mut w = Writer::new();
    w.put_u8(0); // no obs streaming
    w.put_u8(1); // json
    w.put_u64(0); // no deadline
    w.put_str(&src);
    let payload = w.into_vec();
    const BURST: usize = 8;
    for _ in 0..BURST {
        write_frame(&mut stream, &Frame::new(kind::SUBMIT, payload.clone())).unwrap();
    }
    let mut finals = Vec::new();
    let mut busy = 0usize;
    for _ in 0..BURST {
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("reply");
        match frame.kind {
            kind::REPORT => {
                let mut r = ipc::Reader::new(&frame.payload);
                assert_eq!(r.get_u8().unwrap(), 1, "expected a FINAL report tag");
                finals.push(r.get_str().unwrap().to_owned());
            }
            kind::BUSY => {
                let mut r = ipc::Reader::new(&frame.payload);
                let queued = r.get_u32().unwrap();
                let depth = r.get_u32().unwrap();
                let draining = r.get_u8().unwrap();
                assert_eq!(depth, 1, "BUSY must carry the configured bound");
                assert!(queued >= 1, "BUSY must report a full queue");
                assert_eq!(draining, 0);
                busy += 1;
            }
            other => panic!("unexpected reply kind {other}"),
        }
    }
    assert!(
        !finals.is_empty(),
        "the first submission is always admitted"
    );
    assert!(busy >= 1, "a depth-1 queue under an 8-deep burst must shed");
    assert_eq!(finals.len() + busy, BURST);
    // Every admitted request produced the same completed report.
    for text in &finals {
        assert_eq!(text, &finals[0]);
    }
    drop(stream);
    let mut client = Client::connect(&path).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(status.accepted as usize, finals.len());
    assert_eq!(status.completed as usize, finals.len());
    assert_eq!(status.rejected as usize, busy);
    client.drain().expect("drain");
    handle.join().unwrap();
}

/// A draining daemon refuses new work with BUSY (draining flag set)
/// but finishes everything admitted before the drain began.
#[test]
fn drain_finishes_admitted_work_and_refuses_new() {
    let socket = socket_path("drain");
    let config = Config {
        queue_depth: 16,
        socket: Some(socket.clone()),
        ..Config::default()
    };
    let (path, handle) = spawn_service(config);
    let src = fixture("case_studies/assoclist.javax");

    // Pipeline three requests, then drain from a second connection
    // before reading any reply.
    let mut stream = UnixStream::connect(&path).expect("connect");
    let mut w = Writer::new();
    w.put_u8(0);
    w.put_u8(1);
    w.put_u64(0);
    w.put_str(&src);
    let payload = w.into_vec();
    for _ in 0..3 {
        write_frame(&mut stream, &Frame::new(kind::SUBMIT, payload.clone())).unwrap();
    }
    let mut drainer = Client::connect(&path).expect("connect");
    // Wait until all three are admitted, so the drain genuinely has
    // queued/in-flight work to finish (admission is asynchronous).
    for _ in 0..200 {
        if drainer.status().expect("status").accepted >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let completed = drainer.drain().expect("drain ack");
    assert!(
        completed >= 3,
        "drain acked with {completed} completed; the 3 admitted requests must finish first"
    );
    // All three reports are there to read even after the drain ack.
    for _ in 0..3 {
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("reply");
        assert_eq!(frame.kind, kind::REPORT);
        assert_eq!(frame.payload[0], 1, "expected FINAL report tag");
    }
    handle.join().unwrap();
    assert!(!path.exists());
    // New submissions against the drained daemon fail to connect.
    assert!(Client::connect(&path).is_err());
}

// ---------------------------------------------------------------------------
// The binary: SIGTERM drain
// ---------------------------------------------------------------------------

/// `kill -TERM` on `jahob serve` finishes in-flight work, answers it,
/// removes the socket, and exits 0.
#[test]
fn sigterm_drains_the_serve_binary_and_exits_zero() {
    let socket = socket_path("term");
    let mut child = std::process::Command::new(JAHOB_BIN)
        .args(["serve", "--socket"])
        .arg(&socket)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    // Wait for the socket to come up.
    let mut stream = None;
    for _ in 0..200 {
        match UnixStream::connect(&socket) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("daemon never bound its socket");

    // Pipeline work, then SIGTERM while it is (at least partly) queued.
    let src = fixture("case_studies/globalset.javax");
    let mut w = Writer::new();
    w.put_u8(0);
    w.put_u8(1);
    w.put_u64(0);
    w.put_str(&src);
    let payload = w.into_vec();
    for _ in 0..3 {
        write_frame(&mut stream, &Frame::new(kind::SUBMIT, payload.clone())).unwrap();
    }
    // Make sure all three are admitted before the signal lands, so the
    // drain has real work to finish.
    let mut prober = Client::connect(&socket).expect("probe connect");
    for _ in 0..200 {
        if prober.status().expect("status").accepted >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill");
    assert!(term.success());
    // Admitted work is still answered after the signal.
    for _ in 0..3 {
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("reply after SIGTERM");
        assert_eq!(frame.kind, kind::REPORT);
        assert_eq!(frame.payload[0], 1, "expected FINAL report tag");
    }
    let status = child.wait().expect("wait");
    assert!(
        status.success(),
        "SIGTERM must exit 0 after a graceful drain, got {status:?}"
    );
    assert!(!socket.exists(), "drained daemon must remove its socket");
    // The connection is closed once the daemon is gone.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
}

// ---------------------------------------------------------------------------
// Socket chaos
// ---------------------------------------------------------------------------

/// Every socket fault at every service site costs at most the faulted
/// connection: a retrying client always lands the bit-identical
/// report, the daemon's queue never wedges, and it still drains
/// cleanly.
#[test]
fn socket_faults_cost_one_connection_and_never_flip_a_verdict() {
    let src = fixture("case_studies/list.javax");
    // Cache off on both sides: a write-site fault can tear the *reply*
    // of a completed request, and the retry would then legitimately
    // replay warm (different cache attribution in stats). Independent
    // requests make "bit-identical report" the honest comparison.
    let reference = Verifier::new(Config {
        goal_cache: false,
        ..Config::default()
    });
    let want = reference
        .verify(&src)
        .expect("pipeline")
        .to_json(ReportRender::STABLE);
    let faults = [
        SocketFault::TornFrame,
        SocketFault::HungClient,
        SocketFault::Disconnect,
        SocketFault::SlowReader,
    ];
    for site in ["service.accept", "service.read", "service.write"] {
        for fault in faults {
            let socket = socket_path(&format!(
                "chaos-{}-{fault}",
                site.rsplit('.').next().unwrap()
            ));
            let plan = FaultPlan::quiet().inject(site, 0..2, Fault::Socket(fault));
            let config = Config::builder()
                .socket(socket.clone())
                .goal_cache(false)
                .fault_plan(Arc::new(plan))
                .build();
            let (path, handle) = spawn_service(config);
            // The first attempts may die to the injected fault; a fresh
            // connection must eventually get the identical report.
            let mut report = None;
            for _attempt in 0..20 {
                let Ok(mut client) = Client::connect(&path) else {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                match client.submit(
                    &src,
                    &SubmitOptions {
                        output: OutputMode::Json,
                        ..SubmitOptions::default()
                    },
                    |_| {},
                ) {
                    Ok(SubmitOutcome::Report(text)) => {
                        report = Some(text.trim_end().to_owned());
                        break;
                    }
                    // A torn/dropped connection is a loud transport
                    // error — never a fabricated verdict.
                    Ok(other) => panic!("{site}/{fault}: unexpected outcome {other:?}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
            let report = report
                .unwrap_or_else(|| panic!("{site}/{fault}: no successful submit in 20 tries"));
            assert_eq!(
                report, want,
                "{site}/{fault}: the daemon's report diverged under chaos"
            );
            // The daemon is still healthy and drains cleanly.
            let mut client = Client::connect(&path).expect("post-chaos connect");
            client.drain().expect("post-chaos drain");
            handle.join().unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// A stale socket file (crashed daemon) is reclaimed; a live daemon on
/// the path is refused.
#[test]
fn stale_sockets_are_reclaimed_and_live_daemons_are_not() {
    let socket = socket_path("stale");
    std::fs::write(&socket, b"stale").unwrap();
    let (path, handle) = spawn_service(service_config(1, &socket));
    let second = Service::bind(service_config(1, &socket));
    let err = second.err().expect("binding over a live daemon must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    let mut client = Client::connect(&path).expect("connect");
    client.drain().expect("drain");
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn frames_round_trip(kind in 0u8..255, payload in proptest::collection::vec(0u8..255, 0..512)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(kind, payload.clone())).expect("write");
        let got = read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).expect("round trip");
        prop_assert_eq!(got.kind, kind);
        prop_assert_eq!(got.payload, payload);
    }

    #[test]
    fn truncated_frames_never_parse(kind in 0u8..255, payload in proptest::collection::vec(0u8..255, 0..256), keep in 0usize..1000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(kind, payload)).expect("write");
        let keep = keep % buf.len();
        prop_assert!(
            read_frame(&mut &buf[..keep], DEFAULT_MAX_FRAME).is_err(),
            "a {keep}-byte prefix of a {}-byte frame parsed",
            buf.len()
        );
    }

    #[test]
    fn single_bit_corruption_is_always_rejected(kind in 0u8..255, payload in proptest::collection::vec(0u8..255, 0..256), flip in 0usize..100_000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(kind, payload)).expect("write");
        let bit = flip % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).is_err(),
            "bit {bit} flipped and the frame still parsed"
        );
    }
}
