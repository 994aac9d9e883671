//! The command-line front door of the `jahob` binary.
//!
//! This module is the one grammar the binary parses, the one place flags
//! are layered over the environment (everything resolves exactly once,
//! inside [`Config::builder`]), and the one exit-code ladder:
//!
//! * `0` — a completed run (whatever the verdicts);
//! * `1` — a pipeline error (parse/resolve) or a broken daemon
//!   conversation;
//! * `2` — unusable arguments, an unreadable input/output path, a
//!   refused connection, or a BUSY admission refusal — always with a
//!   diagnosed message, never a panic.
//!
//! Subcommands (first argument): `verify` (implicit when the first
//! argument is a path), `serve`, `submit`, `status`, `drain`. Each
//! accepts exactly the flags it uses; any other flag is an error, never
//! silently dropped.

use crate::service::{self, Client, Service, SubmitOptions, SubmitOutcome};
use crate::verify::{Config, ReportRender, RequestOptions, Verifier, VerifyReport};
use jahob_util::obs::JsonlSink;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// How a report is rendered: the human-readable table, stable JSON, or
/// JSON with wall-clock fields. The one switch behind `--json` /
/// `--json-timing`, carried verbatim over the daemon's wire protocol so
/// `jahob submit` output is byte-identical to `jahob verify`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputMode {
    #[default]
    Human,
    Json,
    JsonTiming,
}

impl OutputMode {
    /// The [`ReportRender`] options for the JSON modes (`None` = human).
    pub fn render(self) -> Option<ReportRender> {
        match self {
            OutputMode::Human => None,
            OutputMode::Json => Some(ReportRender::STABLE),
            OutputMode::JsonTiming => Some(ReportRender::TIMING),
        }
    }
}

/// The parsed flags of any subcommand; [`parse`] only fills the ones the
/// subcommand accepts.
#[derive(Clone, Debug, Default)]
pub struct CommonOpts {
    pub output: OutputMode,
    /// `--socket PATH`; unset defers to `JAHOB_SOCKET` in the builder.
    pub socket: Option<PathBuf>,
    /// `--deadline-ms N`: per-obligation wall-clock ceiling for this
    /// request (one-shot and daemon submissions alike).
    pub deadline: Option<Duration>,
}

/// What the invocation asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// One-shot verification of a file (the implicit default).
    Verify { path: String },
    /// Run the persistent verification daemon.
    Serve,
    /// Submit a file to a running daemon.
    Submit { path: String },
    /// Probe a running daemon's queue state.
    Status,
    /// Ask a running daemon to finish admitted work and exit.
    Drain,
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Invocation {
    pub command: Command,
    pub opts: CommonOpts,
}

/// The flags `subcommand` uses — exactly the ones it reads, so a flag
/// that would have no effect is rejected instead of silently dropped.
/// `serve` takes no report or deadline flags because each `submit`
/// chooses those per request.
fn flags_for(subcommand: &str) -> &'static [&'static str] {
    match subcommand {
        "verify" => &["--json", "--json-timing", "--deadline-ms"],
        "submit" => &["--socket", "--json", "--json-timing", "--deadline-ms"],
        _ => &["--socket"],
    }
}

/// Parse `args` (program name already stripped). `Err` carries the
/// diagnosis for [`usage`].
pub fn parse(args: Vec<String>) -> Result<Invocation, String> {
    let mut iter = args.into_iter().peekable();
    // The subcommand is the first argument, git-style; anything else —
    // a flag or a path — falls through to the implicit `verify`.
    let word = match iter.peek().map(String::as_str) {
        Some(w @ ("verify" | "serve" | "submit" | "status" | "drain")) => {
            let w = w.to_owned();
            iter.next();
            w
        }
        _ => "verify".to_owned(),
    };

    let mut opts = CommonOpts::default();
    let mut path = None;
    while let Some(arg) = iter.next() {
        if !arg.starts_with("--") {
            if path.is_some() {
                return Err(format!("unexpected argument `{arg}`"));
            }
            path = Some(arg);
            continue;
        }
        // A flag that takes a value reads it as `--flag=value` or as the
        // next argument; a flag that takes none accepts neither.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_owned())),
            None => (arg.as_str(), None),
        };
        let known = ["verify", "serve", "submit"]
            .iter()
            .any(|sub| flags_for(sub).contains(&flag));
        if !known {
            return Err(format!("unknown flag `{flag}`"));
        }
        if !flags_for(&word).contains(&flag) {
            return Err(format!("`{word}` does not take `{flag}`"));
        }
        let value = match (flag, inline) {
            ("--socket" | "--deadline-ms", inline) => inline.or_else(|| iter.next()),
            (_, Some(_)) => return Err(format!("`{flag}` takes no value")),
            (_, None) => None,
        };
        match flag {
            "--json" => opts.output = OutputMode::Json,
            "--json-timing" => opts.output = OutputMode::JsonTiming,
            "--socket" => match value {
                Some(p) => opts.socket = Some(PathBuf::from(p)),
                None => return Err("--socket needs a path".into()),
            },
            _ => match value.as_deref().map(str::parse::<u64>) {
                Some(Ok(ms)) if ms > 0 => opts.deadline = Some(Duration::from_millis(ms)),
                _ => return Err("--deadline-ms needs a positive integer".into()),
            },
        }
    }

    let command = match (word.as_str(), path) {
        // `verify`/`submit` take the remaining positional as the file.
        ("verify", Some(path)) => Command::Verify { path },
        ("submit", Some(path)) => Command::Submit { path },
        ("verify" | "submit", None) => return Err("no input file".into()),
        (_, Some(stray)) => return Err(format!("unexpected argument `{stray}`")),
        ("serve", None) => Command::Serve,
        ("status", None) => Command::Status,
        _ => Command::Drain,
    };
    Ok(Invocation { command, opts })
}

/// Diagnose a bad invocation onto stderr and return the ladder's `2`.
pub fn usage(program: &str, why: &str) -> ExitCode {
    eprintln!("{program}: {why}");
    eprintln!(
        "usage: {program} [verify] [--json|--json-timing] [--deadline-ms N] \
         <file.javax>\n       \
         {program} serve  [--socket <path>]\n       \
         {program} submit [--socket <path>] [--json|--json-timing] \
         [--deadline-ms N] <file.javax>\n       \
         {program} status|drain [--socket <path>]"
    );
    ExitCode::from(2)
}

/// Build the front-door [`Config`]: flags layered over the environment,
/// everything resolved exactly once inside [`Config::builder`].
///
/// `program` prefixes the diagnosis of an unwritable `JAHOB_OBS` path,
/// which costs the run its event stream and never blocks verification.
pub fn build_config(program: &str, opts: &CommonOpts) -> Config {
    let mut builder = Config::builder();
    if let Some(socket) = &opts.socket {
        builder = builder.socket(socket.clone());
    }
    if let Ok(obs_path) = std::env::var("JAHOB_OBS") {
        match JsonlSink::create(std::path::Path::new(&obs_path)) {
            Ok(sink) => builder = builder.sink(Arc::new(sink)),
            Err(e) => {
                // An unwritable telemetry path must not block
                // verification — diagnose and run without the stream.
                eprintln!("{program}: cannot create JAHOB_OBS file `{obs_path}`: {e}");
            }
        }
    }
    builder.build()
}

/// The human-readable report: the verdict table plus the session
/// summary line(s). One renderer for the one-shot CLI and the daemon's
/// human-mode REPORT frames, so both read identically.
pub fn human_report(report: &VerifyReport, verifier: &Verifier) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{report}");
    let get = |k: &str| report.stats.get(k).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "workers: {}; goal cache: {} hit / {} miss",
        verifier.config().effective_workers(),
        get("cache.hit"),
        get("cache.miss")
    );
    if verifier.goal_cache().is_some_and(|c| c.is_persistent()) {
        let _ = writeln!(
            out,
            "persistent cache: {} loaded, {} flushed",
            get("store.load.entries"),
            get("store.flush.records")
        );
    }
    out
}

/// Render `report` for `output` — the exact text the one-shot CLI
/// prints and the daemon ships in its final REPORT frame.
pub fn render_report(report: &VerifyReport, verifier: &Verifier, output: OutputMode) -> String {
    match output.render() {
        Some(render) => {
            let mut text = report.to_json(render);
            text.push('\n');
            text
        }
        None => human_report(report, verifier),
    }
}

/// One-shot verification: read, build a session, verify, render, exit
/// through the ladder. The body behind `jahob verify`.
pub fn run_verify(program: &str, path: &str, opts: &CommonOpts) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("{program}: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let verifier = Verifier::new(build_config(program, opts));
    let request = RequestOptions {
        deadline: opts.deadline,
        ..RequestOptions::default()
    };
    match verifier.verify_with(&src, &request) {
        Ok(r) => {
            print!("{}", render_report(&r, &verifier, opts.output));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipeline error: {e}");
            ExitCode::from(1)
        }
    }
}

/// `jahob serve`: bind the socket, serve until drained (by a DRAIN
/// frame or SIGTERM/SIGINT), exit 0 after a graceful drain.
pub fn run_serve(program: &str, opts: &CommonOpts) -> ExitCode {
    let config = build_config(program, opts);
    if config.socket.is_none() {
        return usage(program, "serve needs --socket <path> or JAHOB_SOCKET");
    }
    service::install_termination_handler();
    let service = match Service::bind(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("{program}: cannot serve: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("{program}: serving on {}", service.socket_path().display());
    match service.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{program}: service failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// `jahob submit`: ship a file to a running daemon and print what it
/// returns. With `JAHOB_OBS=<path>`, the daemon streams the request's
/// JSONL event lines and they are written to `<path>` client-side —
/// the same stream a one-shot run would have written.
pub fn run_submit(program: &str, path: &str, opts: &CommonOpts) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("{program}: cannot read `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(socket) = build_config(program, opts).socket else {
        return usage(program, "submit needs --socket <path> or JAHOB_SOCKET");
    };
    let obs = match std::env::var("JAHOB_OBS") {
        Ok(obs_path) => match JsonlSink::create(std::path::Path::new(&obs_path)) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("{program}: cannot create JAHOB_OBS file `{obs_path}`: {e}");
                None
            }
        },
        Err(_) => None,
    };
    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("{program}: cannot connect to `{}`: {e}", socket.display());
            return ExitCode::from(2);
        }
    };
    let options = SubmitOptions {
        output: opts.output,
        stream_obs: obs.is_some(),
        stable_obs: false,
        deadline: opts.deadline,
    };
    let outcome = client.submit(&src, &options, |line| {
        if let Some(obs) = &obs {
            obs.write_line(line);
        }
    });
    // Dropping the sink flushes it, reporting a failure as a one-shot
    // run's sink does.
    drop(obs);
    match outcome {
        Ok(SubmitOutcome::Report(text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Ok(SubmitOutcome::PipelineError(message)) => {
            eprintln!("pipeline error: {message}");
            ExitCode::from(1)
        }
        Ok(SubmitOutcome::Busy {
            queued,
            depth,
            draining,
        }) => {
            eprintln!(
                "{program}: daemon busy (queue {queued}/{depth}{}), try again",
                if draining { ", draining" } else { "" }
            );
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("{program}: daemon conversation failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// `jahob status`: one line of queue state from a running daemon.
pub fn run_status(program: &str, opts: &CommonOpts) -> ExitCode {
    let Some(socket) = build_config(program, opts).socket else {
        return usage(program, "status needs --socket <path> or JAHOB_SOCKET");
    };
    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("{program}: cannot connect to `{}`: {e}", socket.display());
            return ExitCode::from(2);
        }
    };
    match client.status() {
        Ok(s) => {
            println!(
                "queue {}/{} ({} in flight){}; accepted {}, completed {}, rejected {}",
                s.queued,
                s.depth,
                s.in_flight,
                if s.draining { "; draining" } else { "" },
                s.accepted,
                s.completed,
                s.rejected
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{program}: daemon conversation failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// `jahob drain`: ask the daemon to finish admitted work and exit.
/// Returns once the daemon acknowledges the drain is complete.
pub fn run_drain(program: &str, opts: &CommonOpts) -> ExitCode {
    let Some(socket) = build_config(program, opts).socket else {
        return usage(program, "drain needs --socket <path> or JAHOB_SOCKET");
    };
    let mut client = match Client::connect(&socket) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("{program}: cannot connect to `{}`: {e}", socket.display());
            return ExitCode::from(2);
        }
    };
    match client.drain() {
        Ok(completed) => {
            println!("drained; {completed} request(s) completed over the daemon's lifetime");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{program}: daemon conversation failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn implicit_verify_with_flags() {
        let inv = parse(args(&["--json", "x.javax"])).unwrap();
        assert_eq!(
            inv.command,
            Command::Verify {
                path: "x.javax".into()
            }
        );
        assert_eq!(inv.opts.output, OutputMode::Json);
    }

    #[test]
    fn subcommands_parse() {
        assert_eq!(
            parse(args(&["serve", "--socket", "/tmp/s"]))
                .unwrap()
                .command,
            Command::Serve
        );
        let inv = parse(args(&["submit", "--socket=/tmp/s", "a.javax"])).unwrap();
        assert_eq!(
            inv.command,
            Command::Submit {
                path: "a.javax".into()
            }
        );
        assert_eq!(
            inv.opts.socket.as_deref(),
            Some(std::path::Path::new("/tmp/s"))
        );
        assert_eq!(parse(args(&["status"])).unwrap().command, Command::Status);
        assert_eq!(parse(args(&["drain"])).unwrap().command, Command::Drain);
        for argv in [
            &["verify", "--deadline-ms", "250", "a.javax"][..],
            &["verify", "--deadline-ms=250", "a.javax"],
        ] {
            let inv = parse(args(argv)).unwrap();
            assert_eq!(inv.opts.deadline, Some(Duration::from_millis(250)));
        }
    }

    #[test]
    fn bad_invocations_diagnose() {
        assert!(parse(args(&[])).is_err());
        assert!(parse(args(&["serve", "stray.javax"])).is_err());
        assert!(parse(args(&["submit"])).is_err());
        assert!(parse(args(&["--deadline-ms", "zero", "x.javax"])).is_err());
        assert!(parse(args(&["a.javax", "b.javax"])).is_err());
        assert!(parse(args(&["--frobnicate", "x.javax"])).is_err());
        for (arg, flag) in [("--json=1", "--json"), ("--json-timing=1", "--json-timing")] {
            let why = parse(args(&[arg, "x.javax"])).unwrap_err();
            assert_eq!(why, format!("`{flag}` takes no value"));
        }
    }

    #[test]
    fn flags_a_subcommand_does_not_use_are_rejected() {
        for bad in [
            &["status", "--json"][..],
            &["drain", "--deadline-ms", "5"],
            &["serve", "--socket", "s", "--json"],
            &["serve", "--socket", "s", "--json-timing"],
            &["serve", "--socket", "s", "--deadline-ms", "5"],
            &["verify", "--socket", "s", "x.javax"],
            &["--socket=s", "x.javax"],
        ] {
            let why = parse(args(bad)).expect_err(&format!("{bad:?} must be rejected"));
            assert!(why.contains("does not take"), "{bad:?}: {why}");
        }
    }

    #[test]
    fn racing_adaptive_and_slicing_are_unknown_flags() {
        for name in ["racing", "adaptive", "slicing", "isolation"] {
            let flag = format!("--{name}");
            let flag = flag.as_str();
            for bad in [&[flag, "x.javax"][..], &["serve", flag, "--socket", "s"]] {
                let why = parse(args(bad)).expect_err(&format!("{bad:?} must be rejected"));
                assert_eq!(why, format!("unknown flag `{flag}`"));
            }
        }
    }

    #[test]
    fn output_modes_map_to_render() {
        assert_eq!(OutputMode::Human.render(), None);
        assert_eq!(OutputMode::Json.render(), Some(ReportRender::STABLE));
        assert_eq!(OutputMode::JsonTiming.render(), Some(ReportRender::TIMING));
    }
}
