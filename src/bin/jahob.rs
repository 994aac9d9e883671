//! The `jahob` command-line front end.
//!
//! ```sh
//! jahob case_studies/list.javax
//! jahob --json case_studies/list.javax
//! jahob --deadline-ms 10000 case_studies/list.javax
//! jahob serve --socket /tmp/jahob.sock &
//! jahob submit --socket /tmp/jahob.sock case_studies/list.javax
//! jahob status --socket /tmp/jahob.sock
//! jahob drain --socket /tmp/jahob.sock
//! ```
//!
//! Subcommands (the first argument; a path or flag falls through to the
//! implicit `verify`):
//!
//! * `verify <file>` — one-shot verification in this process;
//!   `--deadline-ms N` bounds each obligation.
//! * `serve` — the persistent verification daemon: one warm session
//!   (goal cache, persistent store) shared across every client of a
//!   Unix-domain socket, with a bounded admission queue and graceful
//!   drain on SIGTERM.
//! * `submit <file>` — ship a file to a running daemon; prints exactly
//!   what `verify` would, and with `JAHOB_OBS=<path>` writes the
//!   request's streamed JSONL event lines client-side.
//! * `status` / `drain` — probe or gracefully stop a running daemon.
//!
//! The grammar, environment layering, and exit-code ladder live in
//! [`jahob::cli`], shared with the `verify_file` example and the
//! daemon's own rendering: `0` on a completed run (whatever the
//! verdicts), `1` on a pipeline error or broken daemon conversation,
//! `2` on unusable arguments, unreadable paths, a refused connection,
//! or a BUSY admission refusal — always diagnosed, never a panic.
use jahob::cli::{self, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let program = "jahob";
    let invocation = match cli::parse(std::env::args().skip(1).collect()) {
        Ok(invocation) => invocation,
        Err(why) => return cli::usage(program, &why, true),
    };
    match &invocation.command {
        Command::Verify { path } => cli::run_verify(program, path, &invocation.opts),
        Command::Serve => cli::run_serve(program, &invocation.opts),
        Command::Submit { path } => cli::run_submit(program, path, &invocation.opts),
        Command::Status => cli::run_status(program, &invocation.opts),
        Command::Drain => cli::run_drain(program, &invocation.opts),
    }
}
