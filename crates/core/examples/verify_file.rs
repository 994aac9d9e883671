//! End-to-end driver: verify a `.javax` file through the [`jahob::cli`]
//! front door — the same grammar, environment layering, rendering, and
//! exit-code ladder as `jahob verify`, minus the daemon subcommands.
//!
//! ```sh
//! cargo run -p jahob --example verify_file -- case_studies/list.javax
//! cargo run -p jahob --example verify_file -- --json case_studies/list.javax
//! cargo run -p jahob --example verify_file -- --deadline-ms 10000 case_studies/list.javax
//! JAHOB_OBS=run.jsonl cargo run -p jahob --example verify_file -- case_studies/list.javax
//! ```
//!
//! The flags and environment variables are documented on
//! [`jahob::Config`] and in the `jahob` binary; everything resolves
//! exactly once inside `Config::builder`.
use jahob::cli::{self, Command};
use std::process::ExitCode;

fn main() -> ExitCode {
    let program = "verify_file";
    let invocation = match cli::parse(std::env::args().skip(1).collect()) {
        Ok(invocation) => invocation,
        Err(why) => return cli::usage(program, &why, false),
    };
    match &invocation.command {
        Command::Verify { path } => cli::run_verify(program, path, &invocation.opts),
        _ => cli::usage(
            program,
            "only one-shot verification here; the daemon lives in the `jahob` binary",
            false,
        ),
    }
}
