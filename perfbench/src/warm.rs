//! The warm workload: a `jahob serve` daemon, primed with the inputs
//! during set-up, receives edited resubmissions through `jahob::Client`.
//! This is the edit-and-recheck loop of paper §6. Each round of the run
//! starts its own daemon, so every set-up is measured the same way.

use crate::edit::{self, EditPlan};
use crate::expected::{Fatal, Input, Loaded, Outcome};
use crate::schedule;
use crate::traffic::{self, Run, Traffic, ROUNDS};
use jahob::cli::OutputMode;
use jahob::{Client, SubmitOptions, SubmitOutcome};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub fn run(
    jahob: &Path,
    root: &Path,
    inputs: &[&'static Input],
    seed: u64,
    seconds: f64,
) -> Result<Run, Fatal> {
    let loaded = Loaded::load_all(root, inputs)?;
    let plans = loaded
        .iter()
        .map(|l| EditPlan::new(&l.src))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::new();
    let mut traffic = Traffic::new(inputs.len());
    let mut peak_rss_mib: f64 = 0.0;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let daemon = Daemon::spawn(jahob, root)?;
        let mut client = daemon.client()?;
        for input in &loaded {
            let (_, outcome) = submit(&mut client, &input.src)?;
            traffic::check_setup(input, &outcome)?;
        }
        setups.push(started.elapsed().as_secs_f64());
        traffic.round(&loaded, seed, seconds / ROUNDS as f64, |i, pass| {
            let src = edit::edit(
                &loaded[i].src,
                &plans[i],
                &mut schedule::edit_rng(seed, pass, i),
            );
            submit(&mut client, &src)
        })?;
        peak_rss_mib = peak_rss_mib.max(daemon.peak_rss_mib()?);
        drop(client);
        daemon.stop()?;
    }
    Ok(Run {
        setups,
        traffic,
        peak_rss_mib,
    })
}

/// One request: time from just before the submission to the parsed
/// report.
pub fn submit(client: &mut Client, src: &str) -> Result<(f64, Outcome), String> {
    let options = SubmitOptions {
        output: OutputMode::Json,
        ..SubmitOptions::default()
    };
    let started = Instant::now();
    let text = match client.submit(src, &options, |_| {}) {
        Ok(SubmitOutcome::Report(text)) => text,
        Ok(SubmitOutcome::PipelineError(e)) => return Err(format!("pipeline error: {e}")),
        Ok(SubmitOutcome::Busy { queued, depth, .. }) => {
            return Err(format!("refused with BUSY at queue {queued}/{depth}"))
        }
        Err(e) => return Err(format!("daemon conversation failed: {e}")),
    };
    let outcome = Outcome::from_json(&text)?;
    Ok((started.elapsed().as_secs_f64() * 1e3, outcome))
}

/// A `jahob serve` child on a socket inside the checkout. Dropping it
/// kills the child; [`Daemon::stop`] drains it gracefully.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn the daemon and wait until it accepts connections.
    pub fn spawn(jahob: &Path, root: &Path) -> Result<Daemon, String> {
        let dir = root.join(".bench_build/perfbench");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join(format!("serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(jahob)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", jahob.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early with {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not bind its socket within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("cannot connect to the daemon: {e}"))
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kib| kib.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Drain: the daemon finishes admitted work and exits.
    pub fn stop(mut self) -> Result<(), String> {
        self.client()?
            .drain()
            .map_err(|e| format!("drain failed: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
