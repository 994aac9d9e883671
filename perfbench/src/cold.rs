//! The cold workloads: every request is a fresh `jahob verify --json`
//! process, one-shot verification as a user runs it.

use crate::expected::{Fatal, Input, Loaded, Outcome};
use crate::traffic::{self, Run, Traffic, ROUNDS};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

pub fn run(
    jahob: &Path,
    root: &Path,
    inputs: &[&'static Input],
    seed: u64,
    seconds: f64,
) -> Result<Run, Fatal> {
    let mut setups = Vec::new();
    let mut traffic = Traffic::new(inputs.len());
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let loaded = Loaded::load_all(root, inputs)?;
        for input in &loaded {
            let (_, outcome) = request(jahob, root, input.input)?;
            traffic::check_setup(input, &outcome)?;
        }
        setups.push(started.elapsed().as_secs_f64());
        traffic.round(&loaded, seed, seconds / ROUNDS as f64, |i, _| {
            request(jahob, root, loaded[i].input)
        })?;
    }
    Ok(Run {
        setups,
        traffic,
        peak_rss_mib: children_peak_rss_kib()? as f64 / 1024.0,
    })
}

/// One request: time from just before the spawn to the parsed report.
fn request(jahob: &Path, root: &Path, input: &Input) -> Result<(f64, Outcome), String> {
    let started = Instant::now();
    let out = Command::new(jahob)
        .arg("verify")
        .arg("--json")
        .arg(root.join(input.path))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", jahob.display()))?;
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("report is not UTF-8: {e}"))?;
    let outcome = Outcome::from_json(&text)?;
    Ok((started.elapsed().as_secs_f64() * 1e3, outcome))
}

/// The largest peak resident set, in KiB, of any child this process has
/// waited for: `ru_maxrss` of `getrusage(RUSAGE_CHILDREN)`.
fn children_peak_rss_kib() -> Result<u64, String> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of C's `struct rusage` on 64-bit
    // Linux (two `timeval`s, then fourteen `long`s), and `getrusage` only
    // writes that struct through the pointer, which is valid for it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // SAFETY: the struct started zeroed and `getrusage` succeeded, so
    // every field holds an initialised integer.
    let usage = unsafe { usage.assume_init() };
    Ok(usage.maxrss.max(0) as u64)
}
