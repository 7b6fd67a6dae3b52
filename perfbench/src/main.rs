//! The repository benchmark: one process drives the scheduler's three
//! end-to-end paths and prints every metric by name and unit, with a
//! correctness verdict.
//!
//! * **train** — `rlscheduler::train` on a PIK-IPLEX-alike trace with the
//!   paper-default kernel agent (Fig. 9 shape, two-phase filter on for
//!   the first half of the epochs);
//! * **replay** — eight on-disk Lublin-1 SWF traces streamed through
//!   `ReplayEngine::run` under FCFS, SJF and the paper-default agent,
//!   with EASY backfilling;
//! * **serve** — a live `Server` with the default `ServeConfig` serving
//!   the paper-default agent, fired open loop from two connections at a
//!   ladder of Poisson rates.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` repeats every path with a timer around each call
//! into a workspace crate and prints the per-layer metrics, each path's
//! unattributed remainder, and the timer overhead against an untraced
//! pass in the same process. The last stdout line is the JSON result;
//! the lines before it carry the provenance header, per-path detail with
//! sample counts, and the correctness digests.

mod replay;
mod report;
mod serve;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{median, Metrics, Steal};

/// One benchmark workload. Every run drives all three paths, so every
/// run reports every end-to-end metric; the workloads differ in the load
/// of the replay traces, which decides how deep the wait queue grows and
/// so which layer a replay or a served decision spends its time in.
/// Training reads its own trace and is the same on both: the control.
pub struct Workload {
    pub name: &'static str,
    /// Arrival-time dilation of the Lublin-1 replay trace (and so of the
    /// serve snapshots taken from it): 1.0 is the raw calibrated model.
    pub stretch: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "steady",
        stretch: 1.5,
    },
    Workload {
        name: "light",
        stretch: 2.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <steady|light> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                })
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

/// How much of each path one run does, from `--seconds` alone, so the
/// same arguments always do the same work (and print the same digests).
/// Sized on a 2-vCPU x86-64 VM so that `--seconds 40` measures for
/// about 40 s: two training epochs (~20 s), five rounds over the replay
/// traces (~10 s) and the serve ladder (~13 s).
pub struct Plan {
    pub epochs: usize,
    /// Independent replay traces, each `replay_jobs` long.
    pub replay_traces: usize,
    pub replay_jobs: usize,
    /// Passes over every head and trace.
    pub replay_rounds: usize,
    /// Duration of one ordinary serve rung.
    pub rung_secs: f64,
}

impl Plan {
    fn new(seconds: f64) -> Plan {
        let scale = seconds / 40.0;
        Plan {
            // Two epochs at least: one filtered, one open.
            epochs: ((2.0 * scale).round() as usize).max(2),
            replay_traces: 8,
            replay_jobs: ((10_000.0 * scale) as usize).max(2_500),
            replay_rounds: 5,
            rung_secs: scale,
        }
    }
}

/// Everything a run sets up before measuring: the training trace, the
/// replay traces on disk, the serving agent, a live server and the
/// snapshots fired at it.
pub struct Setup {
    pub train_trace: rlsched_swf::JobTrace,
    pub swf_paths: Vec<PathBuf>,
    pub agent: rlscheduler::Agent,
    pub server: serve::Fixture,
    pub gen_s: f64,
}

fn setup(wl: &Workload, seed: u64, plan: &Plan, dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let train_trace = train::trace(seed);
    let swf_paths: Vec<PathBuf> = (0..plan.replay_traces)
        .map(|k| dir.join(format!("lublin1-{seed}-{k}.swf")))
        .collect();
    for (k, path) in swf_paths.iter().enumerate() {
        let sub_seed = seed
            .wrapping_mul(plan.replay_traces as u64)
            .wrapping_add(k as u64);
        replay::write_trace(path, plan.replay_jobs, sub_seed, wl.stretch)?;
    }
    let gen_s = t0.elapsed().as_secs_f64();
    let agent = rlscheduler::Agent::new(rlscheduler::AgentConfig::paper_default());
    let server = serve::Fixture::new(&agent, &swf_paths[0])?;
    Ok(Setup {
        train_trace,
        swf_paths,
        agent,
        server,
        gen_s,
    })
}

/// Set-up runs this many times; `setup_s` is the median, and the last
/// set-up is the one measured.
const SETUPS: usize = 3;

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let plan = Plan::new(args.seconds);
    report::print_provenance(args.workload, args.seed, args.seconds, args.trace);
    let dir = PathBuf::from("perfbench/.run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = last.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        last = Some(setup(args.workload, args.seed, &plan, &dir)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = last.expect("at least one set-up");
    println!("setup: {SETUPS} set-ups {setup_times:.3?} s");

    let mut out = report::Outcome::default();
    let steal = Steal::now();
    let t = train::run(&s.train_trace, args.seed, plan.epochs, &mut out);
    println!("host steal during train: {:.1}%", steal.pct_since());
    let steal = Steal::now();
    let r = replay::run(&s.swf_paths, &s.agent, &plan, &mut out)?;
    println!("host steal during replay: {:.1}%", steal.pct_since());
    let steal = Steal::now();
    let v = s.server.run_ladder(&plan, args.seed, &mut out)?;
    println!("host steal during serve: {:.1}%", steal.pct_since());

    let mut m = Metrics::default();
    if args.trace {
        m.put("workload.gen_s", s.gen_s, "s");
        train::run_traced(&s.train_trace, args.seed, plan.epochs, &t, &mut m, &mut out);
        replay::run_traced(&s.swf_paths, &s.agent, &r, &mut m, &mut out)?;
        s.server
            .run_traced(&plan, args.seed, &v, &mut m, &mut out)?;
    } else {
        m.put("setup_s", median(&setup_times), "s");
        m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
        m.put("train.epoch_s", t.epoch_s, "s");
        v.put_end_to_end(&mut m);
    }
    out.metrics = m;
    s.server.shutdown();
    for p in &s.swf_paths {
        let _ = std::fs::remove_file(p);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
