//! The replay path: on-disk Lublin-1 SWF traces streamed through
//! `ReplayEngine::run` under FCFS, SJF and the paper-default agent, with
//! EASY backfilling; and the same passes driven here call by call.
//!
//! A run replays eight independent traces rather than one eight times as
//! long: under SJF or the agent at ×1.5 stretch the queue backs up by an
//! amount that differs by ±25% from one trace to the next, and the sum
//! over eight traces cuts that seed-to-seed spread to a third.

use std::cell::Cell;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use rlsched_replay::{open_swf, ReplayEngine, ReplayPolicy};
use rlsched_sched::{select_streaming, HeuristicKind};
use rlsched_sim::{SimConfig, StreamMetrics, StreamSession};
use rlsched_swf::{Job, SwfError};
use rlsched_workload::{LublinModel, LublinParams};
use rlscheduler::Agent;

use crate::report::{median, Digest, Metrics, Outcome};
use crate::Plan;

/// The decision heads, by metric name; `None` is the agent.
const HEADS: [(&str, Option<HeuristicKind>); 3] = [
    ("fcfs", Some(HeuristicKind::Fcfs)),
    ("sjf", Some(HeuristicKind::Sjf)),
    ("agent", None),
];

/// Write `jobs` Lublin-1 jobs to `path` as SWF, with submit times
/// multiplied by `stretch`.
pub fn write_trace(path: &Path, jobs: usize, seed: u64, stretch: f64) -> Result<(), String> {
    let params = LublinParams::lublin1();
    let cluster = params.cluster_size;
    let model = LublinModel::new(params);
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut header = rlsched_swf::SwfHeader::default();
    header.fields.insert("MaxProcs".into(), cluster.to_string());
    let stream = model.stream(jobs, seed).map(|mut j| {
        j.submit_time *= stretch;
        j
    });
    rlsched_swf::write_jobs(&header, cluster, stream, BufWriter::new(file))
        .map_err(|e| e.to_string())
}

fn digest_metrics(d: &mut Digest, m: &StreamMetrics) {
    d.word(m.count());
    for v in [
        m.avg_waiting_time(),
        m.avg_turnaround(),
        m.avg_slowdown(),
        m.avg_bounded_slowdown(),
        m.makespan(),
        m.utilization(),
        m.max_user_bounded_slowdown(),
    ] {
        d.f64(v);
    }
}

pub struct ReplayRun {
    jobs_per_s: Vec<(&'static str, f64)>,
    /// Jobs in each trace.
    jobs: u64,
    /// Per head: the sum over traces of each trace's median pass time,
    /// seconds.
    pass_s: Vec<f64>,
    /// Per head: digest of every trace's folded metrics, in trace order.
    digests: Vec<String>,
}

/// Check a finished pass: every job of the trace started, and the SWF
/// reader parked no error.
fn check_pass(name: &str, jobs: u64, done: u64, err: Option<SwfError>, out: &mut Outcome) {
    out.tally(jobs, jobs.saturating_sub(done));
    out.check(done == jobs, || {
        format!("{name}: {done} of {jobs} jobs completed")
    });
    if let Some(e) = err {
        out.check(false, || format!("{name}: SWF error parked: {e}"));
    }
}

/// Replay every trace under every head through `ReplayEngine::run`,
/// `replay_rounds` times over, heads interleaved within each round. A
/// head's time is the sum over traces of each trace's median pass, so a
/// slow spell of the machine spoils a pass, not the figure.
pub fn run(
    paths: &[PathBuf],
    agent: &Agent,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<ReplayRun, String> {
    let jobs = plan.replay_jobs as u64;
    // passes[h][k]: head h's pass times over trace k, one per round.
    let mut passes = vec![vec![Vec::new(); paths.len()]; HEADS.len()];
    let mut digests = vec![String::new(); HEADS.len()];
    let mut decisions = vec![0u64; HEADS.len()];
    for round in 0..plan.replay_rounds {
        for (h, &(name, kind)) in HEADS.iter().enumerate() {
            let mut digest = Digest::default();
            for (k, path) in paths.iter().enumerate() {
                let t = Instant::now();
                let src = open_swf(path).map_err(|e| e.to_string())?;
                let mut engine =
                    ReplayEngine::new(src.jobs, src.max_procs, SimConfig::with_backfill())
                        .map_err(|e| e.to_string())?;
                let mut policy: ReplayPolicy = match kind {
                    Some(k) => ReplayPolicy::Heuristic(k),
                    None => ReplayPolicy::Agent(agent.stream_decider()),
                };
                let report = engine.run(&mut policy).map_err(|e| e.to_string())?;
                passes[h][k].push(t.elapsed().as_secs_f64());
                check_pass(name, jobs, report.metrics.count(), src.errors.take(), out);
                digest_metrics(&mut digest, &report.metrics);
                if round == 0 {
                    decisions[h] += report.decisions;
                }
            }
            let digest = digest.hex();
            out.check(round == 0 || digest == digests[h], || {
                format!(
                    "{name}: round {round} metrics {digest} != round 0's {}",
                    digests[h]
                )
            });
            digests[h] = digest;
        }
    }
    let total = jobs * paths.len() as u64;
    let mut r = ReplayRun {
        jobs_per_s: Vec::new(),
        jobs,
        pass_s: Vec::new(),
        digests,
    };
    for (h, &(name, _)) in HEADS.iter().enumerate() {
        let wall: f64 = passes[h].iter().map(|p| median(p)).sum();
        println!(
            "replay.{name}: {} traces x {jobs} jobs, {} decisions, passes {:.3?} s, \
             {:.0} jobs/s over median passes, metrics digest {}",
            paths.len(),
            decisions[h],
            passes[h],
            total as f64 / wall,
            r.digests[h]
        );
        r.jobs_per_s.push((name, total as f64 / wall));
        r.pass_s.push(wall);
    }
    Ok(r)
}

/// A job source that accumulates the time spent producing each job
/// (parsing the SWF line) into a shared counter.
struct TimedJobs<I> {
    inner: I,
    ns: Rc<Cell<u64>>,
}

impl<I: Iterator<Item = Job>> Iterator for TimedJobs<I> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let t = Instant::now();
        let j = self.inner.next();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        j
    }
}

/// One round through `StreamSession` and the heads directly, so parsing,
/// `step` and the decision can be timed apart; each head's metrics must
/// be bit-equal to `ReplayEngine::run`'s.
pub fn run_traced(
    paths: &[PathBuf],
    agent: &Agent,
    untraced: &ReplayRun,
    l: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    // Replay throughput is memory-bound, and on a shared VM neighbours'
    // cache and memory traffic moved it by ±35% from run to run (IQR over
    // ten runs 0.3–0.4 of the median), past any bound worth gating on; it
    // is reported here, from the untraced passes, with the layers that
    // explain it.
    for (name, jps) in &untraced.jobs_per_s {
        l.put(&format!("replay.{name}.jobs_per_s"), *jps, "1/s");
    }
    let jobs = untraced.jobs;
    let total = jobs * paths.len() as u64;
    let (mut parse_total, mut traced_wall) = (0u64, 0.0);
    for (h, &(name, kind)) in HEADS.iter().enumerate() {
        let mut digest = Digest::default();
        let (mut parse_ns, mut decide_ns, mut step_ns, mut wall_ns) = (0u64, 0u64, 0u64, 0u64);
        let (mut decisions, mut queue_sum, mut queue_peak) = (0u64, 0u64, 0usize);
        for path in paths {
            let t_all = Instant::now();
            let parse = Rc::new(Cell::new(0u64));
            let t = Instant::now();
            let src = open_swf(path).map_err(|e| e.to_string())?;
            parse.set(t.elapsed().as_nanos() as u64);
            let timed = TimedJobs {
                inner: src.jobs,
                ns: parse.clone(),
            };
            let mut s = StreamSession::new(timed, src.max_procs, SimConfig::with_backfill())
                .map_err(|e| e.to_string())?;
            let mut decider = agent.stream_decider();
            while !s.done() {
                queue_sum += s.queue_len() as u64;
                let t0 = Instant::now();
                let pos = match kind {
                    Some(k) => select_streaming(k, s.waiting()).expect("decision points have jobs"),
                    None => {
                        decider.decide(s.free_procs(), s.total_procs(), s.queue_len(), s.waiting())
                    }
                };
                let t1 = Instant::now();
                let p0 = parse.get();
                s.step(pos).map_err(|e| e.to_string())?;
                let stepped = t1.elapsed().as_nanos() as u64;
                decide_ns += (t1 - t0).as_nanos() as u64;
                step_ns += stepped.saturating_sub(parse.get() - p0);
                decisions += 1;
            }
            wall_ns += t_all.elapsed().as_nanos() as u64;
            parse_ns += parse.get();
            queue_peak = queue_peak.max(s.peak_queue_depth());
            check_pass(name, jobs, s.metrics().count(), src.errors.take(), out);
            digest_metrics(&mut digest, s.metrics());
        }
        let digest = digest.hex();
        out.check(digest == untraced.digests[h], || {
            format!(
                "{name}: traced metrics {digest} != ReplayEngine::run's {}",
                untraced.digests[h]
            )
        });

        let per = |ns: u64| ns as f64 / decisions.max(1) as f64;
        l.put(&format!("sim.step_ns.{name}"), per(step_ns), "ns");
        l.put(&format!("sim.decisions.{name}"), decisions as f64, "count");
        l.put(
            &format!("sim.queue_mean.{name}"),
            queue_sum as f64 / decisions.max(1) as f64,
            "count",
        );
        l.put(
            &format!("sim.queue_peak.{name}"),
            queue_peak as f64,
            "count",
        );
        match kind {
            Some(_) => l.put(&format!("sched.select_ns.{name}"), per(decide_ns), "ns"),
            None => l.put("core.decide_ns", per(decide_ns), "ns"),
        }
        let attributed = parse_ns + step_ns + decide_ns;
        l.put(
            &format!("replay.{name}.remainder_ns_per_job"),
            (wall_ns as f64 - attributed as f64) / total as f64,
            "ns",
        );
        parse_total += parse_ns;
        traced_wall += wall_ns as f64 * 1e-9;
    }
    l.put(
        "swf.parse_ns_per_job",
        parse_total as f64 / (total * HEADS.len() as u64) as f64,
        "ns",
    );
    let untraced_wall: f64 = untraced.pass_s.iter().sum();
    l.put(
        "obs.trace_overhead.replay",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    Ok(())
}
