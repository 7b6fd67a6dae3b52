//! The train path: `rlscheduler::train` at the paper's shapes, and a
//! mirror of its epoch loop with a timer around each public call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rlsched_rl::{collect_rollouts_vec, UpdateProfile, VecEnv};
use rlsched_swf::JobTrace;
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    train, Agent, AgentConfig, EpochStats, FilterMode, SchedulingEnv, TrainConfig, TrajectoryFilter,
};

use crate::report::{Digest, Metrics, Outcome};

/// Jobs in the training trace (the paper trains on the first 10K jobs;
/// `Profile::full().trace_jobs`).
const TRACE_JOBS: usize = 10_000;
/// `Profile::full().minibatch`.
const MINIBATCH: usize = 2048;
/// `Profile::full().filter_fit`: sequences scheduled with SJF to fit the
/// filter range.
const FILTER_FIT: usize = 1000;
/// The seed `train` derives the filter's sampling stream from.
const FILTER_SALT: u64 = 0xF11E;
/// The per-epoch phase counters `train` records into the global registry.
const PHASES: [&str; 4] = ["gather", "forward", "backward", "optimizer"];

/// The PIK-IPLEX-alike trace of Fig. 9.
pub fn trace(seed: u64) -> JobTrace {
    NamedWorkload::PikIplex.generate(TRACE_JOBS, seed)
}

fn agent(seed: u64) -> Agent {
    let mut cfg = AgentConfig::paper_default();
    cfg.ppo.minibatch = Some(MINIBATCH);
    cfg.seed = seed;
    Agent::new(cfg)
}

/// The shipped `TrainConfig` with the filter on for the first half of
/// the epochs.
fn config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        filter: FilterMode::two_phase(epochs / 2, FILTER_FIT),
        seed,
        ..TrainConfig::default()
    }
}

pub struct TrainRun {
    pub epoch_s: f64,
    curve_digest: String,
    /// Nanoseconds `train` attributed to each update phase, summed over
    /// the run, read from its `rlsched_train_update_ns_total` counters.
    phase_ns: [u64; 4],
}

fn curve_digest(curve: &[EpochStats]) -> String {
    let mut d = Digest::default();
    for e in curve {
        d.f64(e.mean_metric);
        d.f64(e.mean_return);
        d.word(e.filtered as u64);
        let u = &e.update;
        for v in [
            u.pi_loss_before,
            u.pi_loss_after,
            u.v_loss_before,
            u.v_loss_after,
            u.entropy,
        ] {
            d.word(v.to_bits() as u64);
        }
        d.f64(u.approx_kl);
        d.word(u.pi_iters as u64);
    }
    d.hex()
}

fn finite(e: &EpochStats) -> bool {
    let u = &e.update;
    e.mean_metric.is_finite()
        && e.mean_return.is_finite()
        && u.approx_kl.is_finite()
        && [
            u.pi_loss_before,
            u.pi_loss_after,
            u.v_loss_before,
            u.v_loss_after,
            u.entropy,
        ]
        .iter()
        .all(|v| v.is_finite())
}

fn counters() -> (u64, [u64; 4]) {
    let snap = rlsched_obs::global().snapshot();
    let steps = snap.counter("rlsched_train_steps_total", &[]).unwrap_or(0);
    let phases = PHASES.map(|p| {
        snap.counter("rlsched_train_update_ns_total", &[("phase", p)])
            .unwrap_or(0)
    });
    (steps, phases)
}

/// Train a fresh paper-default agent for `epochs` epochs.
pub fn run(trace: &JobTrace, seed: u64, epochs: usize, out: &mut Outcome) -> TrainRun {
    let mut agent = agent(seed);
    let cfg = config(seed, epochs);
    let (steps0, phases0) = counters();
    let t = Instant::now();
    let curve = train(&mut agent, trace, &cfg);
    let wall = t.elapsed().as_secs_f64();
    let (steps1, phases1) = counters();

    let bad = curve.iter().filter(|e| !finite(e)).count() as u64;
    out.tally(curve.len() as u64, bad);
    out.check(curve.len() == epochs, || {
        format!("train returned {} of {epochs} epochs", curve.len())
    });
    let want = (epochs * cfg.trajectories_per_epoch * cfg.seq_len) as u64;
    out.check(steps1 - steps0 == want, || {
        format!(
            "train recorded {} transitions, want {want}",
            steps1 - steps0
        )
    });
    let run = TrainRun {
        epoch_s: wall / epochs as f64,
        curve_digest: curve_digest(&curve),
        phase_ns: std::array::from_fn(|i| phases1[i] - phases0[i]),
    };
    let pi_iters: Vec<usize> = curve.iter().map(|e| e.update.pi_iters).collect();
    println!(
        "train: {epochs} epochs x {} trajectories x {} jobs, {:.3} s/epoch, pi iters {pi_iters:?}, \
         curve digest {}",
        cfg.trajectories_per_epoch, cfg.seq_len, run.epoch_s, run.curve_digest
    );
    run
}

/// The same training run through `train`'s epoch loop driven here, with
/// each call into `core` and `rl` timed; its curve must be bit-equal to
/// the untraced run's.
pub fn run_traced(
    trace: &JobTrace,
    seed: u64,
    epochs: usize,
    untraced: &TrainRun,
    l: &mut Metrics,
    out: &mut Outcome,
) {
    let mut agent = agent(seed);
    let cfg = config(seed, epochs);
    let FilterMode::TwoPhase {
        phase1_epochs,
        fit_samples,
        hi_mult,
    } = cfg.filter
    else {
        unreachable!("config() always filters")
    };
    let t_all = Instant::now();
    let shared = Arc::new(trace.clone());
    let t = Instant::now();
    let mut filter = TrajectoryFilter::fit(
        trace,
        cfg.seq_len,
        fit_samples,
        agent.config().metric,
        cfg.sim,
        cfg.seed ^ FILTER_SALT,
    );
    filter.set_range(filter.median(), hi_mult * filter.mean());
    let fit = t.elapsed();
    let accept = filter.acceptance_rate();
    let filter = Arc::new(filter);

    let (encoder, objective) = (*agent.encoder(), agent.objective());
    let slots = cfg.n_envs.max(1).min(cfg.trajectories_per_epoch);
    let mut envs: Vec<SchedulingEnv> = (0..slots)
        .map(|_| SchedulingEnv::new(shared.clone(), cfg.seq_len, cfg.sim, encoder, objective))
        .collect();
    let (mut rollout, mut update, mut gather) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut transitions, mut pi_iters) = (0usize, 0usize);
    let mut curve = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let filtered = epoch < phase1_epochs;
        for e in &mut envs {
            e.set_filter(filtered.then(|| filter.clone()));
        }
        // `train`'s per-epoch seed schedule; the curve check below
        // catches any drift between this loop and `train`.
        let seeds: Vec<u64> = (0..cfg.trajectories_per_epoch as u64)
            .map(|i| {
                cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)
            })
            .collect();
        let t = Instant::now();
        let (batch, stats) = {
            let mut venv: VecEnv<&mut SchedulingEnv> = VecEnv::new(envs.iter_mut().collect());
            collect_rollouts_vec(agent.ppo(), &mut venv, &seeds)
        };
        rollout += t.elapsed();
        let mut prof = UpdateProfile::default();
        let t = Instant::now();
        let upd = agent.ppo_mut().update_profiled(&batch, &mut prof);
        update += t.elapsed();
        gather += prof.gather;
        transitions += stats.steps;
        pi_iters += upd.pi_iters;
        curve.push(EpochStats {
            epoch,
            mean_metric: stats.mean_metric(),
            mean_return: stats.mean_return,
            filtered,
            update: upd,
        });
    }
    let wall = t_all.elapsed().as_secs_f64();

    let digest = curve_digest(&curve);
    out.check(digest == untraced.curve_digest, || {
        format!(
            "traced train curve {digest} != train()'s {}",
            untraced.curve_digest
        )
    });
    let want = epochs * cfg.trajectories_per_epoch * cfg.seq_len;
    out.check(transitions == want, || {
        format!("{transitions} transitions, want {want}")
    });
    out.tally(
        epochs as u64,
        curve.iter().filter(|e| !finite(e)).count() as u64,
    );

    let per_epoch = |d: Duration| d.as_secs_f64() / epochs as f64;
    let epoch_s = wall / epochs as f64;
    l.put("train.traced.epoch_s", epoch_s, "s");
    l.put("core.filter.fit_s", fit.as_secs_f64(), "s");
    l.put("core.filter.accept_ratio", accept, "ratio");
    l.put("rl.rollout_s", per_epoch(rollout), "s");
    l.put("rl.update_s", per_epoch(update), "s");
    l.put("rl.gather_s", per_epoch(gather), "s");
    l.put("rl.transitions", (transitions / epochs) as f64, "count");
    l.put("rl.pi_iters", pi_iters as f64 / epochs as f64, "count");
    for (phase, ns) in PHASES.iter().zip(untraced.phase_ns).skip(1) {
        l.put(
            &format!("nn.{phase}_s"),
            ns as f64 * 1e-9 / epochs as f64,
            "s",
        );
    }
    l.put(
        "train.remainder_s",
        epoch_s - per_epoch(rollout) - per_epoch(update) - fit.as_secs_f64() / epochs as f64,
        "s",
    );
    l.put(
        "obs.trace_overhead.train",
        epoch_s / untraced.epoch_s - 1.0,
        "ratio",
    );
}
