//! The training loop (§V-A of the paper): epochs of vectorized
//! trajectory collection (lockstep `VecEnv`s scoring every live episode
//! through one stacked policy forward per simulator tick) followed by
//! PPO updates, with the optional two-phase trajectory-filter schedule
//! of §IV-C.
//!
//! Both halves of an epoch run on the rayon shim's worker pool, whose
//! size comes from a [`rayon::with_threads`] override on the calling
//! thread, else `RLSCHED_THREADS`, else `available_parallelism`. Rollout
//! and update are bit-identical at every worker count, so the pool size
//! only changes wall time, never the curve or the checkpoint.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rlsched_obs::{Counter, Gauge, Histogram, Registry};
use rlsched_rl::{collect_rollouts_par, UpdateProfile, UpdateStats};
use rlsched_sim::SimConfig;
use rlsched_swf::JobTrace;

use crate::agent::Agent;
use crate::env::SchedulingEnv;
use crate::filter::TrajectoryFilter;

/// Trajectory-filter schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FilterMode {
    /// Train on every sampled sequence.
    Off,
    /// §IV-C two-step training: fit the SJF-metric distribution once, keep
    /// only in-range sequences for `phase1_epochs`, then open up.
    TwoPhase {
        /// Epochs restricted to the filter range.
        phase1_epochs: usize,
        /// Sequences sampled to fit the distribution.
        fit_samples: usize,
        /// Upper range bound as a multiple of the distribution mean; the
        /// paper uses 2 (`R = (median, 2·mean)`). Exposed for the
        /// filter-range ablation bench.
        hi_mult: f64,
    },
}

impl FilterMode {
    /// The paper's two-phase schedule with `R = (median, 2·mean)`.
    pub fn two_phase(phase1_epochs: usize, fit_samples: usize) -> Self {
        FilterMode::TwoPhase {
            phase1_epochs,
            fit_samples,
            hi_mult: 2.0,
        }
    }
}

/// Training-run configuration. The paper's full scale is 100 epochs of
/// 100 trajectories × 256 jobs (§V-A); the default here is that scale, and
/// the repro harness shrinks it for quick runs. There is no thread
/// setting: [`train`] runs on the rayon shim's worker pool (see the
/// module docs), and the curve is the same bits at any pool size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories sampled per epoch.
    pub trajectories_per_epoch: usize,
    /// Jobs per trajectory.
    pub seq_len: usize,
    /// Simulator configuration (backfilling on/off).
    pub sim: SimConfig,
    /// Trajectory filtering schedule.
    pub filter: FilterMode,
    /// Base seed; every epoch/trajectory derives its own stream.
    pub seed: u64,
    /// Lockstep width of each rollout worker: how many environment
    /// slots step together through the vectorized sampler (clamped to
    /// `trajectories_per_epoch`). Slots auto-reset onto the next
    /// trajectory seed as episodes finish, so the epoch's trajectory set
    /// — and, thanks to row-count-invariant batched forwards, every
    /// collected bit — is independent of this knob; it only trades
    /// per-tick batch size against env-slot memory.
    pub n_envs: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            trajectories_per_epoch: 100,
            seq_len: 256,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 0,
            n_envs: 16,
        }
    }
}

/// Per-epoch training record (one point of a Fig 8–13 curve).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean raw episode metric over the epoch's trajectories (e.g. average
    /// bounded slowdown) — the vertical axis of the paper's curves.
    pub mean_metric: f64,
    /// Mean scaled episodic return.
    pub mean_return: f64,
    /// Whether the trajectory filter restricted this epoch's sampling.
    pub filtered: bool,
    /// PPO update diagnostics.
    pub update: UpdateStats,
}

/// A whole training run's curve.
pub type TrainingCurve = Vec<EpochStats>;

/// Registry handles the training loop records into once per epoch
/// (plus one phase-attributed time counter per PPO phase). Handles
/// resolve against the process-global registry
/// ([`rlsched_obs::global`]) so `rlsched-serve`'s scrape endpoint — or
/// a `--metrics-dump` at exit — sees training progress without the
/// loop threading a registry through its API. Registration happens
/// once, before the epoch loop; the hot loop only touches atomics.
struct TrainMetrics {
    epochs: Counter,
    episodes: Counter,
    steps: Counter,
    update_phase_ns: [Counter; 4],
    update_ns: Histogram,
    mean_return: Gauge,
    mean_metric: Gauge,
    approx_kl: Gauge,
    entropy: Gauge,
}

impl TrainMetrics {
    const PHASES: [&'static str; 4] = ["gather", "forward", "backward", "optimizer"];

    fn register(reg: &Registry) -> Self {
        let phase = |p: &str| reg.counter("rlsched_train_update_ns_total", &[("phase", p)]);
        TrainMetrics {
            epochs: reg.counter("rlsched_train_epochs_total", &[]),
            episodes: reg.counter("rlsched_train_episodes_total", &[]),
            steps: reg.counter("rlsched_train_steps_total", &[]),
            update_phase_ns: [
                phase(Self::PHASES[0]),
                phase(Self::PHASES[1]),
                phase(Self::PHASES[2]),
                phase(Self::PHASES[3]),
            ],
            update_ns: reg.histogram("rlsched_train_update_ns", &[]),
            mean_return: reg.gauge("rlsched_train_mean_return", &[]),
            mean_metric: reg.gauge("rlsched_train_mean_metric", &[]),
            approx_kl: reg.gauge("rlsched_train_approx_kl", &[]),
            entropy: reg.gauge("rlsched_train_entropy", &[]),
        }
    }

    fn record_epoch(
        &self,
        stats: &rlsched_rl::RolloutStats,
        update: &UpdateStats,
        prof: &UpdateProfile,
    ) {
        self.epochs.inc();
        self.episodes.add(stats.episodes as u64);
        self.steps.add(stats.steps as u64);
        let phases = [prof.gather, prof.forward, prof.backward, prof.optimizer];
        for (c, d) in self.update_phase_ns.iter().zip(phases) {
            c.add(d.as_nanos() as u64);
        }
        self.update_ns.record(prof.total());
        self.mean_return.set(stats.mean_return);
        self.mean_metric.set(stats.mean_metric());
        self.approx_kl.set(update.approx_kl);
        self.entropy.set(update.entropy as f64);
    }
}

/// Train `agent` on `trace`. Returns the per-epoch curve; the agent is
/// updated in place.
pub fn train(agent: &mut Agent, trace: &JobTrace, cfg: &TrainConfig) -> TrainingCurve {
    assert!(cfg.epochs > 0 && cfg.trajectories_per_epoch > 0);
    let trace = Arc::new(trace.clone());
    let objective = agent.objective();
    let encoder = *agent.encoder();

    let filter: Option<Arc<TrajectoryFilter>> = match cfg.filter {
        FilterMode::Off => None,
        FilterMode::TwoPhase {
            fit_samples,
            hi_mult,
            ..
        } => {
            let mut f = TrajectoryFilter::fit(
                &trace,
                cfg.seq_len,
                fit_samples,
                agent.config().metric,
                cfg.sim,
                cfg.seed ^ 0xF11E,
            );
            f.set_range(f.median(), hi_mult * f.mean());
            Some(Arc::new(f))
        }
    };

    // Lockstep env slots per rollout worker: far fewer than
    // trajectories_per_epoch — slots auto-reset onto the next trajectory
    // seed as episodes finish, and every tick scores all live slots
    // through one stacked forward.
    let n_slots = cfg.n_envs.max(1).min(cfg.trajectories_per_epoch);

    let metrics = TrainMetrics::register(rlsched_obs::global());
    let mut curve = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        rlsched_obs::span!("train.epoch");
        let filtered = match cfg.filter {
            FilterMode::Off => false,
            FilterMode::TwoPhase { phase1_epochs, .. } => epoch < phase1_epochs,
        };
        let epoch_filter = if filtered { filter.clone() } else { None };
        let make_env = || {
            let mut e = SchedulingEnv::new(trace.clone(), cfg.seq_len, cfg.sim, encoder, objective);
            e.set_filter(epoch_filter.clone());
            e
        };

        let seeds: Vec<u64> = (0..cfg.trajectories_per_epoch as u64)
            .map(|i| {
                cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)
            })
            .collect();
        let (batch, stats) = {
            rlsched_obs::span!("train.rollout");
            collect_rollouts_par(agent.ppo(), make_env, n_slots, &seeds)
        };
        let mut prof = UpdateProfile::default();
        let update = agent.ppo_mut().update_profiled(&batch, &mut prof);
        metrics.record_epoch(&stats, &update, &prof);

        curve.push(EpochStats {
            epoch,
            mean_metric: stats.mean_metric(),
            mean_return: stats.mean_return,
            filtered,
            update,
        });
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use crate::nets::PolicyKind;
    use crate::obs::ObsConfig;
    use rlsched_rl::PpoConfig;
    use rlsched_sim::MetricKind;
    use rlsched_swf::Job;

    /// A workload where job order matters a lot: convoys of one long job
    /// plus several short ones arriving together on a small cluster.
    fn convoy_trace(n_groups: usize) -> JobTrace {
        let mut jobs = Vec::new();
        let mut id = 0;
        for gidx in 0..n_groups {
            let t0 = gidx as f64 * 4000.0;
            id += 1;
            jobs.push(Job::new(id, t0, 2000.0, 2, 2000.0));
            for s in 0..4 {
                id += 1;
                jobs.push(Job::new(id, t0 + s as f64, 30.0, 2, 30.0));
            }
        }
        JobTrace::new(jobs, 2)
    }

    fn tiny_agent(seed: u64) -> Agent {
        Agent::new(AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig {
                train_pi_iters: 15,
                train_v_iters: 15,
                pi_lr: 3e-3,
                vf_lr: 3e-3,
                minibatch: Some(512),
                ..PpoConfig::default()
            },
            seed,
        })
    }

    #[test]
    fn training_improves_over_initial_policy() {
        let trace = convoy_trace(40);
        let mut agent = tiny_agent(3);
        let cfg = TrainConfig {
            epochs: 12,
            trajectories_per_epoch: 12,
            seq_len: 25,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 11,
            n_envs: 8,
        };
        let curve = train(&mut agent, &trace, &cfg);
        assert_eq!(curve.len(), 12);
        let first = curve[..3].iter().map(|e| e.mean_metric).sum::<f64>() / 3.0;
        let last = curve[curve.len() - 3..]
            .iter()
            .map(|e| e.mean_metric)
            .sum::<f64>()
            / 3.0;
        assert!(
            last < first,
            "mean bsld should fall during training: first {first:.2} vs last {last:.2}"
        );
    }

    #[test]
    fn curve_is_deterministic_given_seeds() {
        let trace = convoy_trace(20);
        let cfg = TrainConfig {
            epochs: 2,
            trajectories_per_epoch: 6,
            seq_len: 20,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 5,
            n_envs: 8,
        };
        let mut a1 = tiny_agent(9);
        let c1 = train(&mut a1, &trace, &cfg);
        let mut a2 = tiny_agent(9);
        let c2 = train(&mut a2, &trace, &cfg);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.mean_metric, y.mean_metric);
            assert_eq!(x.mean_return, y.mean_return);
        }
    }

    #[test]
    fn two_phase_filter_marks_epochs() {
        let trace = convoy_trace(30);
        let mut agent = tiny_agent(1);
        let cfg = TrainConfig {
            epochs: 4,
            trajectories_per_epoch: 4,
            seq_len: 20,
            sim: SimConfig::default(),
            filter: FilterMode::two_phase(2, 20),
            seed: 2,
            n_envs: 8,
        };
        let curve = train(&mut agent, &trace, &cfg);
        assert!(curve[0].filtered && curve[1].filtered);
        assert!(!curve[2].filtered && !curve[3].filtered);
    }

    #[test]
    fn update_stats_are_recorded() {
        let trace = convoy_trace(15);
        let mut agent = tiny_agent(4);
        let cfg = TrainConfig {
            epochs: 1,
            trajectories_per_epoch: 4,
            seq_len: 15,
            sim: SimConfig::default(),
            filter: FilterMode::Off,
            seed: 3,
            n_envs: 8,
        };
        let curve = train(&mut agent, &trace, &cfg);
        let u = &curve[0].update;
        assert!(u.pi_iters >= 1);
        assert!(u.entropy > 0.0);
        assert!(u.approx_kl.is_finite());
    }
}
