//! Multi-core ≡ single-core parity on the real scheduling stack, at
//! every worker count. Three contracts, each pinned with exact `==`:
//!
//! 1. `collect_rollouts_par` assembles the *same bytes* as the
//!    sequential `collect_rollouts_vec` — partitioned seed schedules,
//!    per-worker `VecEnv`s and the seed-ordered arena merge are
//!    invisible in the batch.
//! 2. `Ppo::update` (fixed `SHARD_ROWS` chunks spread over the worker
//!    pool) is bit-identical at any worker count.
//! 3. `train()` reproduces the same curve and checkpoint at every worker
//!    count, for single- and multi-chunk minibatches alike.
//!
//! CI runs this suite on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`) and under `RLSCHED_THREADS=4`.

use std::sync::Arc;

use rlsched_rl::{collect_rollouts_par, collect_rollouts_vec, Batch, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    train, Agent, AgentConfig, FilterMode, ObsConfig, PolicyKind, SchedulingEnv, TrainConfig,
};

fn agent_of(kind: PolicyKind, ppo: PpoConfig) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv: 16,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo,
        seed: 9,
    })
}

fn env_for(agent: &Agent, seq_len: usize) -> SchedulingEnv {
    let trace = Arc::new(NamedWorkload::Lublin1.generate(400, 7));
    SchedulingEnv::new(
        trace,
        seq_len,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    )
}

fn assert_batches_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.obs.data(), b.obs.data(), "{what}: observations");
    assert_eq!(a.masks.data(), b.masks.data(), "{what}: masks");
    assert_eq!(a.actions, b.actions, "{what}: actions");
    assert_eq!(a.advantages, b.advantages, "{what}: advantages");
    assert_eq!(a.returns, b.returns, "{what}: returns");
    assert_eq!(a.logp_old, b.logp_old, "{what}: sampled log-probs");
}

/// Parallel rollout over partitioned seed schedules vs the sequential
/// vectorized sampler, across worker counts and both fast-path policy
/// families.
#[test]
fn parallel_rollout_matches_sequential_on_scheduling_envs() {
    for kind in [PolicyKind::Kernel, PolicyKind::MlpV2] {
        let agent = agent_of(kind, PpoConfig::default());
        let seeds: Vec<u64> = (60..73).collect(); // 13 episodes: ragged split

        let mut venv = VecEnv::new((0..4).map(|_| env_for(&agent, 24)).collect::<Vec<_>>());
        let (base_batch, base_stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

        for threads in [1usize, 2, 3, 7] {
            let (batch, stats) = rayon::with_threads(threads, || {
                collect_rollouts_par(agent.ppo(), || env_for(&agent, 24), 3, &seeds)
            });
            let what = format!("{kind:?} at {threads} workers");
            assert_batches_identical(&batch, &base_batch, &what);
            assert_eq!(stats.steps, base_stats.steps, "{what}: step count");
            assert_eq!(stats.metrics, base_stats.metrics, "{what}: metrics");
            assert_eq!(
                stats.mean_return.to_bits(),
                base_stats.mean_return.to_bits(),
                "{what}: mean return"
            );
        }
    }
}

/// One collected batch for a given agent (contents only depend on the
/// policy weights and seeds, which are fixed).
fn batch_for(agent: &Agent, episodes: usize, seq_len: usize) -> Batch {
    let mut venv = VecEnv::new(
        (0..episodes)
            .map(|_| env_for(agent, seq_len))
            .collect::<Vec<_>>(),
    );
    let seeds: Vec<u64> = (0..episodes as u64).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
    batch
}

/// The chunked update must produce identical stats and checkpoints at
/// every worker count (multi-chunk minibatches, ragged last chunk).
#[test]
fn update_is_thread_count_invariant() {
    let ppo = PpoConfig {
        train_pi_iters: 4,
        train_v_iters: 4,
        minibatch: Some(150), // 3 chunks, last ragged
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    let proto = agent_of(PolicyKind::Kernel, ppo);
    let batch = batch_for(&proto, 5, 40);

    let run = |threads: usize| {
        let mut a = Agent::load_json(&proto.save_json()).expect("clone");
        let stats = rayon::with_threads(threads, || {
            (0..3)
                .map(|_| a.ppo_mut().update(&batch))
                .collect::<Vec<_>>()
        });
        (stats, a.save_json())
    };

    let (base_stats, base_ckpt) = run(1);
    for threads in [2usize, 3, 7] {
        let (stats, ckpt) = run(threads);
        assert_eq!(stats, base_stats, "stats diverged at {threads} workers");
        assert_eq!(ckpt, base_ckpt, "checkpoint diverged at {threads} workers");
    }
}

fn tiny_cfg(minibatch_rows: usize) -> (AgentConfig, TrainConfig) {
    let agent_cfg = AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 8,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 4,
            train_v_iters: 4,
            minibatch: Some(minibatch_rows),
            ..PpoConfig::default()
        },
        seed: 5,
    };
    let train_cfg = TrainConfig {
        epochs: 2,
        trajectories_per_epoch: 6,
        seq_len: 20,
        sim: SimConfig::default(),
        filter: FilterMode::Off,
        seed: 11,
        n_envs: 4,
    };
    (agent_cfg, train_cfg)
}

/// End-to-end: `train()` walks the same curve and lands on the same
/// checkpoint at every worker count, with single-chunk (48-row) and
/// multi-chunk (150-row) minibatches.
#[test]
fn training_curve_is_invariant_across_thread_counts() {
    let trace = NamedWorkload::Lublin1.generate(300, 13);
    for minibatch in [48usize, 150] {
        let run = |threads: usize| {
            let (acfg, tcfg) = tiny_cfg(minibatch);
            let mut agent = Agent::new(acfg);
            let curve = rayon::with_threads(threads, || train(&mut agent, &trace, &tcfg));
            (curve, agent.save_json())
        };
        let (base_curve, base_ckpt) = run(1);
        for threads in [2usize, 3, 7] {
            let (curve, ckpt) = run(threads);
            for (a, b) in curve.iter().zip(&base_curve) {
                assert_eq!(
                    a.mean_metric.to_bits(),
                    b.mean_metric.to_bits(),
                    "mean metric at {threads} threads, minibatch {minibatch}, epoch {}",
                    a.epoch
                );
                assert_eq!(
                    a.mean_return.to_bits(),
                    b.mean_return.to_bits(),
                    "mean return at {threads} threads, minibatch {minibatch}, epoch {}",
                    a.epoch
                );
                assert_eq!(
                    a.update, b.update,
                    "update stats at {threads} threads, minibatch {minibatch}"
                );
            }
            assert_eq!(
                ckpt, base_ckpt,
                "checkpoint at {threads} threads, minibatch {minibatch}"
            );
        }
    }
}
