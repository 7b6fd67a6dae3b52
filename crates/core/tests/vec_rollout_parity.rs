//! Batched ≡ sequential parity on the *real* scheduling stack: a
//! `VecEnv(n)` rollout over `SchedulingEnv`s with the paper's policy
//! architectures must produce bit-identical trajectories (observations,
//! actions, rewards/returns, advantages, sampled log-probs) to
//! sequential single-env collection, and the lockstep greedy evaluator
//! must schedule exactly like the sequential per-decision protocol.
//! CI runs this suite on both the SIMD and `RLSCHED_FORCE_SCALAR=1`
//! dispatch arms.

use std::sync::Arc;

use rlsched_rl::{collect_rollouts_vec, Batch, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{
    evaluate_agent, evaluate_policy, sample_eval_windows, Agent, AgentConfig, ObsConfig,
    PolicyKind, SchedulingEnv,
};

fn agent_of(kind: PolicyKind, max_obsv: usize) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig::default(),
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

/// VecEnv(n) vs VecEnv(1) (one episode at a time) over real scheduling
/// episodes, for the paper's kernel policy and a flat-MLP baseline (the
/// two batched fast-path families; the CNN routes through the same
/// per-row default).
#[test]
fn batched_scheduling_rollout_matches_sequential() {
    for (kind, max_obsv) in [(PolicyKind::Kernel, 16), (PolicyKind::MlpV2, 16)] {
        let agent = agent_of(kind, max_obsv);
        let seeds: Vec<u64> = (40..44).collect();

        let mut venv = VecEnv::new(
            (0..seeds.len())
                .map(|_| env_for(&agent, 24))
                .collect::<Vec<_>>(),
        );
        let (batched, batched_stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

        let mut single = VecEnv::new(vec![env_for(&agent, 24)]);
        let (sequential, seq_stats) = collect_rollouts_vec(agent.ppo(), &mut single, &seeds);

        assert_eq!(
            batched_stats.metrics, seq_stats.metrics,
            "{kind:?}: episode metrics"
        );
        assert_batches_identical(&batched, &sequential, &format!("{kind:?} batched-vs-seq"));
    }
}

/// Lockstep width must be invisible: pipelining the same seed schedule
/// through 2 slots (with auto-reset) equals one slot per episode.
#[test]
fn lockstep_width_does_not_change_trajectories() {
    let agent = agent_of(PolicyKind::Kernel, 16);
    let seeds: Vec<u64> = (90..96).collect();
    let run = |slots: usize| {
        let mut venv = VecEnv::new((0..slots).map(|_| env_for(&agent, 20)).collect::<Vec<_>>());
        collect_rollouts_vec(agent.ppo(), &mut venv, &seeds)
    };
    let (wide, ws) = run(6);
    let (narrow, ns) = run(2);
    assert_batches_identical(&wide, &narrow, "6 slots vs 2 slots");
    assert_eq!(ws.metrics, ns.metrics);
}

/// The batched greedy evaluator must schedule exactly like the
/// per-decision `Policy` adapter for unpacked architectures (the kernel
/// policy serves unpacked, so the two paths share every bit).
#[test]
fn batched_greedy_eval_matches_sequential_protocol() {
    let agent = agent_of(PolicyKind::Kernel, 16);
    let trace = NamedWorkload::Lublin1.generate(500, 3);
    let windows = sample_eval_windows(&trace, 4, 60, 77);
    let sequential = evaluate_policy(&windows, SimConfig::default(), &mut agent.as_policy());
    let batched = evaluate_agent(&agent, &windows, SimConfig::default());
    assert_eq!(
        sequential, batched,
        "lockstep evaluation must reproduce the paper's protocol exactly"
    );
}
