//! Multi-core scaling of the two training hot loops: parallel rollout
//! collection (`collect_rollouts_par` over a partitioned seed schedule,
//! against the single-core `collect_rollouts_vec` baseline) and the
//! chunked PPO update (`Ppo::update`), each at worker counts ∈ {1, 2, 4}.
//! The parallel arms produce the *same* bits at every worker count
//! (pinned by the parity suites), so the margins here are pure
//! scheduling/merge overhead vs parallel speedup. On a 1-core CI box the
//! interesting number is the overhead of the worker machinery at n=1
//! (the inline path). The update rows keep their historical
//! `update_sharded_t*` names so the committed trend line continues.
//!
//! The criterion shim emits `BENCH_parallel_scaling.json` for the
//! harness to track.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_rl::{collect_rollouts_par, collect_rollouts_vec, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

const SEQ_LEN: usize = 64;
const EPISODES: usize = 12;

fn agent() -> Agent {
    Agent::new(AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 4,
            train_v_iters: 4,
            minibatch: Some(256),
            ..PpoConfig::default()
        },
        seed: 5,
    })
}

fn env_for(agent: &Agent) -> SchedulingEnv {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    SchedulingEnv::new(
        trace,
        SEQ_LEN,
        SimConfig::default(),
        *agent.encoder(),
        agent.objective(),
    )
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut agent = agent();
    let proto = env_for(&agent);
    let seeds: Vec<u64> = (0..EPISODES as u64).collect();

    let mut group = c.benchmark_group("parallel_scaling");

    // Baseline: the sequential lockstep sampler.
    let mut venv = VecEnv::new((0..4).map(|_| proto.clone()).collect::<Vec<_>>());
    group.bench_function("rollout_sequential", |b| {
        b.iter(|| {
            let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
            std::hint::black_box(batch.len())
        })
    });

    // Partitioned seed schedule over per-worker VecEnvs; identical
    // output bits at every worker count.
    for &threads in &[1usize, 2, 4] {
        group.bench_function(format!("rollout_par_t{threads}"), |b| {
            b.iter(|| {
                let (batch, _stats) = rayon::with_threads(threads, || {
                    collect_rollouts_par(agent.ppo(), || proto.clone(), 4, &seeds)
                });
                std::hint::black_box(batch.len())
            })
        });
    }

    // One batch for the update arms (fixed across iterations).
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

    // The update: fixed 64-row chunks over the worker pool,
    // tree-merged gradients; identical bits at every worker count.
    for &threads in &[1usize, 2, 4] {
        group.bench_function(format!("update_sharded_t{threads}"), |b| {
            b.iter(|| {
                rayon::with_threads(threads, || {
                    std::hint::black_box(agent.ppo_mut().update(&batch));
                })
            })
        });
    }

    group.finish();
}

/// Short smoke-gauge settings (the CI bench box is 1-core; the json is
/// a trend line, not a statistical claim).
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(4))
        .sample_size(10)
}
criterion_group! {name = benches; config = short_config(); targets = bench_parallel_scaling}
criterion_main!(benches);
