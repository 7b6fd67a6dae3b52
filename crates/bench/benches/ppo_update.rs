//! PPO update cost: one policy+value update over a fixed collected batch —
//! the other half of the Table IX epoch time (sampling being the first).
//!
//! Besides wall-clock medians, this bench counts **heap allocations** via
//! a wrapping global allocator: the reusable-`Graph` update loop and the
//! fast-path rollouts exist to drive allocations/iteration toward zero,
//! so the count is printed next to each measurement (`allocs/call`) and
//! is the number to watch across PRs.

use criterion::{criterion_group, criterion_main, Criterion};

use rlsched_bench::alloc::count_allocs;
use rlsched_rl::{collect_rollouts_vec, Env, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn bench_update(c: &mut Criterion) {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(1024, 3));
    let cfg = AgentConfig {
        policy: PolicyKind::Kernel,
        obs: ObsConfig {
            max_obsv: 64,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo: PpoConfig {
            train_pi_iters: 5,
            train_v_iters: 5,
            minibatch: Some(512),
            ..PpoConfig::default()
        },
        seed: 5,
    };
    let mut agent = Agent::new(cfg);
    let encoder = *agent.encoder();
    let objective = agent.objective();

    // Collect one reusable batch of 8 x 128-step episodes.
    let proto = SchedulingEnv::new(trace.clone(), 128, SimConfig::default(), encoder, objective);
    let mut venv = VecEnv::new(vec![proto.clone(); 8]);
    let seeds: Vec<u64> = (0..8).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);

    // Allocation profile, measured after one warm run of each path so
    // graph pools and scratch buffers are at steady state.
    let _ = agent.ppo_mut().update(&batch);
    let update_allocs = count_allocs(|| agent.ppo_mut().update(&batch));
    let _ = agent.ppo_mut().update_tape(&batch);
    let tape_update_allocs = count_allocs(|| agent.ppo_mut().update_tape(&batch));
    let rollout_allocs = count_allocs(|| collect_rollouts_vec(agent.ppo(), &mut venv, &seeds));
    let (obs, mask) = {
        let mut env = proto.clone();
        let (mut o, mut m) = (Vec::new(), Vec::new());
        env.reset(42, &mut o, &mut m);
        (o, m)
    };
    let mut scratch = rlsched_rl::ActorScratch::new();
    let _ = agent.ppo().greedy_with(&obs, &mask, &mut scratch);
    let fast_allocs = count_allocs(|| agent.ppo().greedy_with(&obs, &mask, &mut scratch));
    let tape_allocs = count_allocs(|| agent.ppo().greedy_tape(&obs, &mask));
    println!("\nallocation profile (heap allocations per call):");
    println!("  ppo_update fused (5+5, mb512):   {update_allocs}");
    println!("  ppo_update tape  (5+5, mb512):   {tape_update_allocs}");
    println!("  rollout_8x128:                   {rollout_allocs}");
    println!("  greedy decision, fast path:      {fast_allocs}");
    println!("  greedy decision, tape path:      {tape_allocs}");

    let mut group = c.benchmark_group("ppo");
    group.sample_size(10);
    // The dispatching update (fused chunk backend for this kernel agent)
    // vs the pinned tape backend — the two are bit-identical in results,
    // so the delta is pure bookkeeping.
    group.bench_function("update_5x5_iters_mb512", |b| {
        b.iter(|| std::hint::black_box(agent.ppo_mut().update(&batch)))
    });
    group.bench_function("update_5x5_iters_mb512_tape", |b| {
        b.iter(|| std::hint::black_box(agent.ppo_mut().update_tape(&batch)))
    });

    // Lockstep batched collection (all 8 envs scored through one stacked
    // forward per tick — the path training uses) vs the per-env baseline
    // (one env slot running the 8 episodes one after another;
    // bit-identical trajectories).
    group.bench_function("rollout_8x128", |b| {
        b.iter(|| {
            let (batch, _s) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
            std::hint::black_box(batch.len())
        })
    });
    let mut single = VecEnv::new(vec![proto.clone()]);
    group.bench_function("rollout_8x128_perenv", |b| {
        b.iter(|| {
            // Same merged, normalized batch as the lockstep arm (the
            // parity tests pin bit-identity) — only the stepping/scoring
            // strategy differs.
            let (batch, _s) = collect_rollouts_vec(agent.ppo(), &mut single, &seeds);
            std::hint::black_box(batch.len())
        })
    });

    // One action selection: the tape path (fresh graph + parameter
    // copies, the seed's only option) vs the allocation-free fast path.
    group.bench_function("select_tape_single", |b| {
        b.iter(|| std::hint::black_box(agent.ppo().greedy_tape(&obs, &mask)))
    });
    group.bench_function("select_fast_single", |b| {
        b.iter(|| std::hint::black_box(agent.ppo().greedy_with(&obs, &mask, &mut scratch)))
    });

    // Per-step env interaction without the network (simulator+encoding),
    // through the caller-owned buffers the sampler uses.
    group.bench_function("env_step_random_policy", |b| {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::SeedableRng;
        let mut env = proto.clone();
        let (mut obs, mut mask) = (Vec::new(), Vec::new());
        b.iter(|| {
            obs.clear();
            mask.clear();
            env.reset(rng.gen(), &mut obs, &mut mask);
            let mut steps = 0usize;
            loop {
                let valid = mask.iter().filter(|&&m| m == 0.0).count();
                let mut pick = rng.gen_range(0..valid);
                let a = mask
                    .iter()
                    .position(|&m| {
                        if m != 0.0 {
                            return false;
                        }
                        if pick == 0 {
                            true
                        } else {
                            pick -= 1;
                            false
                        }
                    })
                    .expect("a valid slot always exists");
                obs.clear();
                mask.clear();
                let out = env.step(a, &mut obs, &mut mask);
                steps += 1;
                if out.done {
                    break;
                }
            }
            std::hint::black_box(steps)
        })
    });
    group.finish();
}

/// Short, CI-friendly measurement settings: these are latency gauges, not
/// regression-grade statistics.
fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
criterion_group! {name = benches; config = short_config(); targets = bench_update}
criterion_main!(benches);
