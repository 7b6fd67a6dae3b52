//! Phase profiler for the PPO update loop (sibling of
//! `lockstep_profile`): attributes `Ppo::update_profiled` wall time to
//! minibatch gather / forward / backward / optimizer, so regressions in
//! any one phase are attributable, and times the pinned tape backend
//! (`Ppo::update_tape`) on the same batch for the speedup line.
//!
//! ```text
//! cargo run --release -p rlsched-bench --bin update_profile -- [reps]
//! RLSCHED_FORCE_TAPE=1 cargo run --release -p rlsched-bench --bin update_profile -- [reps]
//! ```
//!
//! The profiled run follows the update's backend dispatch: the fused
//! chunk backend by default, the tape backend under
//! `RLSCHED_FORCE_TAPE=1` (the second form above attributes the tape's
//! phases).
//!
//! Uses the `ppo_update` bench configuration (kernel policy @ 64-job
//! window, 5+5 iterations, minibatch 512 over an 8×128-step batch) so
//! the phase sums line up with `BENCH_ppo_update.json`'s
//! `update_5x5_iters_mb512` median. A committed reference run lives at
//! `crates/bench/PROFILE_update_phases.txt` — regenerate it alongside
//! the BENCH_*.json files when the update path changes.

use rlsched_rl::{collect_rollouts_vec, PpoConfig, UpdateProfile, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn print_profile(name: &str, p: &UpdateProfile, reps: u32, wall: std::time::Duration) {
    let total = p.total().as_secs_f64() * 1e3 / reps as f64;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / reps as f64;
    let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / p.total().as_secs_f64();
    println!("{name} ({:.2} ms/update wall):", ms(wall));
    println!(
        "  gather    : {:7.2} ms  ({:4.1}%)",
        ms(p.gather),
        pct(p.gather)
    );
    println!(
        "  forward   : {:7.2} ms  ({:4.1}%)",
        ms(p.forward),
        pct(p.forward)
    );
    println!(
        "  backward  : {:7.2} ms  ({:4.1}%)",
        ms(p.backward),
        pct(p.backward)
    );
    println!(
        "  optimizer : {:7.2} ms  ({:4.1}%)",
        ms(p.optimizer),
        pct(p.optimizer)
    );
    println!("  attributed: {total:7.2} ms");
}

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
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
    let env = SchedulingEnv::new(trace, 128, SimConfig::default(), encoder, objective);
    let mut venv = VecEnv::new(vec![env; 8]);
    let seeds: Vec<u64> = (0..8).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
    println!(
        "batch: {} transitions, minibatch 512, 5 pi + 5 v iters, kernel@64, reps {reps}\n",
        batch.len()
    );

    // Warm both backends (graph pools, fused scratch, optimizer state).
    let _ = agent.ppo_mut().update(&batch);
    let _ = agent.ppo_mut().update_tape(&batch);

    let mut prof = UpdateProfile::default();
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = agent.ppo_mut().update_profiled(&batch, &mut prof);
    }
    let wall = t0.elapsed();
    print_profile("update_profiled (dispatching backend)", &prof, reps, wall);

    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = agent.ppo_mut().update_tape(&batch);
    }
    let tape_wall = t0.elapsed();
    println!(
        "\ntape backend: {:.2} ms/update wall; speedup {:.2}x",
        tape_wall.as_secs_f64() * 1e3 / reps as f64,
        tape_wall.as_secs_f64() / wall.as_secs_f64(),
    );
}
