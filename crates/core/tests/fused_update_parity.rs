//! Fused ≡ tape update parity at the agent level: for every fused-eligible
//! Table IV architecture, `Ppo::update` (the fused chunk backend) must
//! reproduce `Ppo::update_tape` **bit for bit** — per-parameter gradients
//! (pinned transitively through identical post-Adam weights),
//! diagnostics, the minibatch RNG stream, and whole multi-update training
//! trajectories — at every minibatch size, including the ones that
//! straddle a `SHARD_ROWS` chunk boundary. CI runs this suite on both
//! kernel dispatch arms (default SIMD and `RLSCHED_FORCE_SCALAR=1`), so
//! the contract holds on each; under `RLSCHED_FORCE_TAPE=1` both sides
//! run the tape backend.

use rlsched_rl::{collect_rollouts_vec, Batch, PpoConfig, VecEnv, SHARD_ROWS};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

fn agent_for(kind: PolicyKind, max_obsv: usize, ppo: PpoConfig) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo,
        seed: 11,
    })
}

/// One collected batch for a given agent (trajectory contents only
/// depend on the policy weights and seeds, which are fixed).
fn batch_for(agent: &Agent, episodes: usize, seq_len: usize) -> Batch {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(512, 3));
    let mut venv = VecEnv::new(
        (0..episodes)
            .map(|_| {
                SchedulingEnv::new(
                    trace.clone(),
                    seq_len,
                    SimConfig::default(),
                    *agent.encoder(),
                    agent.objective(),
                )
            })
            .collect::<Vec<_>>(),
    );
    let seeds: Vec<u64> = (0..episodes as u64).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut venv, &seeds);
    batch
}

/// Minibatch sizes around the chunk boundaries: one row short of a
/// chunk, exactly one chunk, one row into a second chunk, and one row
/// into a third. Every case below also runs at each of these sizes.
const CHUNK_EDGES: [usize; 4] = [
    SHARD_ROWS - 1,
    SHARD_ROWS,
    SHARD_ROWS + 1,
    2 * SHARD_ROWS + 1,
];

/// Run `updates` tape updates on one clone and `updates` fused updates on
/// another, at `ppo`'s own minibatch size and at every [`CHUNK_EDGES`]
/// size; every step's diagnostics and the final checkpoints must be
/// bit-identical.
fn assert_fused_matches_tape(kind: PolicyKind, ppo: PpoConfig, updates: usize, what: &str) {
    let edges = CHUNK_EDGES.map(Some);
    for minibatch in std::iter::once(ppo.minibatch).chain(edges) {
        let ppo = PpoConfig { minibatch, ..ppo };
        let what = format!("{what}, minibatch {minibatch:?}");
        let proto = agent_for(kind, 16, ppo);
        assert!(
            proto.ppo().fused_supported(),
            "{what}: must be fused-eligible"
        );
        let batch = batch_for(&proto, 4, 40);
        // Two identical clones with fresh optimizer state each.
        let mut tape = Agent::load_json(&proto.save_json()).expect("clone");
        let mut fused = Agent::load_json(&proto.save_json()).expect("clone");
        for step in 0..updates {
            let st = tape.ppo_mut().update_tape(&batch);
            let sf = fused.ppo_mut().update(&batch);
            assert_eq!(st, sf, "{what}: stats diverged at update {step}");
        }
        assert_eq!(
            tape.save_json(),
            fused.save_json(),
            "{what}: weights diverged after {updates} updates"
        );
    }
}

#[test]
fn kernel_policy_fused_update_is_bit_identical() {
    // The paper's architecture, with a ragged (non-multiple-of-4/8)
    // minibatch so kernel row tails are exercised.
    let ppo = PpoConfig {
        train_pi_iters: 4,
        train_v_iters: 4,
        minibatch: Some(37),
        ..PpoConfig::default()
    };
    assert_fused_matches_tape(PolicyKind::Kernel, ppo, 3, "kernel, mb=37");
}

#[test]
fn flat_mlps_fused_update_is_bit_identical() {
    for (kind, what) in [
        (PolicyKind::MlpV1, "MLP v1"),
        (PolicyKind::MlpV2, "MLP v2"),
        (PolicyKind::MlpV3, "MLP v3"),
    ] {
        let ppo = PpoConfig {
            train_pi_iters: 3,
            train_v_iters: 3,
            minibatch: Some(53),
            ..PpoConfig::default()
        };
        assert_fused_matches_tape(kind, ppo, 2, what);
    }
}

#[test]
fn full_batch_and_entropy_bonus_match() {
    // No minibatching (the view borrows the whole batch) and a nonzero
    // entropy coefficient (the extra gradient term must accumulate in
    // the tape's order).
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: None,
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    assert_fused_matches_tape(PolicyKind::Kernel, ppo, 2, "full batch + entropy");
}

#[test]
fn grad_clipping_matches() {
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: Some(64),
        max_grad_norm: Some(0.05),
        ..PpoConfig::default()
    };
    assert_fused_matches_tape(PolicyKind::MlpV2, ppo, 2, "grad clip");
}

#[test]
fn lenet_has_no_fused_arm_and_dispatch_falls_back() {
    // The CNN baseline is not an MLP chain: it must not claim fused
    // support, and the dispatching update must transparently produce the
    // tape result.
    let ppo = PpoConfig {
        train_pi_iters: 2,
        train_v_iters: 2,
        minibatch: Some(48),
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::LeNet, 64, ppo);
    let batch = batch_for(&proto, 2, 24);
    let mut a = Agent::load_json(&proto.save_json()).expect("clone");
    let mut b = Agent::load_json(&proto.save_json()).expect("clone");
    assert!(
        !a.ppo().fused_supported(),
        "LeNet must not claim fused support"
    );
    let s1 = a.ppo_mut().update(&batch);
    let s2 = b.ppo_mut().update_tape(&batch);
    assert_eq!(s1, s2, "dispatching update must fall back to the tape");
    assert_eq!(a.save_json(), b.save_json());
}

#[test]
fn dispatching_update_takes_the_fused_path_bit_identically() {
    // `update()` (what training calls) must be indistinguishable from
    // the pinned tape backend over several updates: same stats, same
    // weights.
    let ppo = PpoConfig {
        train_pi_iters: 4,
        train_v_iters: 4,
        minibatch: Some(96),
        ..PpoConfig::default()
    };
    assert_fused_matches_tape(PolicyKind::Kernel, ppo, 3, "dispatching update");
}
