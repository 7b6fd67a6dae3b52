//! Batched ≡ sequential rollout parity at the substrate level: a
//! `VecEnv(n)` rollout must produce **bit-identical** trajectories
//! (observations, masks, actions, rewards/returns, advantages, sampled
//! log-probs) to sequential single-env collection — a `VecEnv` of size 1
//! runs one episode at a time, exactly the old per-env stepping. CI runs this suite on both
//! the SIMD and the `RLSCHED_FORCE_SCALAR=1` dispatch arms.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::{Activation, Graph, Mlp, Network, ParamBinds, Tensor, Var};
use rlsched_rl::{
    collect_rollouts_vec, Batch, Env, PolicyModel, Ppo, PpoConfig, StepOutcome, ValueModel, VecEnv,
};

/// A small bandit-style environment (mirrors the crate's internal test
/// env): fixed episode length, reward = chosen arm / n at the end, with
/// an optionally masked arm and a seed-dependent observation so
/// different episodes genuinely see different states.
struct BanditEnv {
    n_actions: usize,
    episode_len: usize,
    t: usize,
    seed_obs: f32,
    masked: Vec<usize>,
    acc: f64,
}

impl BanditEnv {
    fn new(n_actions: usize, episode_len: usize, masked: Vec<usize>) -> Self {
        BanditEnv {
            n_actions,
            episode_len,
            t: 0,
            seed_obs: 0.0,
            masked,
            acc: 0.0,
        }
    }

    // Append contract: one row appended per reset/non-terminal step.
    fn write_obs(&self, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        obs.push(self.t as f32 / self.episode_len as f32);
        obs.push(self.seed_obs);
        mask.extend((0..self.n_actions).map(|i| {
            if self.masked.contains(&i) {
                -1.0e9
            } else {
                0.0
            }
        }));
    }
}

impl Env for BanditEnv {
    fn obs_dim(&self) -> usize {
        2
    }
    fn n_actions(&self) -> usize {
        self.n_actions
    }
    fn reset(&mut self, seed: u64, obs: &mut Vec<f32>, mask: &mut Vec<f32>) {
        self.t = 0;
        self.acc = 0.0;
        self.seed_obs = (seed % 17) as f32 / 17.0;
        self.write_obs(obs, mask);
    }
    fn step(&mut self, action: usize, obs: &mut Vec<f32>, mask: &mut Vec<f32>) -> StepOutcome {
        assert!(!self.masked.contains(&action), "masked action selected");
        self.t += 1;
        self.acc += action as f64 / self.n_actions as f64;
        let done = self.t >= self.episode_len;
        if !done {
            self.write_obs(obs, mask);
        }
        StepOutcome {
            reward: if done { self.acc } else { 0.0 },
            done,
            episode_metric: if done { Some(self.acc) } else { None },
        }
    }
}

struct P(Mlp);
impl PolicyModel for P {
    fn log_probs(&self, g: &mut Graph, obs: Var, mask: Var, binds: &mut ParamBinds) -> Var {
        let logits = self.0.forward(g, obs, binds);
        let masked = g.add(logits, mask);
        g.log_softmax(masked)
    }
    fn params(&self) -> Vec<&Tensor> {
        self.0.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.0.params_mut()
    }
}

struct C(Mlp);
impl ValueModel for C {
    fn values(&self, g: &mut Graph, obs: Var, binds: &mut ParamBinds) -> Var {
        self.0.forward(g, obs, binds)
    }
    fn params(&self) -> Vec<&Tensor> {
        self.0.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.0.params_mut()
    }
}

fn make_ppo(n_actions: usize) -> Ppo<P, C> {
    let mut rng = StdRng::seed_from_u64(11);
    Ppo::new(
        P(Mlp::new(
            &[2, 16, n_actions],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )),
        C(Mlp::new(
            &[2, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )),
        PpoConfig::default(),
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

/// The headline parity property: one batched rollout vs the same seeds
/// collected one episode at a time through a single env slot, merged into
/// one batch in the same episode order (so advantage normalization sees
/// identical inputs).
#[test]
fn batched_rollout_is_bit_identical_to_sequential() {
    let n = 6;
    let ppo = make_ppo(4);
    let seeds: Vec<u64> = (100..100 + n as u64).collect();

    // Batched: one VecEnv over n envs, all stepped in lockstep.
    let mut venv = VecEnv::new(
        (0..n)
            .map(|_| BanditEnv::new(4, 7, vec![1]))
            .collect::<Vec<_>>(),
    );
    let (batched, batched_stats) = collect_rollouts_vec(&ppo, &mut venv, &seeds);

    // Sequential: one env slot (VecEnv of size 1 — the old per-env
    // stepping) running the seeds' episodes one after another.
    let mut single = VecEnv::new(vec![BanditEnv::new(4, 7, vec![1])]);
    let (sequential, seq_stats) = collect_rollouts_vec(&ppo, &mut single, &seeds);

    assert_eq!(batched_stats.metrics, seq_stats.metrics, "episode metrics");
    assert_batches_identical(&batched, &sequential, "VecEnv(6) vs VecEnv(1)");
}

/// Auto-reset must not change anything: a narrow VecEnv pipelining many
/// episodes through few slots produces the same bits as one-slot-per-
/// episode collection.
#[test]
fn autoreset_pipelining_is_bit_identical() {
    let ppo = make_ppo(3);
    let seeds: Vec<u64> = (500..509).collect();
    let run = |slots: usize| {
        let mut venv = VecEnv::new(
            (0..slots)
                .map(|_| BanditEnv::new(3, 5, vec![]))
                .collect::<Vec<_>>(),
        );
        collect_rollouts_vec(&ppo, &mut venv, &seeds)
    };
    let (wide, ws) = run(9);
    let (narrow, ns) = run(2);
    let (single, ss) = run(1);
    assert_batches_identical(&wide, &narrow, "9 slots vs 2 slots");
    assert_batches_identical(&wide, &single, "9 slots vs 1 slot");
    assert_eq!(ws.metrics, ns.metrics);
    assert_eq!(ws.metrics, ss.metrics);
    assert_eq!(ws.steps, ss.steps);
}
