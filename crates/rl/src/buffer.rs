//! Rollout storage with Generalized Advantage Estimation.
//!
//! Mirrors the Spinning Up `PPOBuffer`: per-step observations, masks,
//! actions, rewards, value estimates and sampled log-probs are appended;
//! closing an episode computes its GAE-λ advantages and reward-to-go
//! returns. The batch-job reward structure of the paper — zero
//! intermediate rewards, full metric at the last action (§IV-A) — is
//! just a special case.

use rlsched_nn::Tensor;

/// One merged, advantage-normalized training batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Observations, `[n, obs_dim]`.
    pub obs: Tensor,
    /// Additive action masks, `[n, n_actions]`.
    pub masks: Tensor,
    /// Chosen actions.
    pub actions: Vec<usize>,
    /// Normalized GAE advantages.
    pub advantages: Vec<f32>,
    /// Reward-to-go returns (value-function targets).
    pub returns: Vec<f32>,
    /// Behavior-policy log-probs at sampling time.
    pub logp_old: Vec<f32>,
}

impl Batch {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// GAE-λ advantages and reward-to-go returns for one `n`-step episode,
/// bootstrapped with `last_value`: `delta_t = r_t + γ V_{t+1} − V_t`,
/// `A_t = Σ_k (γλ)^k delta_{t+k}`. `row` maps the episode's step index
/// to its storage row in the reward/value (and output) arrays, so the
/// interleaved [`ArrivalArena`] runs the plain per-episode recurrence.
#[allow(clippy::too_many_arguments)] // the full GAE term list + the row map
fn gae_and_returns(
    n: usize,
    last_value: f64,
    gamma: f64,
    lam: f64,
    row: impl Fn(usize) -> usize,
    rewards: &[f64],
    values: &[f64],
    advantages: &mut [f64],
    returns: &mut [f64],
) {
    let mut next_adv = 0.0f64;
    for i in (0..n).rev() {
        let r = row(i);
        let v = values[r];
        let next_v = if i + 1 < n {
            values[row(i + 1)]
        } else {
            last_value
        };
        let delta = rewards[r] + gamma * next_v - v;
        next_adv = delta + gamma * lam * next_adv;
        advantages[r] = next_adv;
    }
    let mut running = last_value;
    for i in (0..n).rev() {
        let r = row(i);
        running = rewards[r] + gamma * running;
        returns[r] = running;
    }
}

/// The Spinning Up "advantage normalization trick": zero mean / unit
/// variance over the merged batch (1e-8 std floor), shared by both batch
/// assembly paths so the arithmetic cannot diverge between them.
fn normalize_advantages(advantages: &[f64]) -> Vec<f32> {
    let n = advantages.len();
    let mean = advantages.iter().sum::<f64>() / n as f64;
    let var = advantages
        .iter()
        .map(|a| (a - mean) * (a - mean))
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt().max(1e-8);
    advantages
        .iter()
        .map(|a| ((a - mean) / std) as f32)
        .collect()
}

/// Arrival-order rollout arena for the lockstep sampler.
///
/// The lockstep loop produces one transition per live episode per tick —
/// interleaved across episodes. Staging those rows into one buffer per
/// episode would scatter every tick's stores across N growing buffers
/// (N distinct cache tails at lockstep width N) and re-copy everything
/// at batch time anyway. The arena instead appends every row to **one**
/// contiguous tail in arrival order, remembers each episode's row
/// indices, and performs a single episode-ordered gather at the end.
///
/// Bit-identity contract: [`ArrivalArena::into_batch`] produces exactly
/// the [`Batch`] that contiguous per-episode buffers merged in episode
/// order would — GAE runs per episode over the same values in the same
/// order, and the episode-ordered gather feeds advantage normalization
/// the same merged sequence (pinned against a per-episode reference
/// buffer in this module's tests).
#[derive(Debug)]
pub struct ArrivalArena {
    obs_dim: usize,
    n_actions: usize,
    gamma: f64,
    lam: f64,
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    values: Vec<f64>,
    logps: Vec<f32>,
    advantages: Vec<f64>,
    returns: Vec<f64>,
    /// Per-episode arrival row indices, in step order.
    rows: Vec<Vec<u32>>,
    /// Per-episode bootstrap value recorded at finish (for replay).
    finished: Vec<Option<f64>>,
}

impl ArrivalArena {
    /// An empty arena for `episodes` episodes of `(obs_dim, n_actions)`
    /// transitions.
    pub fn new(obs_dim: usize, n_actions: usize, gamma: f64, lam: f64, episodes: usize) -> Self {
        ArrivalArena {
            obs_dim,
            n_actions,
            gamma,
            lam,
            obs: Vec::new(),
            masks: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            values: Vec::new(),
            logps: Vec::new(),
            advantages: Vec::new(),
            returns: Vec::new(),
            rows: (0..episodes).map(|_| Vec::new()).collect(),
            finished: vec![None; episodes],
        }
    }

    /// Append one step of `episode` (steps of one episode must arrive in
    /// order; different episodes may interleave freely).
    #[allow(clippy::too_many_arguments)] // one transition's fields + the episode key
    pub fn store(
        &mut self,
        episode: usize,
        obs: &[f32],
        mask: &[f32],
        action: usize,
        reward: f64,
        value: f64,
        logp: f32,
    ) {
        assert_eq!(obs.len(), self.obs_dim, "observation width");
        assert_eq!(mask.len(), self.n_actions, "mask width");
        assert!(action < self.n_actions, "action out of range");
        assert!(
            self.finished[episode].is_none(),
            "store into a finished episode"
        );
        let row = self.actions.len() as u32;
        self.obs.extend_from_slice(obs);
        self.masks.extend_from_slice(mask);
        self.actions.push(action);
        self.rewards.push(reward);
        self.values.push(value);
        self.logps.push(logp);
        self.advantages.push(0.0);
        self.returns.push(0.0);
        self.rows[episode].push(row);
    }

    /// Close `episode`, computing its GAE-λ advantages and reward-to-go
    /// returns over its rows through [`gae_and_returns`].
    pub fn finish_episode(&mut self, episode: usize, last_value: f64) {
        let rows = &self.rows[episode];
        assert!(!rows.is_empty(), "finish_episode on an empty episode");
        assert!(self.finished[episode].is_none(), "episode finished twice");
        gae_and_returns(
            rows.len(),
            last_value,
            self.gamma,
            self.lam,
            |i| rows[i] as usize,
            &self.rewards,
            &self.values,
            &mut self.advantages,
            &mut self.returns,
        );
        self.finished[episode] = Some(last_value);
    }

    /// One episode-ordered gather into a merged, advantage-normalized
    /// training batch.
    pub fn into_batch(self) -> Batch {
        Self::merge_into_batch(vec![self])
    }

    /// Merge several arenas into one batch: episodes are gathered in
    /// arena order, then episode order within each arena, and advantage
    /// normalization runs ONCE over the merged sequence. Because each
    /// row's GAE depends only on its own episode, the result is
    /// bit-identical to one arena having collected the same episodes in
    /// the same overall order — this is the parallel rollout's seed-order
    /// merge of per-worker arenas.
    pub fn merge_into_batch(arenas: Vec<ArrivalArena>) -> Batch {
        assert!(!arenas.is_empty(), "merge of zero arenas");
        let obs_dim = arenas[0].obs_dim;
        let n_actions = arenas[0].n_actions;
        let n: usize = arenas.iter().map(|a| a.actions.len()).sum();
        assert!(n > 0, "empty batch");
        let mut obs = Vec::with_capacity(n * obs_dim);
        let mut masks = Vec::with_capacity(n * n_actions);
        let mut actions = Vec::with_capacity(n);
        let mut advantages: Vec<f64> = Vec::with_capacity(n);
        let mut returns = Vec::with_capacity(n);
        let mut logp_old = Vec::with_capacity(n);
        for a in &arenas {
            assert_eq!(a.obs_dim, obs_dim);
            assert_eq!(a.n_actions, n_actions);
            for (ep, fin) in a.finished.iter().enumerate() {
                assert!(
                    fin.is_some() || a.rows[ep].is_empty(),
                    "all episodes must be finished before batching"
                );
            }
            for rows in &a.rows {
                for &row in rows {
                    let r = row as usize;
                    obs.extend_from_slice(&a.obs[r * obs_dim..(r + 1) * obs_dim]);
                    masks.extend_from_slice(&a.masks[r * n_actions..(r + 1) * n_actions]);
                    actions.push(a.actions[r]);
                    advantages.push(a.advantages[r]);
                    returns.push(a.returns[r] as f32);
                    logp_old.push(a.logps[r]);
                }
            }
        }

        // Advantage normalization over the merged episode order.
        let advantages = normalize_advantages(&advantages);

        Batch {
            obs: Tensor::from_vec(obs, &[n, obs_dim]),
            masks: Tensor::from_vec(masks, &[n, n_actions]),
            actions,
            advantages,
            returns,
            logp_old,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Episode-granular rollout buffer: the contiguous per-episode
    /// reference the arena's GAE and batch assembly are checked against.
    #[derive(Debug, Clone)]
    struct RolloutBuffer {
        obs_dim: usize,
        n_actions: usize,
        gamma: f64,
        lam: f64,
        obs: Vec<f32>,
        masks: Vec<f32>,
        actions: Vec<usize>,
        rewards: Vec<f64>,
        values: Vec<f64>,
        logps: Vec<f32>,
        advantages: Vec<f64>,
        returns: Vec<f64>,
        path_start: usize,
    }

    impl RolloutBuffer {
        /// An empty buffer for `(obs_dim, n_actions)` transitions.
        fn new(obs_dim: usize, n_actions: usize, gamma: f64, lam: f64) -> Self {
            RolloutBuffer {
                obs_dim,
                n_actions,
                gamma,
                lam,
                obs: Vec::new(),
                masks: Vec::new(),
                actions: Vec::new(),
                rewards: Vec::new(),
                values: Vec::new(),
                logps: Vec::new(),
                advantages: Vec::new(),
                returns: Vec::new(),
                path_start: 0,
            }
        }

        /// Append one step of the current episode.
        fn store(
            &mut self,
            obs: &[f32],
            mask: &[f32],
            action: usize,
            reward: f64,
            value: f64,
            logp: f32,
        ) {
            assert_eq!(obs.len(), self.obs_dim, "observation width");
            assert_eq!(mask.len(), self.n_actions, "mask width");
            assert!(action < self.n_actions, "action out of range");
            self.obs.extend_from_slice(obs);
            self.masks.extend_from_slice(mask);
            self.actions.push(action);
            self.rewards.push(reward);
            self.values.push(value);
            self.logps.push(logp);
        }

        /// Close the current episode. `last_value` bootstraps a truncated
        /// episode (0.0 for terminal states, as in scheduling episodes that
        /// always run to completion).
        fn finish_path(&mut self, last_value: f64) {
            let start = self.path_start;
            let end = self.rewards.len();
            assert!(end > start, "finish_path on an empty episode");
            self.advantages.resize(end, 0.0);
            self.returns.resize(end, 0.0);
            gae_and_returns(
                end - start,
                last_value,
                self.gamma,
                self.lam,
                |i| start + i,
                &self.rewards,
                &self.values,
                &mut self.advantages,
                &mut self.returns,
            );
            self.path_start = end;
        }

        /// Sum of rewards of all finished episodes.
        fn total_reward(&self) -> f64 {
            self.rewards[..self.path_start].iter().sum()
        }

        /// Merge finished episodes from several buffers into one training
        /// batch, normalizing advantages to zero mean / unit variance across
        /// the whole batch (the Spinning Up "advantage normalization trick").
        fn into_batch(buffers: Vec<RolloutBuffer>) -> Batch {
            assert!(!buffers.is_empty());
            let obs_dim = buffers[0].obs_dim;
            let n_actions = buffers[0].n_actions;
            let mut obs = Vec::new();
            let mut masks = Vec::new();
            let mut actions = Vec::new();
            let mut advantages: Vec<f64> = Vec::new();
            let mut returns = Vec::new();
            let mut logp_old = Vec::new();
            for b in &buffers {
                assert_eq!(b.obs_dim, obs_dim);
                assert_eq!(b.n_actions, n_actions);
                assert_eq!(
                    b.path_start,
                    b.actions.len(),
                    "all episodes must be finished before batching"
                );
                let n = b.path_start;
                obs.extend_from_slice(&b.obs[..n * obs_dim]);
                masks.extend_from_slice(&b.masks[..n * n_actions]);
                actions.extend_from_slice(&b.actions[..n]);
                advantages.extend_from_slice(&b.advantages[..n]);
                returns.extend(b.returns[..n].iter().map(|&r| r as f32));
                logp_old.extend_from_slice(&b.logps[..n]);
            }
            let n = actions.len();
            assert!(n > 0, "empty batch");
            let advantages = normalize_advantages(&advantages);

            Batch {
                obs: Tensor::from_vec(obs, &[n, obs_dim]),
                masks: Tensor::from_vec(masks, &[n, n_actions]),
                actions,
                advantages,
                returns,
                logp_old,
            }
        }
    }

    fn simple_buffer(rewards: &[f64], values: &[f64], gamma: f64, lam: f64) -> RolloutBuffer {
        let mut b = RolloutBuffer::new(2, 3, gamma, lam);
        for (i, (&r, &v)) in rewards.iter().zip(values).enumerate() {
            b.store(&[i as f32, 0.0], &[0.0, 0.0, 0.0], i % 3, r, v, -1.0);
        }
        b.finish_path(0.0);
        b
    }

    #[test]
    fn returns_are_rewards_to_go() {
        let b = simple_buffer(&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0], 1.0, 1.0);
        assert_eq!(b.returns, vec![6.0, 5.0, 3.0]);
    }

    #[test]
    fn discounted_returns() {
        let b = simple_buffer(&[1.0, 1.0], &[0.0, 0.0], 0.5, 1.0);
        assert_eq!(b.returns, vec![1.5, 1.0]);
    }

    #[test]
    fn gae_with_lambda_one_gamma_one_is_return_minus_value() {
        // With γ=λ=1 and terminal bootstrap 0: A_t = G_t − V_t
        // (telescoping identity).
        let rewards = [0.0, 0.0, -5.0];
        let values = [1.0, 2.0, 3.0];
        let b = simple_buffer(&rewards, &values, 1.0, 1.0);
        let expect = [-5.0 - 1.0, -5.0 - 2.0, -5.0 - 3.0];
        for (a, e) in b.advantages.iter().zip(expect) {
            assert!((a - e).abs() < 1e-9, "{a} vs {e}");
        }
    }

    #[test]
    fn gae_lambda_zero_is_one_step_td() {
        // λ=0: A_t = r_t + γ V_{t+1} − V_t.
        let rewards = [1.0, 2.0];
        let values = [0.5, 0.25];
        let b = simple_buffer(&rewards, &values, 0.9, 0.0);
        let e0 = 1.0 + 0.9 * 0.25 - 0.5;
        let e1 = 2.0 + 0.0 - 0.25;
        assert!((b.advantages[0] - e0).abs() < 1e-9);
        assert!((b.advantages[1] - e1).abs() < 1e-9);
    }

    #[test]
    fn delayed_reward_structure_of_the_paper() {
        // Rewards all zero except the last step (−bsld): every action in
        // the episode receives the same return with γ=1.
        let b = simple_buffer(&[0.0, 0.0, 0.0, -42.0], &[0.0; 4], 1.0, 1.0);
        assert!(b.returns.iter().all(|&r| (r + 42.0).abs() < 1e-9));
    }

    #[test]
    fn batch_merges_and_normalizes() {
        let b1 = simple_buffer(&[0.0, -10.0], &[0.0, 0.0], 1.0, 1.0);
        let b2 = simple_buffer(&[0.0, -20.0], &[0.0, 0.0], 1.0, 1.0);
        let batch = RolloutBuffer::into_batch(vec![b1, b2]);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.obs.shape(), &[4, 2]);
        assert_eq!(batch.masks.shape(), &[4, 3]);
        let mean: f32 = batch.advantages.iter().sum::<f32>() / 4.0;
        let var: f32 = batch
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn multi_episode_buffer() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        b.store(&[1.0], &[0.0, 0.0], 1, -1.0, 0.0, -0.5);
        b.finish_path(0.0);
        b.store(&[2.0], &[0.0, 0.0], 0, -2.0, 0.0, -0.5);
        b.finish_path(0.0);
        assert_eq!(b.returns, vec![-1.0, -1.0, -2.0]);
        assert!((b.total_reward() + 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty episode")]
    fn finish_empty_path_panics() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.finish_path(0.0);
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn unfinished_episode_cannot_batch() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        let _ = RolloutBuffer::into_batch(vec![b]);
    }

    #[test]
    #[should_panic(expected = "observation width")]
    fn store_checks_widths() {
        let mut b = RolloutBuffer::new(2, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn arena_matches_per_episode_buffers_bitwise() {
        // Interleaved arrival across 3 episodes of different lengths must
        // produce exactly the batch that per-episode staging produces.
        let (gamma, lam) = (0.9, 0.95);
        let mut arena = ArrivalArena::new(2, 3, gamma, lam, 3);
        let mut bufs: Vec<RolloutBuffer> = (0..3)
            .map(|_| RolloutBuffer::new(2, 3, gamma, lam))
            .collect();
        // (episode, step) arrival order with episode 1 finishing early.
        let schedule: &[(usize, usize)] = &[
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 2),
            (0, 3),
            (2, 3),
        ];
        for &(ep, t) in schedule {
            let obs = [ep as f32 + t as f32 * 0.1, -(t as f32)];
            let mask = [0.0, 0.0, 0.0];
            let a = (ep + t) % 3;
            let r = (t as f64 + 1.0) * if ep == 1 { -1.0 } else { 0.5 };
            let v = ep as f64 * 0.3 + t as f64 * 0.01;
            let lp = -0.5 - t as f32 * 0.1;
            arena.store(ep, &obs, &mask, a, r, v, lp);
            bufs[ep].store(&obs, &mask, a, r, v, lp);
        }
        for (ep, buf) in bufs.iter_mut().enumerate() {
            arena.finish_episode(ep, 0.0);
            buf.finish_path(0.0);
        }
        let from_arena = arena.into_batch();
        let from_bufs = RolloutBuffer::into_batch(bufs);
        assert_eq!(from_arena.obs.data(), from_bufs.obs.data());
        assert_eq!(from_arena.masks.data(), from_bufs.masks.data());
        assert_eq!(from_arena.actions, from_bufs.actions);
        assert_eq!(from_arena.advantages, from_bufs.advantages);
        assert_eq!(from_arena.returns, from_bufs.returns);
        assert_eq!(from_arena.logp_old, from_bufs.logp_old);
    }

    #[test]
    fn split_arenas_merge_bit_identically() {
        // The same 3 episodes collected into one arena vs split across
        // two arenas ({0,1} and {2}) must merge to the same bits — the
        // invariant the parallel rollout's seed-order merge rests on.
        let (gamma, lam) = (0.97, 0.9);
        let step = |ep: usize, t: usize| {
            (
                [ep as f32 * 2.0 + t as f32, t as f32 * 0.5],
                [0.0f32, 0.0, 0.0],
                (ep * 2 + t) % 3,
                -((ep + 1) as f64) * (t as f64 + 0.5),
                ep as f64 * 0.1 - t as f64 * 0.2,
                -0.3 - ep as f32 * 0.07,
            )
        };
        let lens = [4usize, 2, 3];
        let mut whole = ArrivalArena::new(2, 3, gamma, lam, 3);
        let mut first = ArrivalArena::new(2, 3, gamma, lam, 2);
        let mut second = ArrivalArena::new(2, 3, gamma, lam, 1);
        for (ep, &len) in lens.iter().enumerate() {
            for t in 0..len {
                let (obs, mask, a, r, v, lp) = step(ep, t);
                whole.store(ep, &obs, &mask, a, r, v, lp);
                if ep < 2 {
                    first.store(ep, &obs, &mask, a, r, v, lp);
                } else {
                    second.store(0, &obs, &mask, a, r, v, lp);
                }
            }
            whole.finish_episode(ep, 0.0);
        }
        first.finish_episode(0, 0.0);
        first.finish_episode(1, 0.0);
        second.finish_episode(0, 0.0);
        let merged = ArrivalArena::merge_into_batch(vec![first, second]);
        let single = whole.into_batch();
        assert_eq!(merged.obs.data(), single.obs.data());
        assert_eq!(merged.masks.data(), single.masks.data());
        assert_eq!(merged.actions, single.actions);
        assert_eq!(merged.advantages, single.advantages);
        assert_eq!(merged.returns, single.returns);
        assert_eq!(merged.logp_old, single.logp_old);
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn arena_rejects_unfinished_batching() {
        let mut arena = ArrivalArena::new(1, 2, 1.0, 1.0, 1);
        arena.store(0, &[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        let _ = arena.into_batch();
    }

    #[test]
    fn bootstrap_value_used_for_truncated_paths() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 1.0, 0.5, -0.5);
        b.finish_path(10.0); // truncated: bootstrap with V=10
        assert_eq!(b.returns, vec![11.0]);
        // A_0 = r + γ·V_boot − V_0 = 1 + 10 − 0.5
        assert!((b.advantages[0] - 10.5).abs() < 1e-9);
    }
}
