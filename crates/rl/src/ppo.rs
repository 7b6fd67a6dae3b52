//! Proximal Policy Optimization with the clipped surrogate objective —
//! the algorithm of Schulman et al. [30] as packaged by OpenAI Spinning Up,
//! which the paper builds RLScheduler on (§V-A).
//!
//! One [`Ppo`] owns an actor (any [`PolicyModel`]) and a critic (any
//! [`ValueModel`]) with separate Adam optimizers. Per §V-A, each epoch runs
//! up to 80 policy-gradient iterations (early-stopped on approximate KL)
//! and 80 value iterations at learning rate 1e-3.

use std::time::{Duration, Instant};

use rand::Rng;

use rlsched_nn::{clip_global_norm, fused, Adam, Graph, Mlp, ParamBinds, Scratch, Tensor, Var};

use crate::buffer::Batch;
use crate::categorical::MaskedCategorical;

/// True when `RLSCHED_FORCE_TAPE` pins [`Ppo::update`] to the autodiff
/// tape even for fused-eligible architectures (read once, cached — CI
/// runs the whole suite once with it set so the fallback stays green).
fn force_tape() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os("RLSCHED_FORCE_TAPE").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// The actor: maps observations + additive masks to per-action
/// log-probabilities.
pub trait PolicyModel {
    /// Build the forward pass on the tape. `obs` is `[batch, obs_dim]`,
    /// `mask` is `[batch, n_actions]` additive (0 valid / ~-1e9 invalid);
    /// the result must be `[batch, n_actions]` log-probabilities.
    fn log_probs(&self, g: &mut Graph, obs: Var, mask: Var, binds: &mut ParamBinds) -> Var;

    /// Inference fast path: write the masked log-prob row for one
    /// observation into `out`, with no tape bookkeeping.
    ///
    /// The default falls back to building a throwaway tape, so existing
    /// policies keep working; models that matter override it with an
    /// allocation-free forward over `scratch` (see `rlscheduler`'s
    /// `PolicyNet`). Implementations must produce the same numbers as
    /// [`PolicyModel::log_probs`] on a 1-row batch.
    fn log_probs_fast(&self, obs: &[f32], mask: &[f32], scratch: &mut Scratch, out: &mut Vec<f32>) {
        let _ = scratch;
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(obs, &[1, obs.len()]);
        let m = g.input_from(mask, &[1, mask.len()]);
        let lp = self.log_probs(&mut g, o, m, &mut binds);
        out.clear();
        out.extend_from_slice(g.value(lp).data());
    }

    /// Batched inference fast path: write `rows` masked log-prob rows
    /// (`[rows, n_actions]` row-major) into `out`, with no tape
    /// bookkeeping. `obs` is `[rows, obs_dim]` row-major and `masks`
    /// `[rows, n_actions]`.
    ///
    /// The default loops over rows through [`PolicyModel::log_probs_fast`]
    /// (correct for any policy, but pays the weight stream per row);
    /// models that serve concurrent requests override it with one batched
    /// forward — the dense kernels already take a `rows` parameter — so
    /// weight traffic is amortized across the batch. Row `i` of the
    /// result must match `log_probs_fast` on row `i` alone up to float
    /// reassociation (SIMD row-blocking can differ between batched and
    /// single rows), so argmax decisions agree except on floating-point
    /// near-ties.
    fn log_probs_fast_batch(
        &self,
        obs: &[f32],
        masks: &[f32],
        rows: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        assert!(rows > 0, "batched forward needs at least one row");
        assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
        assert_eq!(masks.len() % rows, 0, "mask volume must divide into rows");
        let obs_dim = obs.len() / rows;
        let n_actions = masks.len() / rows;
        out.clear();
        let mut row = Vec::new();
        for i in 0..rows {
            self.log_probs_fast(
                &obs[i * obs_dim..(i + 1) * obs_dim],
                &masks[i * n_actions..(i + 1) * n_actions],
                scratch,
                &mut row,
            );
            out.extend_from_slice(&row);
        }
    }

    /// Parameter tensors in bind order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable parameter access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// Describe this policy for the tape-free fused update
    /// ([`Ppo::update`]'s fast path) when its architecture is an MLP
    /// chain the analytic backward supports. The default (`None`) keeps
    /// the policy on the autodiff tape; implementations returning
    /// `Some` must also override [`PolicyModel::fused_mut`], and the
    /// described network must compute exactly what
    /// [`PolicyModel::log_probs`] builds on the tape.
    fn fused(&self) -> Option<fused::FusedPolicy<'_>> {
        None
    }

    /// Mutable access to the trainable MLP behind
    /// [`PolicyModel::fused`] (the optimizer walks its layers in place,
    /// keeping the fused update allocation-free). Must be `Some` exactly
    /// when `fused` is.
    fn fused_mut(&mut self) -> Option<&mut Mlp> {
        None
    }
}

/// The critic: maps observations to scalar state values.
pub trait ValueModel {
    /// Build the forward pass; result must be `[batch, 1]`.
    fn values(&self, g: &mut Graph, obs: Var, binds: &mut ParamBinds) -> Var;

    /// Inference fast path: the state value of one observation with no
    /// tape bookkeeping. Default falls back to a throwaway tape; override
    /// with an allocation-free forward (must match [`ValueModel::values`]
    /// on a 1-row batch).
    fn value_fast(&self, obs: &[f32], scratch: &mut Scratch) -> f64 {
        let _ = scratch;
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(obs, &[1, obs.len()]);
        let v = self.values(&mut g, o, &mut binds);
        g.value(v).data()[0] as f64
    }

    /// Batched inference fast path: write `rows` state values into `out`
    /// for stacked observations (`[rows, obs_dim]` row-major), with no
    /// tape bookkeeping. The default loops over rows through
    /// [`ValueModel::value_fast`]; critics on the vectorized rollout path
    /// override it with one stacked forward. Element `i` must be
    /// bit-identical to `value_fast` on row `i` alone — the lockstep
    /// sampler's batched≡sequential parity depends on it.
    fn value_fast_batch(
        &self,
        obs: &[f32],
        rows: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        assert!(rows > 0, "batched value forward needs at least one row");
        assert_eq!(obs.len() % rows, 0, "obs volume must divide into rows");
        let obs_dim = obs.len() / rows;
        out.clear();
        for i in 0..rows {
            out.push(self.value_fast(&obs[i * obs_dim..(i + 1) * obs_dim], scratch));
        }
    }

    /// Parameter tensors in bind order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable parameter access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// The critic's plain-MLP chain, when it has one, for the tape-free
    /// fused update (default `None` = tape). Must compute exactly what
    /// [`ValueModel::values`] builds on the tape, and pair with
    /// [`ValueModel::fused_mut`].
    fn fused(&self) -> Option<&Mlp> {
        None
    }

    /// Mutable counterpart of [`ValueModel::fused`] for the in-place
    /// optimizer walk.
    fn fused_mut(&mut self) -> Option<&mut Mlp> {
        None
    }
}

/// Per-worker reusable buffers for the inference fast path: network
/// scratch plus the log-prob row. One per rollout worker; reused across
/// every step of every episode.
#[derive(Debug, Default)]
pub struct ActorScratch {
    /// Layer scratch for the underlying networks.
    pub nn: Scratch,
    pub(crate) logp: Vec<f32>,
}

impl ActorScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently computed log-prob row.
    pub fn logp(&self) -> &[f32] {
        &self.logp
    }
}

/// PPO hyperparameters. Defaults follow §V-A of the paper (lr 1e-3, 80
/// update iterations per epoch) and Spinning Up conventions elsewhere.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct PpoConfig {
    /// Clipping radius ε of the surrogate objective.
    pub clip_ratio: f32,
    /// Policy learning rate.
    pub pi_lr: f32,
    /// Value-function learning rate.
    pub vf_lr: f32,
    /// Max policy iterations per update.
    pub train_pi_iters: usize,
    /// Value iterations per update.
    pub train_v_iters: usize,
    /// Discount γ (1.0: episodic scheduling with terminal reward).
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Early-stop threshold: stop policy iterations when approximate KL
    /// exceeds 1.5× this.
    pub target_kl: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Optional global-norm gradient clip.
    pub max_grad_norm: Option<f32>,
    /// When set, each update iteration works on a random minibatch of this
    /// size instead of the full batch (PPO-style minibatching; keeps the
    /// 80-iteration schedule affordable on large rollouts).
    pub minibatch: Option<usize>,
    /// Seed for minibatch shuffling (updates stay reproducible).
    pub update_seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            clip_ratio: 0.2,
            pi_lr: 1e-3,
            vf_lr: 1e-3,
            train_pi_iters: 80,
            train_v_iters: 80,
            gamma: 1.0,
            lam: 0.97,
            target_kl: 0.01,
            ent_coef: 0.0,
            max_grad_norm: None,
            minibatch: None,
            update_seed: 0,
        }
    }
}

/// Diagnostics of one [`Ppo::update`].
#[derive(Debug, Default, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UpdateStats {
    /// Surrogate loss before the first policy step.
    pub pi_loss_before: f32,
    /// Surrogate loss after the last policy step.
    pub pi_loss_after: f32,
    /// Value loss before the first value step.
    pub v_loss_before: f32,
    /// Value loss after the last value step.
    pub v_loss_after: f32,
    /// Final approximate KL(old ‖ new).
    pub approx_kl: f64,
    /// Mean policy entropy over the batch (at the first iteration).
    pub entropy: f32,
    /// Policy iterations actually executed before KL early stop.
    pub pi_iters: usize,
}

/// Wall-clock attribution of one [`Ppo::update`], accumulated across its
/// policy and value iterations: minibatch gather, network forwards,
/// backward/gradient work, and the optimizer step. Filled by
/// [`Ppo::update_profiled`] on either chunk backend (the phases map 1:1
/// between the fused and tape backends, so regressions are
/// attributable).
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateProfile {
    /// The minibatch index draw and the row gather into each chunk's
    /// staging buffers (one fan-out over the chunks).
    pub gather: Duration,
    /// Actor/critic forward passes over every chunk (tape: graph build
    /// + eager eval, loss tail included).
    pub forward: Duration,
    /// Loss tail + backward gradient computation over every chunk, and
    /// the chunk gradient merge (tape: `backward` + gradient copy-out).
    pub backward: Duration,
    /// Gradient clipping + Adam step.
    pub optimizer: Duration,
}

impl UpdateProfile {
    /// Total attributed time.
    pub fn total(&self) -> Duration {
        self.gather + self.forward + self.backward + self.optimizer
    }
}

/// Rows (transitions) per chunk of the PPO minibatch loop. Chunk
/// boundaries are a pure function of the minibatch size and this
/// constant — never of the machine or the worker count — so the
/// chunk-index-ordered gradient merge gives identical bits at every
/// thread count.
pub const SHARD_ROWS: usize = 64;

/// The PPO agent: actor, critic, optimizers, config.
pub struct Ppo<P: PolicyModel, V: ValueModel> {
    /// The actor network.
    pub policy: P,
    /// The critic network.
    pub value: V,
    /// Hyperparameters.
    pub cfg: PpoConfig,
    pi_opt: Adam,
    vf_opt: Adam,
    update_rng: rand::rngs::StdRng,
    /// Per-chunk state of the actor's minibatch loop (persists across
    /// updates so the fused backend allocates nothing at steady state).
    pi_chunks: Vec<Chunk>,
    /// Per-chunk state of the critic's minibatch loop.
    vf_chunks: Vec<Chunk>,
    /// The current iteration's drawn minibatch row indices (empty when
    /// the iteration runs on the whole batch).
    drawn: Vec<usize>,
}

impl<P: PolicyModel, V: ValueModel> Ppo<P, V> {
    /// Assemble an agent. Panics on `minibatch: Some(0)` (an empty
    /// minibatch has no gradient).
    pub fn new(policy: P, value: V, cfg: PpoConfig) -> Self {
        use rand::SeedableRng;
        assert_ne!(
            cfg.minibatch,
            Some(0),
            "minibatch must hold at least one row"
        );
        let pi_opt = Adam::new(cfg.pi_lr);
        let vf_opt = Adam::new(cfg.vf_lr);
        let update_rng = rand::rngs::StdRng::seed_from_u64(cfg.update_seed);
        Ppo {
            policy,
            value,
            cfg,
            pi_opt,
            vf_opt,
            update_rng,
            pi_chunks: Vec::new(),
            vf_chunks: Vec::new(),
            drawn: Vec::new(),
        }
    }

    /// Forward the policy on a single observation via the inference fast
    /// path; returns the log-prob row (allocates — prefer
    /// [`Ppo::select_with`]/[`Ppo::greedy_with`] in loops).
    pub fn logp_row(&self, obs: &[f32], mask: &[f32]) -> Vec<f32> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        self.policy
            .log_probs_fast(obs, mask, &mut scratch, &mut out);
        out
    }

    /// Forward the policy through the full autodiff tape (the training
    /// graph). Kept for gradient work and as the benchmark baseline the
    /// fast path is measured against.
    pub fn logp_row_tape(&self, obs: &[f32], mask: &[f32]) -> Vec<f32> {
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input(Tensor::from_vec(obs.to_vec(), &[1, obs.len()]));
        let m = g.input(Tensor::from_vec(mask.to_vec(), &[1, mask.len()]));
        let lp = self.policy.log_probs(&mut g, o, m, &mut binds);
        g.value(lp).data().to_vec()
    }

    /// Forward the critic on a single observation (fast path).
    pub fn value_of(&self, obs: &[f32]) -> f64 {
        self.value.value_fast(obs, &mut Scratch::new())
    }

    /// Sample an action (training path). Returns `(action, logp, value)`.
    /// Allocates per call; rollout loops should hold an [`ActorScratch`]
    /// and use [`Ppo::select_with`].
    pub fn select<R: Rng + ?Sized>(
        &self,
        obs: &[f32],
        mask: &[f32],
        rng: &mut R,
    ) -> (usize, f32, f64) {
        self.select_with(obs, mask, &mut ActorScratch::new(), rng)
    }

    /// Sample an action through caller-owned scratch: zero allocation at
    /// steady state. Returns `(action, logp, value)`.
    pub fn select_with<R: Rng + ?Sized>(
        &self,
        obs: &[f32],
        mask: &[f32],
        scratch: &mut ActorScratch,
        rng: &mut R,
    ) -> (usize, f32, f64) {
        self.policy
            .log_probs_fast(obs, mask, &mut scratch.nn, &mut scratch.logp);
        let dist = MaskedCategorical::new(&scratch.logp);
        let a = dist.sample(rng);
        let logp = dist.log_prob(a);
        let v = self.value.value_fast(obs, &mut scratch.nn);
        (a, logp, v)
    }

    /// Deterministic argmax action (testing path, §IV-B1).
    pub fn greedy(&self, obs: &[f32], mask: &[f32]) -> usize {
        self.greedy_with(obs, mask, &mut ActorScratch::new())
    }

    /// Argmax action through caller-owned scratch (zero allocation at
    /// steady state) — the scheduling-decision hot path of Table IX.
    pub fn greedy_with(&self, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        self.policy
            .log_probs_fast(obs, mask, &mut scratch.nn, &mut scratch.logp);
        MaskedCategorical::new(&scratch.logp).argmax()
    }

    /// Argmax actions for a whole batch of observations through one
    /// batched forward: `obs` is `[rows, obs_dim]` row-major, `masks`
    /// `[rows, n_actions]`. Delegates to [`crate::vecenv::greedy_batch`]
    /// over the policy's [`crate::vecenv::BatchPolicy`] impl — the same
    /// scoring path the vectorized rollout sampler uses. Amortizes the
    /// policy's weight stream across concurrent decisions;
    /// allocation-free at steady state when the policy overrides
    /// [`PolicyModel::log_probs_fast_batch`] (the default falls back to a
    /// per-row loop with a temporary buffer).
    pub fn greedy_batch_with(
        &self,
        obs: &[f32],
        masks: &[f32],
        rows: usize,
        scratch: &mut ActorScratch,
        actions: &mut Vec<usize>,
    ) {
        crate::vecenv::greedy_batch(&self.policy, obs, masks, rows, scratch, actions);
    }

    /// Argmax action through the full tape (benchmark baseline).
    pub fn greedy_tape(&self, obs: &[f32], mask: &[f32]) -> usize {
        let logp = self.logp_row_tape(obs, mask);
        MaskedCategorical::new(&logp).argmax()
    }

    /// True when both networks expose fused-eligible architectures, so
    /// [`Ppo::update`] takes the tape-free fast path (unless
    /// `RLSCHED_FORCE_TAPE` pins the fallback).
    pub fn fused_supported(&self) -> bool {
        self.policy.fused().is_some() && self.value.fused().is_some()
    }

    /// One PPO update over a collected batch.
    ///
    /// Every policy and value iteration splits its minibatch into fixed
    /// [`SHARD_ROWS`]-row chunks, gathers each chunk's drawn rows on the
    /// worker that runs it, computes each chunk's forward and gradient
    /// partial (mean seeds scaled by the whole minibatch size), merges
    /// the partials with a chunk-index-ordered binary tree, and folds the
    /// loss partials in chunk order. The chunk backend is the tape-free
    /// fused kernels ([`rlsched_nn::fused`], chunks spread over the rayon
    /// shim's workers, zero heap allocation at steady state; a kernel
    /// head scores only its live job rows)
    /// when both networks support them, and otherwise (or under
    /// `RLSCHED_FORCE_TAPE=1`) a per-chunk autodiff [`Graph`]. The
    /// result is bit-identical across backends and at every worker
    /// count: gradients, Adam state, diagnostics and the minibatch RNG
    /// stream all match exactly, so checkpoints are interchangeable
    /// (pinned by the fused-parity and parallel-parity suites).
    pub fn update(&mut self, batch: &Batch) -> UpdateStats {
        self.update_profiled(batch, &mut UpdateProfile::default())
    }

    /// [`Ppo::update`] with wall-clock phase attribution (gather /
    /// forward / backward / optimizer) accumulated into `prof`.
    pub fn update_profiled(&mut self, batch: &Batch, prof: &mut UpdateProfile) -> UpdateStats {
        let fused = self.fused_supported() && !force_tape();
        self.run_update(batch, prof, fused)
    }

    /// [`Ppo::update`] pinned to the tape backend regardless of
    /// architecture support or `RLSCHED_FORCE_TAPE` — the reference the
    /// fused backend is tested and benchmarked against.
    pub fn update_tape(&mut self, batch: &Batch) -> UpdateStats {
        self.run_update(batch, &mut UpdateProfile::default(), false)
    }

    /// The one minibatch loop behind every update entry point; `fused`
    /// picks the chunk backend (callers check [`Ppo::fused_supported`]).
    fn run_update(&mut self, batch: &Batch, prof: &mut UpdateProfile, fused: bool) -> UpdateStats {
        rlsched_obs::span!("ppo.update");
        assert!(!batch.is_empty(), "cannot update on an empty batch");
        let (od, na) = (batch.obs.cols(), batch.masks.cols());
        let mut stats = UpdateStats::default();
        let Ppo {
            policy,
            value,
            cfg,
            pi_opt,
            vf_opt,
            update_rng,
            pi_chunks,
            vf_chunks,
            drawn,
        } = self;

        for it in 0..cfg.train_pi_iters {
            let t0 = Instant::now();
            let rows = IterRows::draw(cfg, update_rng, batch, drawn);
            let n = rows.len();
            let chunks = chunks_for(pi_chunks, n, fused);
            rows.gather(chunks);
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let fp = policy.fused().filter(|_| fused);
            match &fp {
                Some(fp) => par_chunks(chunks, |c, chunk| {
                    let v = rows.chunk(c, &chunk.staged, od, na);
                    let m = v.actions.len();
                    fused::policy_forward(fp, v.obs, v.masks, v.actions, m, chunk.state.fused());
                }),
                None => {
                    for (c, chunk) in chunks.iter_mut().enumerate() {
                        let v = rows.chunk(c, &chunk.staged, od, na);
                        chunk.state.tape().policy_forward(&*policy, &v, cfg, n);
                    }
                }
            }
            let t2 = Instant::now();
            prof.forward += t2 - t1;

            // Diagnostics before committing to a backward pass.
            let kl: f64 = chunks
                .iter()
                .enumerate()
                .flat_map(|(c, chunk)| {
                    let v = rows.chunk(c, &chunk.staged, od, na);
                    v.logp_old.iter().zip(chunk.selected_logp())
                })
                .map(|(&o, &nw)| (o - nw) as f64)
                .sum::<f64>()
                / n as f64;
            stats.approx_kl = kl;
            if kl > 1.5 * cfg.target_kl && it > 0 {
                break;
            }
            match &fp {
                Some(fp) => par_chunks(chunks, |c, chunk| {
                    let v = rows.chunk(c, &chunk.staged, od, na);
                    (chunk.loss, chunk.ent) = fused::policy_backward_scaled(
                        fp,
                        v.obs,
                        v.actions,
                        v.advantages,
                        v.logp_old,
                        cfg.clip_ratio,
                        cfg.ent_coef,
                        v.actions.len(),
                        n,
                        chunk.state.fused(),
                    );
                }),
                None => {
                    for c in chunks.iter_mut() {
                        (c.loss, c.ent) = c.state.tape().backward();
                    }
                }
            }
            let (obj, ent) = chunks
                .iter()
                .fold((0.0f32, 0.0f32), |(o, e), c| (o + c.loss, e + c.ent));
            let mut loss = -(obj / n as f32);
            if cfg.ent_coef != 0.0 {
                loss += (ent / n as f32) * cfg.ent_coef;
            }
            merge_chunk_grads(chunks);
            prof.backward += t2.elapsed();
            if it == 0 {
                stats.pi_loss_before = loss;
                let rows = chunks.iter().flat_map(|c| c.logp_all().chunks_exact(na));
                stats.entropy = mean_entropy(rows, n);
            }
            stats.pi_loss_after = loss;

            let t3 = Instant::now();
            let grads = chunks[0].grads_mut();
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(grads, mx);
            }
            match policy.fused_mut().filter(|_| fused) {
                Some(mlp) => pi_opt.step_params(layer_params(mlp), grads),
                None => pi_opt.step(&mut policy.params_mut(), grads),
            }
            prof.optimizer += t3.elapsed();
            stats.pi_iters = it + 1;
        }

        for it in 0..cfg.train_v_iters {
            let t0 = Instant::now();
            let rows = IterRows::draw(cfg, update_rng, batch, drawn);
            let n = rows.len();
            let chunks = chunks_for(vf_chunks, n, fused);
            rows.gather(chunks);
            let t1 = Instant::now();
            prof.gather += t1 - t0;
            let vm = value.fused().filter(|_| fused);
            match vm {
                Some(vm) => par_chunks(chunks, |c, chunk| {
                    let v = rows.chunk(c, &chunk.staged, od, na);
                    fused::value_forward(vm, v.obs, v.returns.len(), chunk.state.fused());
                }),
                None => {
                    for (c, chunk) in chunks.iter_mut().enumerate() {
                        let v = rows.chunk(c, &chunk.staged, od, na);
                        chunk.state.tape().value_forward(&*value, &v, n);
                    }
                }
            }
            let t2 = Instant::now();
            prof.forward += t2 - t1;
            match vm {
                Some(vm) => par_chunks(chunks, |c, chunk| {
                    let v = rows.chunk(c, &chunk.staged, od, na);
                    let m = v.returns.len();
                    chunk.loss = fused::value_backward_scaled(
                        vm,
                        v.obs,
                        v.returns,
                        m,
                        n,
                        chunk.state.fused(),
                    );
                }),
                None => {
                    for c in chunks.iter_mut() {
                        c.loss = c.state.tape().backward().0;
                    }
                }
            }
            let loss = chunks.iter().fold(0.0f32, |s, c| s + c.loss) / n as f32;
            merge_chunk_grads(chunks);
            prof.backward += t2.elapsed();
            if it == 0 {
                stats.v_loss_before = loss;
            }
            stats.v_loss_after = loss;

            let t3 = Instant::now();
            let grads = chunks[0].grads_mut();
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(grads, mx);
            }
            match value.fused_mut().filter(|_| fused) {
                Some(mlp) => vf_opt.step_params(layer_params(mlp), grads),
                None => vf_opt.step(&mut value.params_mut(), grads),
            }
            prof.optimizer += t3.elapsed();
        }
        stats
    }
}

/// An MLP's trainable tensors in bind order (`w0, b0, w1, b1, …`),
/// walked in place so the fused optimizer step allocates nothing.
fn layer_params(mlp: &mut Mlp) -> impl Iterator<Item = &mut Tensor> {
    mlp.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b])
}

/// The chunk slots for an `n`-row minibatch, each holding `fused`'s
/// backend state (grown on first use, kept across iterations).
fn chunks_for(store: &mut Vec<Chunk>, n: usize, fused: bool) -> &mut [Chunk] {
    let k = n.div_ceil(SHARD_ROWS);
    if store.len() < k {
        store.resize_with(k, || Chunk {
            state: ChunkState::new(fused),
            staged: MiniBuf::default(),
            loss: 0.0,
            ent: 0.0,
        });
    }
    let chunks = &mut store[..k];
    for c in chunks.iter_mut() {
        if fused != matches!(c.state, ChunkState::Fused(_)) {
            c.state = ChunkState::new(fused);
        }
    }
    chunks
}

/// Run `f(chunk_index, chunk)` over every chunk on the rayon shim's
/// workers. Each chunk is one fixed task, so the results are identical
/// at every worker count; with one worker the loop runs inline and
/// allocates nothing.
fn par_chunks(chunks: &mut [Chunk], f: impl Fn(usize, &mut Chunk) + Sync) {
    use rayon::prelude::*;
    chunks
        .par_chunks_mut(1)
        .enumerate()
        .for_each(|(c, one)| f(c, &mut one[0]));
}

/// Reduce the chunks' gradient partials into chunk 0 with a
/// chunk-index-ordered binary tree (level 0 merges (0,1),(2,3),…; level
/// 1 merges (0,2),(4,6),…). The association is fixed by chunk index
/// alone, so the merged bits are independent of how many workers ran the
/// chunks, and of the backend that computed them.
fn merge_chunk_grads(chunks: &mut [Chunk]) {
    let n = chunks.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (head, tail) = chunks.split_at_mut(i + stride);
            for (d, src) in head[i].grads_mut().iter_mut().zip(tail[0].grads_mut()) {
                for (dv, &sv) in d.data_mut().iter_mut().zip(src.data()) {
                    *dv += sv;
                }
            }
            i += stride * 2;
        }
        stride *= 2;
    }
}

/// One fixed [`SHARD_ROWS`]-row chunk of a minibatch iteration: its
/// drawn minibatch rows, its backend's forward stash and gradient
/// partial, plus its loss partial sums (row-ascending f32 folds, folded
/// again in chunk order).
struct Chunk {
    state: ChunkState,
    /// The chunk's rows of a drawn minibatch, gathered on the worker that
    /// runs the chunk (unused when the iteration runs on the whole
    /// batch).
    staged: MiniBuf,
    /// `Σ min(s1, s2)` (actor) or `Σ (v − R)²` (critic) over the rows.
    loss: f32,
    /// `Σ p·logp` over the rows (actor; 0 without an entropy bonus).
    ent: f32,
}

/// The two chunk backends of the minibatch loop.
enum ChunkState {
    /// The tape-free fused kernels.
    Fused(fused::FusedScratch),
    /// A per-chunk autodiff tape (the reference, and the only backend
    /// for architectures the fused kernels do not describe).
    Tape(TapeChunk),
}

impl ChunkState {
    fn new(fused: bool) -> Self {
        if fused {
            ChunkState::Fused(fused::FusedScratch::new())
        } else {
            ChunkState::Tape(TapeChunk::default())
        }
    }

    fn fused(&mut self) -> &mut fused::FusedScratch {
        match self {
            ChunkState::Fused(s) => s,
            ChunkState::Tape(_) => unreachable!("chunk prepared for the tape backend"),
        }
    }

    fn tape(&mut self) -> &mut TapeChunk {
        match self {
            ChunkState::Tape(t) => t,
            ChunkState::Fused(_) => unreachable!("chunk prepared for the fused backend"),
        }
    }
}

impl Chunk {
    /// Masked log-probs `[rows, n_actions]` of the last actor forward.
    fn logp_all(&self) -> &[f32] {
        match &self.state {
            ChunkState::Fused(s) => s.logp_all(),
            ChunkState::Tape(t) => t.value(t.logp().0),
        }
    }

    /// Selected per-row log-probs of the last actor forward.
    fn selected_logp(&self) -> &[f32] {
        match &self.state {
            ChunkState::Fused(s) => s.selected_logp(),
            ChunkState::Tape(t) => t.value(t.logp().1),
        }
    }

    /// Gradient partial of the last backward, in bind order.
    fn grads_mut(&mut self) -> &mut [Tensor] {
        match &mut self.state {
            ChunkState::Fused(s) => s.grads_mut(),
            ChunkState::Tape(t) => &mut t.grads,
        }
    }
}

/// The tape backend's chunk state: one reusable [`Graph`] holding the
/// chunk's loss graph from forward to backward, and the chunk's
/// gradient partial.
///
/// The graph ends in `Σ`-then-`scale` nodes whose constants are the
/// fused kernels' mean seeds (`−1/total`, `ent_coef/total`, `1/total`
/// for a `total`-row minibatch), so the backward seeds every row
/// exactly as [`fused::policy_backward_scaled`] /
/// [`fused::value_backward_scaled`] do and the partials match them bit
/// for bit.
#[derive(Default)]
struct TapeChunk {
    g: Graph,
    binds: ParamBinds,
    vars: Option<TapeVars>,
    grads: Vec<Tensor>,
}

/// Handles into a [`TapeChunk`]'s graph, set by its forward.
#[derive(Clone, Copy)]
struct TapeVars {
    /// The scalar the backward starts from.
    root: Var,
    /// Per-row loss terms: `min(s1, s2)` (actor) or `(v − R)²` (critic).
    terms: Var,
    /// Per-row `Σ p·logp` (actor with an entropy bonus).
    ent_rows: Option<Var>,
    /// Masked log-probs and their selected column (actor).
    logp: Option<(Var, Var)>,
}

impl TapeChunk {
    fn value(&self, v: Var) -> &[f32] {
        self.g.value(v).data()
    }

    fn logp(&self) -> (Var, Var) {
        self.vars
            .and_then(|v| v.logp)
            .expect("run an actor forward first")
    }

    /// Build the clipped-surrogate (+ entropy) graph over the chunk's
    /// rows of a `total`-row minibatch.
    fn policy_forward<P: PolicyModel>(
        &mut self,
        policy: &P,
        v: &ViewRef<'_>,
        cfg: &PpoConfig,
        total: usize,
    ) {
        let TapeChunk { g, binds, .. } = self;
        let n = v.actions.len();
        g.reset();
        binds.clear();
        let o = g.input_from(v.obs, &[n, v.obs.len() / n]);
        let m = g.input_from(v.masks, &[n, v.masks.len() / n]);
        let logp_all = policy.log_probs(g, o, m, binds);
        let logp = g.select_cols(logp_all, v.actions);

        // ratio = exp(logp − logp_old)
        let old = g.input_from(v.logp_old, &[n]);
        let diff = g.sub(logp, old);
        let ratio = g.exp(diff);
        let advv = g.input_from(v.advantages, &[n]);
        let surr1 = g.mul(ratio, advv);
        let eps = cfg.clip_ratio;
        let clipped = g.clamp(ratio, 1.0 - eps, 1.0 + eps);
        let surr2 = g.mul(clipped, advv);
        let obj = g.min_elem(surr1, surr2);
        let obj_sum = g.sum(obj);
        let mut root = g.scale(obj_sum, -1.0 / total as f32);

        let mut ent_rows = None;
        if cfg.ent_coef != 0.0 {
            // Σ p·logp per row; masked slots contribute 0.
            let p = g.exp(logp_all);
            let plogp = g.mul(p, logp_all);
            let row = g.sum_rows(plogp);
            let ent_sum = g.sum(row);
            let weighted = g.scale(ent_sum, cfg.ent_coef / total as f32);
            root = g.add(root, weighted);
            ent_rows = Some(row);
        }
        self.vars = Some(TapeVars {
            root,
            terms: obj,
            ent_rows,
            logp: Some((logp_all, logp)),
        });
    }

    /// Build the squared-error graph over the chunk's rows of a
    /// `total`-row minibatch.
    fn value_forward<V: ValueModel>(&mut self, value: &V, v: &ViewRef<'_>, total: usize) {
        let TapeChunk { g, binds, .. } = self;
        let n = v.returns.len();
        g.reset();
        binds.clear();
        let o = g.input_from(v.obs, &[n, v.obs.len() / n]);
        let pred = value.values(g, o, binds);
        let r = g.input_from(v.returns, &[n, 1]);
        let d = g.sub(pred, r);
        let sq = g.mul(d, d);
        let sq_sum = g.sum(sq);
        let root = g.scale(sq_sum, 1.0 / total as f32);
        self.vars = Some(TapeVars {
            root,
            terms: sq,
            ent_rows: None,
            logp: None,
        });
    }

    /// Backward from the root, copy the parameter gradients into the
    /// chunk's partial, and return the `(Σ terms, Σ ent_rows)` partial
    /// sums (row-ascending, like the fused kernels' folds).
    fn backward(&mut self) -> (f32, f32) {
        let vars = self.vars.expect("run a tape forward first");
        self.g.backward(vars.root);
        if self.grads.len() != self.binds.vars().len() {
            self.grads = self.binds.take_grads(&mut self.g);
        } else {
            for (dst, &p) in self.grads.iter_mut().zip(self.binds.vars()) {
                match self.g.grad(p) {
                    Some(gr) => dst.data_mut().copy_from_slice(gr.data()),
                    None => dst.data_mut().fill(0.0),
                }
            }
        }
        let sum = |v: Var| self.value(v).iter().fold(0.0f32, |a, &x| a + x);
        (sum(vars.terms), vars.ent_rows.map_or(0.0, sum))
    }
}

/// The rows of one update iteration: the whole batch, or a random
/// minibatch (drawn with replacement) whose rows each chunk gathers into
/// its own staging buffers.
#[derive(Clone, Copy)]
struct IterRows<'a> {
    batch: &'a Batch,
    /// The iteration's batch rows in order (all of them for the whole
    /// batch).
    idx: &'a [usize],
    /// True when `idx` is a drawn minibatch.
    drawn: bool,
}

impl<'a> IterRows<'a> {
    /// Draw the iteration's minibatch indices from `rng` into `idx` when
    /// one is configured and smaller than the batch — all of them, in
    /// row order, before any row is gathered.
    fn draw(
        cfg: &PpoConfig,
        rng: &mut rand::rngs::StdRng,
        batch: &'a Batch,
        idx: &'a mut Vec<usize>,
    ) -> Self {
        let n = batch.len();
        idx.clear();
        let drawn = match cfg.minibatch {
            Some(size) if size < n => {
                idx.extend((0..size).map(|_| rng.gen_range(0..n)));
                true
            }
            _ => {
                idx.extend(0..n);
                false
            }
        };
        IterRows { batch, idx, drawn }
    }

    fn len(&self) -> usize {
        self.idx.len()
    }

    /// Gather every chunk's drawn rows into its staging buffers, each on
    /// the worker that runs the chunk (nothing to do for the whole
    /// batch).
    fn gather(&self, chunks: &mut [Chunk]) {
        if self.drawn {
            par_chunks(chunks, |c, chunk| {
                let idx = &self.idx[chunk_range(c, self.idx.len())];
                chunk.staged.fill(self.batch, idx);
            });
        }
    }

    /// Chunk `c`'s rows: its staged minibatch rows, or its slice of the
    /// whole batch. `od`/`na` are the observation/mask widths of one row.
    fn chunk<'s>(&'s self, c: usize, staged: &'s MiniBuf, od: usize, na: usize) -> ViewRef<'s> {
        if self.drawn {
            return ViewRef {
                obs: &staged.obs,
                masks: &staged.masks,
                actions: &staged.actions,
                advantages: &staged.advantages,
                returns: &staged.returns,
                logp_old: &staged.logp_old,
            };
        }
        let b = self.batch;
        let r = chunk_range(c, b.len());
        ViewRef {
            obs: &b.obs.data()[r.start * od..r.end * od],
            masks: &b.masks.data()[r.start * na..r.end * na],
            actions: &b.actions[r.clone()],
            advantages: &b.advantages[r.clone()],
            returns: &b.returns[r.clone()],
            logp_old: &b.logp_old[r],
        }
    }
}

/// Chunk `c`'s rows of an `n`-row iteration:
/// `[c·SHARD_ROWS, min((c+1)·SHARD_ROWS, n))`.
fn chunk_range(c: usize, n: usize) -> std::ops::Range<usize> {
    let lo = c * SHARD_ROWS;
    lo..(lo + SHARD_ROWS).min(n)
}

/// Borrowed view of one chunk's working set.
struct ViewRef<'a> {
    obs: &'a [f32],
    masks: &'a [f32],
    actions: &'a [usize],
    advantages: &'a [f32],
    returns: &'a [f32],
    logp_old: &'a [f32],
}

/// Reusable minibatch staging buffers for one chunk (refilled every
/// iteration, never reallocated at steady state).
#[derive(Default)]
struct MiniBuf {
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
    logp_old: Vec<f32>,
}

impl MiniBuf {
    /// Gather rows `idx` of `batch` into the buffers.
    fn fill(&mut self, batch: &Batch, idx: &[usize]) {
        let obs_dim = batch.obs.cols();
        let n_actions = batch.masks.cols();
        self.obs.clear();
        self.masks.clear();
        self.actions.clear();
        self.advantages.clear();
        self.returns.clear();
        self.logp_old.clear();
        for &i in idx {
            self.obs
                .extend_from_slice(&batch.obs.data()[i * obs_dim..(i + 1) * obs_dim]);
            self.masks
                .extend_from_slice(&batch.masks.data()[i * n_actions..(i + 1) * n_actions]);
            self.actions.push(batch.actions[i]);
            self.advantages.push(batch.advantages[i]);
            self.returns.push(batch.returns[i]);
            self.logp_old.push(batch.logp_old[i]);
        }
    }
}

/// Mean entropy of `m` log-prob rows (folded in row order).
fn mean_entropy<'a>(rows: impl Iterator<Item = &'a [f32]>, m: usize) -> f32 {
    let mut total = 0.0;
    for row in rows {
        total += MaskedCategorical::new(row).entropy();
    }
    total / m as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ArrivalArena;
    use crate::categorical::MASK_OFF;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlsched_nn::{Activation, Mlp, Network};

    /// A plain MLP policy over flat observations (the "MLP v2" baseline of
    /// Table IV in miniature).
    struct MlpPolicy {
        net: Mlp,
    }

    impl MlpPolicy {
        fn new(obs_dim: usize, n_actions: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            MlpPolicy {
                net: Mlp::new(
                    &[obs_dim, 16, n_actions],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                ),
            }
        }
    }

    impl PolicyModel for MlpPolicy {
        fn log_probs(&self, g: &mut Graph, obs: Var, mask: Var, binds: &mut ParamBinds) -> Var {
            let logits = self.net.forward(g, obs, binds);
            let masked = g.add(logits, mask);
            g.log_softmax(masked)
        }
        fn params(&self) -> Vec<&Tensor> {
            self.net.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.net.params_mut()
        }
    }

    struct MlpValue {
        net: Mlp,
    }

    impl MlpValue {
        fn new(obs_dim: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            MlpValue {
                net: Mlp::new(
                    &[obs_dim, 16, 1],
                    Activation::Tanh,
                    Activation::Identity,
                    &mut rng,
                ),
            }
        }
    }

    impl ValueModel for MlpValue {
        fn values(&self, g: &mut Graph, obs: Var, binds: &mut ParamBinds) -> Var {
            self.net.forward(g, obs, binds)
        }
        fn params(&self) -> Vec<&Tensor> {
            self.net.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.net.params_mut()
        }
    }

    fn agent(n_actions: usize) -> Ppo<MlpPolicy, MlpValue> {
        let cfg = PpoConfig {
            train_pi_iters: 20,
            train_v_iters: 20,
            ..PpoConfig::default()
        };
        Ppo::new(MlpPolicy::new(2, n_actions, 1), MlpValue::new(2, 2), cfg)
    }

    #[test]
    fn logp_rows_are_normalized_and_masked() {
        let ppo = agent(4);
        let mask = vec![0.0, MASK_OFF, 0.0, 0.0];
        let logp = ppo.logp_row(&[0.5, 1.0], &mask);
        let sum: f32 = logp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(logp[1] < -1e8, "masked slot has ~zero probability");
    }

    #[test]
    fn select_never_picks_masked() {
        let ppo = agent(4);
        let mask = vec![MASK_OFF, 0.0, MASK_OFF, 0.0];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let (a, logp, _v) = ppo.select(&[0.1, 0.2], &mask, &mut rng);
            assert!(a == 1 || a == 3);
            assert!(logp.is_finite());
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let ppo = agent(4);
        let mask = vec![0.0; 4];
        let a = ppo.greedy(&[0.3, -0.2], &mask);
        for _ in 0..10 {
            assert_eq!(ppo.greedy(&[0.3, -0.2], &mask), a);
        }
    }

    /// The contextual-bandit learning test: rewards favor action
    /// `n_actions-1`; after a few updates the policy should, too.
    #[test]
    fn ppo_learns_a_bandit() {
        use crate::env::test_env::BanditEnv;
        use crate::env::Env;
        let n_actions = 4;
        let mut ppo = agent(n_actions);
        let mut env = BanditEnv::new(n_actions, 8, vec![]);
        let mut rng = StdRng::seed_from_u64(3);

        let mut last_mean = 0.0;
        for _epoch in 0..30 {
            let mut buf = ArrivalArena::new(2, n_actions, ppo.cfg.gamma, ppo.cfg.lam, 8);
            let mut metrics = Vec::new();
            let (mut obs, mut mask) = (Vec::new(), Vec::new());
            let (mut next_obs, mut next_mask) = (Vec::new(), Vec::new());
            for ep in 0..8 {
                // Manual single-env driving: clear the append-contract
                // buffers before each env write.
                obs.clear();
                mask.clear();
                env.reset(ep, &mut obs, &mut mask);
                loop {
                    let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
                    next_obs.clear();
                    next_mask.clear();
                    let out = env.step(a, &mut next_obs, &mut next_mask);
                    buf.store(ep as usize, &obs, &mask, a, out.reward, v, logp);
                    if out.done {
                        buf.finish_episode(ep as usize, 0.0);
                        metrics.push(out.episode_metric.unwrap());
                        break;
                    }
                    std::mem::swap(&mut obs, &mut next_obs);
                    std::mem::swap(&mut mask, &mut next_mask);
                }
            }
            last_mean = metrics.iter().sum::<f64>() / metrics.len() as f64;
            ppo.update(&buf.into_batch());
        }
        // Max achievable per episode is 8 * 3/4 = 6; random is ~3.
        assert!(last_mean > 4.5, "bandit mean reward {last_mean}");
        // And greedy should pick the best arm.
        let a = ppo.greedy(&[0.0, 1.0], &vec![0.0; n_actions]);
        assert_eq!(a, n_actions - 1, "greedy should pick the best arm");
    }

    #[test]
    fn update_reports_sane_stats() {
        let mut ppo = agent(3);
        let mut buf = ArrivalArena::new(2, 3, 1.0, 0.97, 4);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..32 {
            let obs = [i as f32 / 32.0, 0.5];
            let mask = vec![0.0, 0.0, 0.0];
            let (a, logp, v) = ppo.select(&obs, &mask, &mut rng);
            let r = if i % 8 == 7 { -(i as f64) } else { 0.0 };
            buf.store(i / 8, &obs, &mask, a, r, v, logp);
            if i % 8 == 7 {
                buf.finish_episode(i / 8, 0.0);
            }
        }
        let batch = buf.into_batch();
        let stats = ppo.update(&batch);
        assert!(stats.pi_iters >= 1);
        assert!(stats.entropy > 0.0 && stats.entropy <= (3.0f32).ln() + 1e-4);
        assert!(
            stats.v_loss_after <= stats.v_loss_before,
            "value net must improve on its batch"
        );
        assert!(stats.approx_kl.is_finite());
    }

    #[test]
    fn value_function_fits_constant_returns() {
        let cfg = PpoConfig {
            train_pi_iters: 5,
            train_v_iters: 40,
            vf_lr: 0.05,
            ..PpoConfig::default()
        };
        let mut ppo = Ppo::new(MlpPolicy::new(2, 3, 1), MlpValue::new(2, 2), cfg);
        let mut buf = ArrivalArena::new(2, 3, 1.0, 1.0, 16);
        let mut rng = StdRng::seed_from_u64(11);
        for ep in 0..16 {
            let obs = [0.5, 0.5];
            let (a, logp, v) = ppo.select(&obs, &[0.0, 0.0, 0.0], &mut rng);
            buf.store(ep, &obs, &[0.0, 0.0, 0.0], a, -7.0, v, logp);
            buf.finish_episode(ep, 0.0);
        }
        let batch = buf.into_batch();
        for _ in 0..5 {
            ppo.update(&batch);
        }
        let v = ppo.value_of(&[0.5, 0.5]);
        assert!((v + 7.0).abs() < 1.5, "value {v} should approach -7");
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn update_rejects_empty_batch() {
        let mut ppo = agent(3);
        let batch = Batch {
            obs: Tensor::zeros(&[0, 2]),
            masks: Tensor::zeros(&[0, 3]),
            actions: vec![],
            advantages: vec![],
            returns: vec![],
            logp_old: vec![],
        };
        ppo.update(&batch);
    }
}
