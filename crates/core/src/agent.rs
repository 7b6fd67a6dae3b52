//! The RLScheduler agent: policy + value networks behind a PPO trainer,
//! with checkpointing and a [`rlsched_sim::Policy`] adapter so a trained
//! model schedules jobs exactly like any heuristic (Tables V–XI).

use serde::{Deserialize, Serialize};

use rlsched_rl::{greedy_batch, ActorScratch, PolicyModel, Ppo, PpoConfig};
use rlsched_sim::{MetricKind, Policy, QueueView, WaitingJob};

use crate::nets::{PackedScorer, PolicyKind, PolicyNet, ScorerSnapshot, ValueNet};
use crate::obs::{ObsConfig, ObsEncoder};
use crate::reward::Objective;

/// Everything needed to reconstruct an agent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Policy architecture (Table IV).
    pub policy: PolicyKind,
    /// Observation encoding.
    pub obs: ObsConfig,
    /// The optimization goal the agent is trained for.
    pub metric: MetricKind,
    /// PPO hyperparameters.
    pub ppo: PpoConfig,
    /// Weight-initialization / update seed.
    pub seed: u64,
}

impl AgentConfig {
    /// The paper's default agent: kernel policy over 128 observable jobs,
    /// trained for average bounded slowdown.
    pub fn paper_default() -> Self {
        AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig::default(),
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed: 0,
        }
    }

    /// Same defaults with a different metric.
    pub fn for_metric(metric: MetricKind) -> Self {
        AgentConfig {
            metric,
            ..Self::paper_default()
        }
    }
}

/// A (possibly trained) RLScheduler agent.
pub struct Agent {
    cfg: AgentConfig,
    encoder: ObsEncoder,
    ppo: Ppo<PolicyNet, ValueNet>,
}

/// On-disk checkpoint layout.
#[derive(Serialize, Deserialize)]
struct Checkpoint {
    cfg: AgentConfig,
    policy: PolicyNet,
    value: ValueNet,
}

impl Agent {
    /// Fresh agent with randomly initialized networks.
    pub fn new(cfg: AgentConfig) -> Self {
        let encoder = ObsEncoder::new(cfg.obs);
        let mut ppo_cfg = cfg.ppo;
        ppo_cfg.update_seed = cfg.seed;
        let policy = PolicyNet::build(cfg.policy, cfg.obs.max_obsv, cfg.seed);
        let value = ValueNet::new(cfg.obs.max_obsv, cfg.seed.wrapping_add(1));
        let ppo = Ppo::new(policy, value, ppo_cfg);
        Agent { cfg, encoder, ppo }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// The observation encoder.
    pub fn encoder(&self) -> &ObsEncoder {
        &self.encoder
    }

    /// The objective derived from the configured metric.
    pub fn objective(&self) -> Objective {
        Objective::new(self.cfg.metric)
    }

    /// The underlying PPO trainer.
    pub fn ppo(&self) -> &Ppo<PolicyNet, ValueNet> {
        &self.ppo
    }

    /// Mutable access for the training loop.
    pub fn ppo_mut(&mut self) -> &mut Ppo<PolicyNet, ValueNet> {
        &mut self.ppo
    }

    /// Policy parameter count (Table IV / §IV-B1).
    pub fn policy_param_count(&self) -> usize {
        self.ppo.policy.param_count()
    }

    /// Inference entry point: greedy action for an already-encoded
    /// observation window, through the allocation-free fast path (no
    /// autodiff tape). Implemented for every Table IV `PolicyKind`.
    pub fn score(&self, obs: &[f32], mask: &[f32], scratch: &mut ActorScratch) -> usize {
        self.ppo.greedy_with(obs, mask, scratch)
    }

    /// Masking guarantees the chosen slot `< waiting.len()`; clamp
    /// defensively anyway (shared by every decision entry point).
    fn clamp_to_queue(view: &QueueView<'_>, a: usize) -> usize {
        a.min(view.waiting.len().saturating_sub(1))
    }

    /// Greedy (test-time) action for a raw queue view through
    /// caller-owned buffers: encode, score, clamp — the single decision
    /// path every other entry point delegates to.
    pub fn greedy_select_with(
        &self,
        view: &QueueView<'_>,
        obs: &mut Vec<f32>,
        mask: &mut Vec<f32>,
        scratch: &mut ActorScratch,
    ) -> usize {
        self.encoder.encode_into(view, obs, mask);
        Self::clamp_to_queue(view, self.score(obs, mask, scratch))
    }

    /// Greedy (test-time) action for a raw queue view. Allocates per
    /// call; scheduling loops should use [`Agent::as_policy`] (which
    /// carries its own buffers) or [`Agent::greedy_select_with`].
    pub fn greedy_select(&self, view: &QueueView<'_>) -> usize {
        self.greedy_select_with(
            view,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut ActorScratch::new(),
        )
    }

    /// Greedy actions for several concurrent queue views through **one**
    /// batched forward: the views stack into a `[views, obs_dim]` matrix,
    /// so the policy's weight stream is amortized across all of them —
    /// what a sharded scheduling server wants for simultaneous requests.
    /// The scoring runs through the same [`rlsched_rl::BatchPolicy`] path as training
    /// rollouts and greedy evaluation. All buffers are caller-owned; for
    /// the kernel and flat-MLP policies the call is allocation-free at
    /// steady state (the CNN has no batched forward and loops per view
    /// with a temporary row buffer). Since the forward kernels are
    /// row-count invariant, row `i` of `actions` is exactly
    /// [`Agent::score`] on view `i` alone.
    pub fn score_batch_with(
        &self,
        views: &[QueueView<'_>],
        obs: &mut Vec<f32>,
        mask: &mut Vec<f32>,
        scratch: &mut ActorScratch,
        actions: &mut Vec<usize>,
    ) {
        assert!(!views.is_empty(), "score_batch needs at least one view");
        obs.clear();
        mask.clear();
        for view in views {
            self.encoder.encode_extend(view, obs, mask);
        }
        self.ppo
            .greedy_batch_with(obs, mask, views.len(), scratch, actions);
        for (a, view) in actions.iter_mut().zip(views) {
            *a = Self::clamp_to_queue(view, *a);
        }
    }

    /// [`Agent::score_batch_with`] through thread-local reusable buffers:
    /// the convenience API pays the same zero-allocation discipline as
    /// the explicit-scratch variant — at steady state the only heap
    /// traffic per call is the returned `Vec` itself (pinned by the
    /// alloc-regression suite). Loops that can hold buffers should still
    /// prefer [`Agent::score_batch_with`], which also reuses the output.
    pub fn score_batch(&self, views: &[QueueView<'_>]) -> Vec<usize> {
        thread_local! {
            static SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>, ActorScratch)> =
                std::cell::RefCell::new((Vec::new(), Vec::new(), ActorScratch::new()));
        }
        SCRATCH.with(|cell| {
            let (obs, mask, scratch) = &mut *cell.borrow_mut();
            let mut actions = Vec::with_capacity(views.len());
            self.score_batch_with(views, obs, mask, scratch, &mut actions);
            actions
        })
    }

    /// A frozen, `Arc`-shared scoring replica for serving tiers (see
    /// [`ScorerSnapshot`]): same per-architecture representation as
    /// [`Agent::as_policy`], so served decisions reproduce the policy
    /// adapter's bits exactly. Re-take after training; a live server
    /// hot-swaps the fresh snapshot in without dropping requests.
    pub fn scorer_snapshot(&self) -> ScorerSnapshot {
        ScorerSnapshot::new(
            &self.ppo.policy,
            self.encoder.obs_dim(),
            self.encoder.n_actions(),
        )
    }

    /// Greedy action through the full autodiff tape — the benchmark
    /// baseline the fast path is measured against (`decision_latency`).
    pub fn greedy_select_tape(&self, view: &QueueView<'_>) -> usize {
        let (obs, mask) = self.encoder.encode(view);
        Self::clamp_to_queue(view, self.ppo.greedy_tape(&obs, &mask))
    }

    /// Borrow the agent as a simulator policy (inference only). The
    /// returned policy owns encode and network scratch buffers, so
    /// repeated decisions allocate nothing. Flat-MLP policies also take a
    /// weight-transposed [`PackedScorer`] snapshot here (safe: the borrow
    /// freezes the agent's weights for the policy's lifetime) so their
    /// decisions run the cache-friendly transposed layout — through the
    /// same [`rlsched_rl::BatchPolicy`] scoring path as batch serving.
    pub fn as_policy(&self) -> RlPolicy<'_> {
        RlPolicy {
            agent: self,
            name: format!("RL-{}", self.cfg.metric.name()),
            scratch: ActorScratch::new(),
            obs: Vec::new(),
            mask: Vec::new(),
            packed: self.ppo.policy.packed_scorer(),
            actions: Vec::new(),
        }
    }

    /// Borrow the agent as a *streaming* decision head: the same frozen
    /// weights, packed-scorer fast path, and owned buffers as
    /// [`Agent::as_policy`], but fed straight from a waiting-job iterator
    /// (no [`QueueView`] is ever materialized) — what a one-pass
    /// trace-scale replay drives. Decisions are bit-identical to
    /// [`RlPolicy::select`] on the equivalent view: both funnel through
    /// the same encode loop and scoring kernels.
    pub fn stream_decider(&self) -> StreamDecider<'_> {
        StreamDecider {
            agent: self,
            scratch: ActorScratch::new(),
            obs: Vec::new(),
            mask: Vec::new(),
            packed: self.ppo.policy.packed_scorer(),
            actions: Vec::new(),
        }
    }

    /// Serialize configuration and weights to JSON.
    pub fn save_json(&self) -> String {
        let ckpt = Checkpoint {
            cfg: self.cfg.clone(),
            policy: self.ppo.policy.clone(),
            value: self.ppo.value.clone(),
        };
        serde_json::to_string(&ckpt).expect("agent serialization is infallible")
    }

    /// Restore an agent (fresh optimizer state) from [`Agent::save_json`]
    /// output. Rejects a checkpoint whose `ppo.minibatch` is `Some(0)`:
    /// an empty minibatch has no gradient to step on.
    pub fn load_json(s: &str) -> Result<Agent, serde_json::Error> {
        let ckpt: Checkpoint = serde_json::from_str(s)?;
        if ckpt.cfg.ppo.minibatch == Some(0) {
            return Err(serde_json::Error::custom(
                "checkpoint field `ppo.minibatch` must be at least 1",
            ));
        }
        let encoder = ObsEncoder::new(ckpt.cfg.obs);
        let mut ppo_cfg = ckpt.cfg.ppo;
        ppo_cfg.update_seed = ckpt.cfg.seed;
        let ppo = Ppo::new(ckpt.policy, ckpt.value, ppo_cfg);
        Ok(Agent {
            cfg: ckpt.cfg,
            encoder,
            ppo,
        })
    }
}

/// A trained agent plugged into the episode driver: selects greedily, no
/// exploration (§IV-B1's test path). Owns the encode and inference
/// buffers, so steady-state decisions are allocation-free. For flat-MLP
/// agents it also carries a weight-transposed [`PackedScorer`] snapshot
/// (taken while the agent borrow freezes the weights) and serves
/// decisions through it as 1-row [`rlsched_rl::BatchPolicy`] scoring calls.
pub struct RlPolicy<'a> {
    agent: &'a Agent,
    name: String,
    scratch: ActorScratch,
    obs: Vec<f32>,
    mask: Vec<f32>,
    packed: Option<PackedScorer>,
    actions: Vec<usize>,
}

impl Policy for RlPolicy<'_> {
    fn select(&mut self, view: &QueueView<'_>) -> usize {
        let Some(packed) = &self.packed else {
            return self.agent.greedy_select_with(
                view,
                &mut self.obs,
                &mut self.mask,
                &mut self.scratch,
            );
        };
        // Transposed-layout serving path: same encode, same masked
        // log-softmax tail, but the dense forwards read `[out, in]`
        // weights as contiguous dot products (NT kernel), batch size 1.
        // The packed accumulation order can differ from the tape's in
        // the last few ulps, so decisions match the unpacked path except
        // on floating-point near-ties.
        self.agent
            .encoder
            .encode_into(view, &mut self.obs, &mut self.mask);
        greedy_batch(
            packed,
            &self.obs,
            &self.mask,
            1,
            &mut self.scratch,
            &mut self.actions,
        );
        Agent::clamp_to_queue(view, self.actions[0])
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A trained agent's decision head for streaming replay: encodes a
/// decision point directly from a waiting-job iterator and scores it
/// greedily, reusing owned buffers so steady-state decisions are
/// allocation-free. Mirrors [`RlPolicy::select`] bit for bit (same
/// encoder loop, same packed/unpacked scoring split, same clamp).
pub struct StreamDecider<'a> {
    agent: &'a Agent,
    scratch: ActorScratch,
    obs: Vec<f32>,
    mask: Vec<f32>,
    packed: Option<PackedScorer>,
    actions: Vec<usize>,
}

impl StreamDecider<'_> {
    /// Pick a queue rank for one decision point. `queue_len` must be the
    /// number of jobs `waiting` yields (FCFS order, as the simulator
    /// streams them).
    pub fn decide<'j>(
        &mut self,
        free_procs: u32,
        total_procs: u32,
        queue_len: usize,
        waiting: impl Iterator<Item = WaitingJob<'j>>,
    ) -> usize {
        self.obs.clear();
        self.mask.clear();
        self.agent.encoder.encode_jobs_extend(
            free_procs,
            total_procs,
            queue_len,
            waiting,
            &mut self.obs,
            &mut self.mask,
        );
        let action = match &self.packed {
            Some(packed) => {
                greedy_batch(
                    packed,
                    &self.obs,
                    &self.mask,
                    1,
                    &mut self.scratch,
                    &mut self.actions,
                );
                self.actions[0]
            }
            None => self.agent.score(&self.obs, &self.mask, &mut self.scratch),
        };
        action.min(queue_len.saturating_sub(1))
    }

    /// Name tag matching the policy adapter's.
    pub fn metric_name(&self) -> &'static str {
        self.agent.cfg.metric.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_sim::{run_episode, SimConfig};
    use rlsched_swf::{Job, JobTrace};

    fn small_cfg() -> AgentConfig {
        AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed: 7,
        }
    }

    fn toy_trace() -> JobTrace {
        let jobs = (0..30u32)
            .map(|i| {
                Job::new(
                    i + 1,
                    i as f64 * 20.0,
                    50.0 + (i % 4) as f64 * 200.0,
                    1 + (i % 3),
                    900.0,
                )
            })
            .collect();
        JobTrace::new(jobs, 4)
    }

    #[test]
    fn fresh_agent_schedules_a_trace() {
        let agent = Agent::new(small_cfg());
        let mut policy = agent.as_policy();
        let m = run_episode(&toy_trace(), SimConfig::default(), &mut policy).unwrap();
        assert_eq!(m.outcomes().len(), 30);
    }

    #[test]
    fn save_load_round_trip_preserves_decisions() {
        let agent = Agent::new(small_cfg());
        let json = agent.save_json();
        let loaded = Agent::load_json(&json).unwrap();
        let t = toy_trace();
        let m1 = run_episode(&t, SimConfig::default(), &mut agent.as_policy()).unwrap();
        let m2 = run_episode(&t, SimConfig::default(), &mut loaded.as_policy()).unwrap();
        assert_eq!(m1, m2, "loaded agent must schedule identically");
    }

    #[test]
    fn greedy_is_deterministic_across_calls() {
        let agent = Agent::new(small_cfg());
        let t = toy_trace();
        let a = run_episode(&t, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();
        let b = run_episode(&t, SimConfig::with_backfill(), &mut agent.as_policy()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_name_reflects_metric() {
        let agent = Agent::new(AgentConfig {
            metric: MetricKind::Utilization,
            obs: ObsConfig {
                max_obsv: 8,
                ..ObsConfig::default()
            },
            ..AgentConfig::paper_default()
        });
        assert_eq!(agent.as_policy().name(), "RL-util");
    }

    #[test]
    fn paper_default_matches_section_4() {
        let cfg = AgentConfig::paper_default();
        assert_eq!(cfg.obs.max_obsv, 128);
        assert_eq!(cfg.policy, PolicyKind::Kernel);
        let agent = Agent::new(cfg);
        assert!(agent.policy_param_count() < 1000);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Agent::load_json("{}").is_err());
    }

    #[test]
    fn load_rejects_an_empty_minibatch() {
        let mut cfg = small_cfg();
        cfg.ppo.minibatch = Some(64);
        let json = Agent::new(cfg).save_json();
        let zeroed = json.replace("\"minibatch\":64", "\"minibatch\":0");
        assert_ne!(zeroed, json, "checkpoint must spell out the minibatch");
        let err = Agent::load_json(&zeroed)
            .err()
            .expect("minibatch 0 must not load");
        assert!(err.to_string().contains("ppo.minibatch"), "got: {err}");
    }

    #[test]
    fn stream_decider_matches_policy_adapter() {
        // Every architecture, including the packed flat-MLP path: the
        // streaming decision head must pick the same slot as RlPolicy on
        // the equivalent materialized view, for a full replayed episode.
        use rlsched_sim::{SchedSession, StreamSession};
        for kind in PolicyKind::all() {
            let mut cfg = AgentConfig {
                policy: kind,
                ..small_cfg()
            };
            if kind == PolicyKind::LeNet {
                // The CNN needs the full-size observation window.
                cfg.obs.max_obsv = 64;
            }
            let agent = Agent::new(cfg);
            let t = toy_trace();
            let mut sess = SchedSession::new(&t, SimConfig::with_backfill()).unwrap();
            let mut policy = agent.as_policy();
            let mut stream = StreamSession::new(
                t.jobs().iter().cloned(),
                t.max_procs(),
                SimConfig::with_backfill(),
            )
            .unwrap()
            .with_outcome_log();
            let mut decider = agent.stream_decider();
            while !sess.done() {
                let view = sess.view();
                let a = policy.select(&view);
                let b = decider.decide(
                    stream.free_procs(),
                    stream.total_procs(),
                    stream.queue_len(),
                    stream.waiting(),
                );
                assert_eq!(a, b, "{kind:?} diverged at t={}", sess.time());
                sess.step(a).unwrap();
                stream.step(b).unwrap();
            }
            assert!(stream.done());
            assert_eq!(
                sess.metrics().unwrap(),
                stream.log_metrics().unwrap(),
                "{kind:?} episode metrics diverged"
            );
        }
    }
}
