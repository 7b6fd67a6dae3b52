//! Tape-free fused forward+backward for the PPO update.
//!
//! The autodiff tape ([`crate::Graph`]) exists so *any* op pipeline can be
//! differentiated; the PPO update differentiates the **same** pipeline
//! thousands of times per epoch: an MLP chain, a masked log-softmax, a
//! categorical gather, and the clipped-surrogate / entropy / value-loss
//! scalar tail. This module hand-writes that forward+backward once —
//! `infer.rs` already does it for the forward-only scoring path; this is
//! its training-side sibling.
//!
//! One forward pass runs the batched layer chain on the shared
//! [`crate::simd`] kernels while stashing only the per-layer activations
//! the analytic backward needs (in a caller-owned [`FusedScratch`]); the
//! backward fuses masked-log-softmax + gather + PPO clip/entropy (or the
//! value squared-error) gradients into a single dlogits pass, then walks
//! the layers with the same TN (`dW = Xᵀ·dpre`) and transposed-W
//! (`dX = dpre·Wᵀ`) kernel dispatches the tape's `Linear` backward uses —
//! no graph nodes, no buffer-pool bookkeeping, no per-op dispatch, and no
//! heap allocation at steady state.
//!
//! # Bit-identity contract
//!
//! The fused pass is **bit-identical to the tape** on whichever kernel
//! dispatch arm is active (AVX2/FMA or `RLSCHED_FORCE_SCALAR`): every
//! matmul goes through the same [`crate::simd`] entry points (the kernel
//! head's over its packed live rows, below), every elementwise pass
//! replicates the tape's accumulation order (including the needs-grad
//! pruning that skips `dX` into the observation matrix, the bias
//! row-accumulation order, and the `exp`-underflow short-circuit of the
//! log-softmax backward). The tape stays the dense reference: it scores
//! every job row. The fused-vs-tape parity property tests
//! (`tests/fused_parity_prop.rs`, `tests/kernel_pack_prop.rs` and
//! `rlscheduler`'s update-level suite) pin this with exact `==`
//! comparisons, so N epochs of fused updates reproduce the tape's
//! training trajectory bit for bit — checkpoints and Adam state are
//! interchangeable between the two paths.
//!
//! # Supported architectures
//!
//! Exactly the paper's trainable policies: a dense [`Mlp`] chain under
//! either logits head —
//!
//! * [`FusedHead::Flat`]: `logits = mlp(obs)`, one row per transition
//!   (the MLP v1–v3 baselines of Table IV, and every critic).
//! * [`FusedHead::Kernel`]: the kernel network of Fig 5 — the `[n, K·F]`
//!   observation stacks to `[n·K, F]` job rows, the shared-weight kernel
//!   scores each row, and the `[n·K, 1]` scores read back as `[n, K]`
//!   logits.
//!
//! # Live-row packing (kernel head)
//!
//! Most of a window's `K` slots hold no job: the slot is masked and its
//! features are all zero. The kernel head therefore runs the layer chain
//! only over the *live* rows (unmasked, or with a non-zero feature; see
//! [`infer::pack_live_rows`]) plus one all-zero row, and scatters the
//! zero row's score to every other slot. Each part stays bit-identical
//! to the dense tape:
//!
//! * **Forward.** A padded row *is* the zero row, and the dense kernels
//!   are row-count invariant, so its score is the zero row's score.
//! * **Backward.** A masked slot's probability underflows to exactly 0
//!   in `exp_or_zero`, so its dlogit is exactly `±0` with or without the
//!   entropy term, and so are its `dpre` and `dX` all the way down. The
//!   layer walk computes `dpre`, `dX` and `db` for packed rows only; a
//!   `±0` term added to an ascending `+0`-seeded sum changes nothing. (A
//!   left-out row with a non-zero dlogit — only a diverged network can
//!   score a masked slot within the underflow threshold — joins the pack
//!   before the backward.)
//! * **`dW`.** [`simd::gemm_tn_rows`] keeps the dense TN kernel's
//!   row-chunk accumulation boundaries over the *original* row index, so
//!   skipping a `±0` contribution leaves every lane sum unchanged.
//!
//! Gradients, Adam state and training curves are therefore the dense
//! pass's bits; `tests/kernel_pack_prop.rs` pins packed fused against the
//! dense tape with `to_bits` equality.
//!
//! Anything else (the LeNet CNN baseline) keeps using the tape — the
//! dispatch lives in `rlsched-rl`'s `Ppo::update`.

use crate::graph::Act;
use crate::infer;
use crate::layers::Mlp;
use crate::simd;
use crate::tensor::Tensor;

/// How the policy turns MLP outputs into `[n, n_actions]` logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedHead {
    /// `logits = mlp(obs)`: one MLP row per transition; the MLP's output
    /// width is the action count.
    Flat,
    /// The paper's kernel network: the observation is `window` job rows
    /// of `mlp.in_dim()` features each, the scalar-head MLP scores every
    /// job with shared weights, and the scores are the logits.
    Kernel {
        /// Jobs per observation window (== action count).
        window: usize,
    },
}

/// A borrowed description of a policy the fused update supports: the
/// trainable MLP chain plus its logits head.
#[derive(Debug, Clone, Copy)]
pub struct FusedPolicy<'a> {
    /// The trainable layer chain.
    pub mlp: &'a Mlp,
    /// The logits head on top of it.
    pub head: FusedHead,
}

impl FusedPolicy<'_> {
    /// `(layer-stack rows, logits width)` for an `n`-transition batch.
    fn dims(&self, n: usize) -> (usize, usize) {
        match self.head {
            FusedHead::Flat => (n, self.mlp.out_dim()),
            FusedHead::Kernel { window } => {
                assert_eq!(
                    self.mlp.out_dim(),
                    1,
                    "kernel head needs a scalar-score MLP"
                );
                (n * window, window)
            }
        }
    }
}

/// Reusable buffers for the fused pass. One per network (the PPO trainer
/// holds one for the actor and one for the critic); every buffer only
/// grows to its high-water mark, so steady-state updates allocate
/// nothing.
#[derive(Debug, Default)]
pub struct FusedScratch {
    /// Post-activation output of every layer (`acts[i]` = layer `i`).
    acts: Vec<Vec<f32>>,
    /// Masked log-probabilities, `[n, width]`.
    logp: Vec<f32>,
    /// Selected (per-action) log-probs, `[n]` — the KL diagnostic input.
    sel: Vec<f32>,
    /// Gradient ping buffer (holds `dY` of the layer being processed).
    dy: Vec<f32>,
    /// Gradient pong buffer (receives `dX`).
    dy2: Vec<f32>,
    /// Pre-activation gradient of the current layer.
    dpre: Vec<f32>,
    /// Transposed weights for the `dX` gemm (mirrors the tape's pooled
    /// transpose).
    wt: Vec<f32>,
    /// Parameter gradients in bind order (`w0, b0, w1, b1, …`).
    grads: Vec<Tensor>,
    /// Kernel head: the packed live job rows plus one zero row — the
    /// layer chain's input.
    x: Vec<f32>,
    /// Kernel head: the original `[n·K]` row index of each packed row.
    live: Vec<u32>,
}

impl FusedScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full masked log-prob matrix of the last
    /// [`policy_forward`] (`[n, width]` row-major).
    pub fn logp_all(&self) -> &[f32] {
        &self.logp
    }

    /// The selected per-transition log-probs of the last
    /// [`policy_forward`].
    pub fn selected_logp(&self) -> &[f32] {
        &self.sel
    }

    /// Parameter gradients of the last backward, in the network's bind
    /// order (`w0, b0, w1, b1, …`) — index-aligned with
    /// `Mlp::params()`.
    pub fn grads(&self) -> &[Tensor] {
        &self.grads
    }

    /// Mutable gradient access (for global-norm clipping).
    pub fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.grads
    }

    /// Reserve every row-scaled buffer for `rows` layer-stack rows (plus
    /// the kernel head's zero row), so a later pass with more live rows
    /// never regrows one.
    fn reserve_rows(&mut self, mlp: &Mlp, rows: usize) {
        let widest = mlp
            .layers
            .iter()
            .map(|l| l.in_dim().max(l.out_dim()))
            .max()
            .unwrap_or(1);
        for buf in [&mut self.dy, &mut self.dy2, &mut self.dpre] {
            infer::reserve_total(buf, (rows + 1) * widest);
        }
        self.acts.resize_with(mlp.layers.len(), Vec::new);
        for (a, l) in self.acts.iter_mut().zip(&mlp.layers) {
            infer::reserve_total(a, (rows + 1) * l.out_dim());
        }
    }

    fn ensure_grads(&mut self, mlp: &Mlp) {
        if self.grads.is_empty() {
            self.grads = mlp
                .layers
                .iter()
                .flat_map(|l| [Tensor::zeros(l.w.shape()), Tensor::zeros(l.b.shape())])
                .collect();
        }
        assert_eq!(
            self.grads.len(),
            mlp.layers.len() * 2,
            "scratch bound to a different architecture"
        );
    }
}

/// Forward the layer chain over `rows` stacked inputs, stashing every
/// layer's post-activation output in `acts` (the analytic backward needs
/// them all — this is the only state the fused pass keeps, where the tape
/// keeps a node per op). Uses the same [`simd::dense_any`] dispatch as
/// the tape's `Graph::linear`, so the values are bit-identical to it.
fn forward_layers(mlp: &Mlp, x0: &[f32], rows: usize, acts: &mut Vec<Vec<f32>>) {
    debug_assert_eq!(x0.len(), rows * mlp.in_dim(), "input volume");
    if acts.len() != mlp.layers.len() {
        acts.resize_with(mlp.layers.len(), Vec::new);
    }
    let last = mlp.layers.len() - 1;
    for i in 0..mlp.layers.len() {
        let layer = &mlp.layers[i];
        let act = if i == last { mlp.output } else { mlp.hidden };
        let (prev, rest) = acts.split_at_mut(i);
        let x = if i == 0 { x0 } else { &prev[i - 1] };
        infer::dense_forward(
            x,
            rows,
            layer.w.data(),
            layer.b.data(),
            layer.in_dim(),
            layer.out_dim(),
            act,
            &mut rest[0],
        );
    }
}

/// Walk the layers last-to-first given `dY` of the final layer in
/// `s.dy`, writing parameter gradients into `s.grads`. With `row_ids`
/// the `rows` rows are a packed subset (the kernel head's live rows) and
/// `dW` keeps the dense TN kernel's chunk boundaries over the original
/// row index ([`simd::gemm_tn_rows`]).
///
/// Replicates the tape's `Linear` backward exactly: the per-activation
/// `dpre` loops, `dW` through the TN kernel dispatch
/// (`Tensor::matmul_tn_into`'s exact calls), `db` as ascending-row
/// column sums, and `dX` through the transpose-W + broadcast-gemm path
/// (scalar NT fallback) — including the needs-grad pruning that never
/// computes `dX` of the first layer (its input is the constant
/// observation matrix).
fn backward_layers(
    mlp: &Mlp,
    x0: &[f32],
    rows: usize,
    row_ids: Option<&[u32]>,
    s: &mut FusedScratch,
) {
    s.ensure_grads(mlp);
    let last = mlp.layers.len() - 1;
    for l in (0..=last).rev() {
        let layer = &mlp.layers[l];
        let act = if l == last { mlp.output } else { mlp.hidden };
        let (din, dout) = (layer.in_dim(), layer.out_dim());
        debug_assert_eq!(s.dy.len(), rows * dout, "dY volume at layer {l}");

        // dpre = dY ∘ act'(Y): one loop per activation, expressed through
        // the stashed output — the same derivative-from-output forms the
        // tape uses.
        let y = &s.acts[l];
        s.dpre.clear();
        let pairs = s.dy.iter().zip(y.iter());
        match act.to_act() {
            Act::Identity => s.dpre.extend_from_slice(&s.dy),
            Act::Relu => s
                .dpre
                .extend(pairs.map(|(&g, &yv)| if yv > 0.0 { g } else { 0.0 })),
            Act::Tanh => s.dpre.extend(pairs.map(|(&g, &yv)| g * (1.0 - yv * yv))),
            Act::Sigmoid => s.dpre.extend(pairs.map(|(&g, &yv)| g * yv * (1.0 - yv))),
        }

        // dX = dpre · Wᵀ — skipped for layer 0 (the observation input
        // needs no gradient: the tape's needs-grad pruning). The NT dot
        // kernel is hsum-bound at these widths, so transpose W (tiny)
        // and run the broadcast gemm, exactly like the tape.
        if l > 0 {
            let dx = &mut s.dy2;
            dx.clear();
            dx.resize(rows * din, 0.0);
            let mut dispatched = false;
            if simd::simd_enabled() && din >= 8 {
                s.wt.clear();
                s.wt.resize(din * dout, 0.0);
                simd::transpose(layer.w.data(), din, dout, &mut s.wt);
                dispatched = simd::gemm(&s.dpre, rows, dout, &s.wt, din, None, dx);
            }
            if !dispatched {
                simd::gemm_nt_scalar(&s.dpre, rows, dout, layer.w.data(), din, dx);
            }
        }

        // dW = Xᵀ · dpre (the TN kernel fills its output, no pre-zero
        // needed — same call chain as `Tensor::matmul_tn_into`).
        let x = if l == 0 { x0 } else { &s.acts[l - 1] };
        let dw = s.grads[2 * l].data_mut();
        let dispatched = match row_ids {
            None => simd::gemm_tn(x, rows, din, &s.dpre, dout, dw),
            Some(ids) => simd::gemm_tn_rows(x, din, &s.dpre, dout, ids, dw),
        };
        if !dispatched {
            simd::gemm_tn_scalar(x, rows, din, &s.dpre, dout, dw);
        }

        // db = column sums of dpre, rows ascending (the tape's order).
        let db = s.grads[2 * l + 1].data_mut();
        db.fill(0.0);
        for row in s.dpre.chunks_exact(dout) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }

        if l > 0 {
            std::mem::swap(&mut s.dy, &mut s.dy2);
        }
    }
}

/// Batched policy forward: layer chain + masked log-softmax + per-action
/// gather, stashing what the backward and the PPO diagnostics need.
///
/// `obs` is the stacked `[n, obs_dim]` minibatch, `masks` the additive
/// `[n, n_actions]` masks, `actions` the chosen action per transition.
/// After the call, [`FusedScratch::logp_all`] holds the `[n, n_actions]`
/// masked log-probabilities (bit-identical to the tape's
/// `add` + `log_softmax`) and [`FusedScratch::selected_logp`] the
/// gathered per-action row — the approximate-KL input, available
/// *before* committing to a backward pass.
pub fn policy_forward(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    masks: &[f32],
    actions: &[usize],
    n: usize,
    s: &mut FusedScratch,
) {
    assert!(n > 0, "fused forward needs at least one transition");
    let (rows, width) = p.dims(n);
    assert_eq!(obs.len(), rows * p.mlp.in_dim(), "observation volume");
    assert_eq!(masks.len(), n * width, "mask volume");
    assert_eq!(actions.len(), n, "one action per transition");
    match p.head {
        FusedHead::Flat => {
            forward_layers(p.mlp, obs, rows, &mut s.acts);
            s.logp.clear();
            s.logp
                .extend_from_slice(s.acts.last().expect("non-empty MLP"));
        }
        FusedHead::Kernel { .. } => {
            s.reserve_rows(p.mlp, rows);
            infer::pack_live_rows(obs, p.mlp.in_dim(), masks, &mut s.x, &mut s.live);
            forward_layers(p.mlp, &s.x, s.live.len() + 1, &mut s.acts);
            let scores = s.acts.last().expect("non-empty MLP");
            infer::scatter_rows(scores, &s.live, rows, &mut s.logp);
        }
    }
    debug_assert_eq!(s.logp.len(), n * width, "logits volume");
    for (row, mrow) in s.logp.chunks_mut(width).zip(masks.chunks(width)) {
        for (o, &m) in row.iter_mut().zip(mrow) {
            *o += m;
        }
        infer::log_softmax_inplace(row);
    }
    let FusedScratch { logp, sel, .. } = s;
    sel.clear();
    sel.extend(actions.iter().enumerate().map(|(i, &a)| {
        assert!(a < width, "action {a} out of range");
        logp[i * width + a]
    }));
}

/// The PPO clipped-surrogate loss and its analytic backward, after a
/// [`policy_forward`] on the same inputs. Returns the loss value
/// (`-mean(min(ratio·A, clip(ratio)·A)) + ent_coef·mean(Σ p·logp)`);
/// parameter gradients land in [`FusedScratch::grads`].
///
/// The dlogits kernel fuses, per transition row: ratio / clip / min
/// gradient routing (ties to the unclipped side, exactly like the tape's
/// `min_elem`), the optional entropy-bonus term (in the tape's
/// accumulation order), the gather scatter, and the log-softmax backward
/// `dx = dy − softmax(x)·rowsum(dy)` with the exp-underflow
/// short-circuit. One pass over `[n, n_actions]` replaces the tape's
/// five separate gradient buffers.
#[allow(clippy::too_many_arguments)] // mirrors the PPO objective's term list
pub fn policy_loss_and_grads(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    n: usize,
    s: &mut FusedScratch,
) -> f32 {
    let (obj_sum, ent_sum) = policy_backward_scaled(
        p, obs, actions, advantages, logp_old, clip_ratio, ent_coef, n, n, s,
    );
    let mean_obj = obj_sum / n as f32;
    let mut loss = -mean_obj; // == the tape's scale(mean_obj, −1) bit for bit
    if ent_coef != 0.0 {
        let ent_mean = ent_sum / n as f32;
        loss += ent_mean * ent_coef;
    }
    loss
}

/// The dlogits fuse + layer backward of [`policy_loss_and_grads`], with
/// the mean-gradient seeds scaled by `total_n` instead of the local row
/// count — `rlsched-rl`'s chunked update loop runs this per chunk with
/// the *minibatch* size as `total_n`, so per-chunk gradients are exact
/// partials of the whole minibatch's gradient. Returns the raw
/// `(Σ min(s1,s2), Σ p·logp)` partial sums (row-ascending f32 folds over
/// this call's rows); gradients land in [`FusedScratch::grads`]. `obs`
/// must be the forward's: the kernel head reads it through the packed
/// live rows that [`policy_forward`] built from it.
#[allow(clippy::too_many_arguments)] // the PPO term list + both row counts
pub fn policy_backward_scaled(
    p: &FusedPolicy<'_>,
    obs: &[f32],
    actions: &[usize],
    advantages: &[f32],
    logp_old: &[f32],
    clip_ratio: f32,
    ent_coef: f32,
    n: usize,
    total_n: usize,
    s: &mut FusedScratch,
) -> (f32, f32) {
    let (rows, width) = p.dims(n);
    assert_eq!(obs.len(), rows * p.mlp.in_dim(), "observation volume");
    assert_eq!(s.logp.len(), n * width, "run policy_forward first");
    assert_eq!(advantages.len(), n, "one advantage per transition");
    assert_eq!(logp_old.len(), n, "one old log-prob per transition");
    s.ensure_grads(p.mlp);

    // Loss-tail gradient seeds, exactly as the tape's backward computes
    // them: d(mean surrogate) = −1/n per element, d(plogp) = ent_coef/n.
    let gm = -1.0f32 / total_n as f32;
    let dplogp = ent_coef / total_n as f32;
    let (lo, hi) = (1.0 - clip_ratio, 1.0 + clip_ratio);

    let FusedScratch { logp, dy, .. } = s;
    dy.clear();
    dy.resize(n * width, 0.0);
    let mut obj_sum = 0.0f32;
    let mut ent_sum = 0.0f32;
    for i in 0..n {
        let row = &logp[i * width..(i + 1) * width];
        let out = &mut dy[i * width..(i + 1) * width];
        let a = actions[i];
        let adv = advantages[i];
        let ratio = (row[a] - logp_old[i]).exp();
        let s1 = ratio * adv;
        let clipped = ratio.clamp(lo, hi);
        let s2 = clipped * adv;
        obj_sum += s1.min(s2);
        // min routes to whichever side won, ties to the unclipped side
        // (f32::min's forward semantics); clamp passes gradient only
        // strictly inside the clip range.
        let d_s1 = if s1 <= s2 { gm } else { 0.0 };
        let d_s2 = if s1 <= s2 { 0.0 } else { gm };
        let d_clipped = d_s2 * adv;
        let mut d_ratio = if ratio > lo && ratio < hi {
            d_clipped
        } else {
            0.0
        };
        d_ratio += d_s1 * adv;
        let d_sel = d_ratio * ratio;
        if ent_coef != 0.0 {
            // Entropy bonus: dlogp gets dplogp·p (from p·logp's logp
            // side) then (dplogp·logp)·p (through exp's backward), in
            // the tape's accumulation order, before the gather scatter.
            let mut row_plogp = 0.0f32;
            for (o, &lpj) in out.iter_mut().zip(row) {
                let pj = infer::exp_or_zero(lpj);
                row_plogp += pj * lpj;
                *o = dplogp * pj + (dplogp * lpj) * pj;
            }
            ent_sum += row_plogp;
            out[a] += d_sel;
            let rowsum: f32 = out.iter().sum();
            for (o, &lpj) in out.iter_mut().zip(row) {
                *o -= infer::exp_or_zero(lpj) * rowsum;
            }
        } else {
            // Without entropy the incoming gradient row is the gather
            // scatter alone; the ascending rowsum fold over it matches
            // the tape bit for bit.
            let rowsum = 0.0f32 + d_sel;
            for (j, (o, &lpj)) in out.iter_mut().zip(row).enumerate() {
                let rj = if j == a { d_sel } else { 0.0 };
                *o = rj - infer::exp_or_zero(lpj) * rowsum;
            }
        }
    }

    // `dy` now holds dlogits: `[n, width]`, which the kernel head reads
    // as `[n·window, 1]` scores.
    match p.head {
        FusedHead::Flat => backward_layers(p.mlp, obs, rows, None, s),
        FusedHead::Kernel { .. } => {
            if !left_out_rows_are_zero(&s.dy, &s.live) {
                promote_left_out_rows(p.mlp, s);
            }
            s.dy2.clear();
            s.dy2.extend(s.live.iter().map(|&r| s.dy[r as usize]));
            std::mem::swap(&mut s.dy, &mut s.dy2);
            let (x, live) = (std::mem::take(&mut s.x), std::mem::take(&mut s.live));
            backward_layers(p.mlp, &x, live.len(), Some(&live), s);
            (s.x, s.live) = (x, live);
        }
    }
    (obj_sum, ent_sum)
}

/// Give every row left out of the kernel head's pack whose dlogit is not
/// `±0` a packed row of its own — a zero row, which is what a left-out
/// row is — and rerun the forward over the new pack. Only a diverged
/// network gets here, so the rebuilt buffers may allocate.
fn promote_left_out_rows(mlp: &Mlp, s: &mut FusedScratch) {
    let f = mlp.in_dim();
    let (x, live) = (std::mem::take(&mut s.x), std::mem::take(&mut s.live));
    let mut q = 0;
    for (r, &g) in s.dy.iter().enumerate() {
        if live.get(q) == Some(&(r as u32)) {
            s.x.extend_from_slice(&x[q * f..(q + 1) * f]);
            s.live.push(r as u32);
            q += 1;
        } else if g != 0.0 {
            s.x.resize(s.x.len() + f, 0.0);
            s.live.push(r as u32);
        }
    }
    s.x.resize(s.x.len() + f, 0.0);
    forward_layers(mlp, &s.x, s.live.len() + 1, &mut s.acts);
}

/// True when every row left out of the kernel head's pack has a `±0`
/// dlogit: the condition under which the packed backward is exact.
fn left_out_rows_are_zero(dlogits: &[f32], live: &[u32]) -> bool {
    let mut next = live.iter().peekable();
    dlogits.iter().enumerate().all(|(r, &g)| {
        if next.peek().is_some_and(|&&id| id as usize == r) {
            next.next();
            true
        } else {
            g == 0.0
        }
    })
}

/// Batched critic forward over `[rows, obs_dim]` stacked observations;
/// predictions stash in the scratch for [`value_loss_and_grads`].
pub fn value_forward(mlp: &Mlp, obs: &[f32], rows: usize, s: &mut FusedScratch) {
    assert!(rows > 0, "fused value forward needs at least one row");
    assert_eq!(mlp.out_dim(), 1, "critic must emit one value per row");
    forward_layers(mlp, obs, rows, &mut s.acts);
}

/// The value squared-error loss `mean((v − R)²)` and its analytic
/// backward, after a [`value_forward`] on the same observations. Returns
/// the loss; gradients land in [`FusedScratch::grads`].
pub fn value_loss_and_grads(
    mlp: &Mlp,
    obs: &[f32],
    returns: &[f32],
    rows: usize,
    s: &mut FusedScratch,
) -> f32 {
    let sq_sum = value_backward_scaled(mlp, obs, returns, rows, rows, s);
    sq_sum / rows as f32
}

/// The squared-error backward of [`value_loss_and_grads`] with the mean
/// gradient seeded by `total_rows` — the chunked update loop's per-chunk
/// form. Returns the raw `Σ (v−R)²` partial over this call's rows.
pub fn value_backward_scaled(
    mlp: &Mlp,
    obs: &[f32],
    returns: &[f32],
    rows: usize,
    total_rows: usize,
    s: &mut FusedScratch,
) -> f32 {
    assert_eq!(returns.len(), rows, "one return target per row");
    s.ensure_grads(mlp);
    let FusedScratch { acts, dy, .. } = s;
    let v = acts.last().expect("run value_forward first");
    assert_eq!(v.len(), rows, "prediction volume");
    // d(mean) = 1/n; the squared term contributes g·d twice (the tape's
    // `mul(d, d)` accumulates both factor sides).
    let g = 1.0f32 / total_rows as f32;
    let mut sq_sum = 0.0f32;
    dy.clear();
    for (&vi, &ri) in v.iter().zip(returns) {
        let d = vi - ri;
        sq_sum += d * d;
        let t = g * d;
        dy.push(t + t);
    }
    backward_layers(mlp, obs, rows, None, s);
    sq_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::layers::{Activation, Network, ParamBinds};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(dims: &[usize], seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(dims, Activation::Relu, Activation::Identity, &mut rng)
    }

    /// Deterministic pseudo-random inputs (no RNG dependency in shapes).
    fn filled(n: usize, scale: f32, phase: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.7 + phase).sin()) * scale)
            .collect()
    }

    #[test]
    fn value_grads_match_tape_bitwise() {
        let net = mlp(&[6, 16, 8, 1], 3);
        let n = 12;
        let obs = filled(n * 6, 0.8, 0.3);
        let returns = filled(n, 2.0, 1.1);

        // Tape arm: exactly the value-loss graph `Ppo::update` builds.
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let o = g.input_from(&obs, &[n, 6]);
        let v = net.forward(&mut g, o, &mut binds);
        let r = g.input_from(&returns, &[n, 1]);
        let d = g.sub(v, r);
        let sq = g.mul(d, d);
        let loss = g.mean(sq);
        g.backward(loss);
        let tape_loss = g.value(loss).item();
        let tape_grads = binds.take_grads(&mut g);

        let mut s = FusedScratch::new();
        value_forward(&net, &obs, n, &mut s);
        let fused_loss = value_loss_and_grads(&net, &obs, &returns, n, &mut s);

        assert_eq!(fused_loss, tape_loss, "loss value");
        assert_eq!(tape_grads.len(), s.grads().len());
        for (i, (t, f)) in tape_grads.iter().zip(s.grads()).enumerate() {
            assert_eq!(t.data(), f.data(), "grad {i} diverged from the tape");
        }
    }

    #[test]
    fn fused_scratch_reuse_is_bit_identical() {
        let net = mlp(&[5, 16, 3], 7);
        let n = 9;
        let obs = filled(n * 5, 0.6, 0.2);
        let masks = vec![0.0f32; n * 3];
        let actions: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let adv = filled(n, 1.5, 0.9);
        let old = filled(n, 0.5, 2.2)
            .iter()
            .map(|x| x - 1.5)
            .collect::<Vec<_>>();
        let p = FusedPolicy {
            mlp: &net,
            head: FusedHead::Flat,
        };
        let mut s = FusedScratch::new();
        policy_forward(&p, &obs, &masks, &actions, n, &mut s);
        let l0 = policy_loss_and_grads(&p, &obs, &actions, &adv, &old, 0.2, 0.0, n, &mut s);
        let g0: Vec<Vec<f32>> = s.grads().iter().map(|t| t.data().to_vec()).collect();
        for _ in 0..3 {
            policy_forward(&p, &obs, &masks, &actions, n, &mut s);
            let l = policy_loss_and_grads(&p, &obs, &actions, &adv, &old, 0.2, 0.0, n, &mut s);
            assert_eq!(l, l0, "loss must not drift across scratch reuse");
            for (a, b) in s.grads().iter().zip(&g0) {
                assert_eq!(a.data(), b.as_slice(), "grads must not drift");
            }
        }
    }

    /// Inputs for an `n`-transition kernel-head policy problem.
    struct PolicyCase {
        obs: Vec<f32>,
        masks: Vec<f32>,
        actions: Vec<usize>,
        adv: Vec<f32>,
        old: Vec<f32>,
    }

    /// `rpt` = layer-stack rows per transition: 1 for [`FusedHead::Flat`],
    /// the window for [`FusedHead::Kernel`].
    fn policy_case(n: usize, in_dim: usize, width: usize, rpt: usize) -> PolicyCase {
        let actions: Vec<usize> = (0..n).map(|i| (i * 5 + 1) % width).collect();
        // Mask one non-selected slot per row so masking is exercised
        // without ever zeroing out the chosen action.
        let masks = (0..n * width)
            .map(|i| {
                let (r, j) = (i / width, i % width);
                let dead = (r + 2) % width;
                if j == dead && dead != actions[r] {
                    -1.0e9 // rl's MASK_OFF convention: finite, exp → 0
                } else {
                    0.0
                }
            })
            .collect();
        PolicyCase {
            obs: filled(n * rpt * in_dim, 0.8, 0.4),
            masks,
            actions,
            adv: filled(n, 1.5, 0.9),
            old: filled(n, 0.5, 2.2).iter().map(|x| x - 1.5).collect(),
        }
    }

    #[test]
    fn chunk_partials_sum_to_whole_batch_gradient_numerically() {
        // Seeding each chunk's backward with the whole batch size makes
        // the chunk gradients partials of the whole-batch gradient: their
        // sum agrees with one whole-batch backward up to f32 association.
        let net = mlp(&[5, 16, 4], 31);
        let n = 85;
        let split = 64;
        let c = policy_case(n, 5, 4, 1);
        let p = FusedPolicy {
            mlp: &net,
            head: FusedHead::Flat,
        };
        let mut whole = FusedScratch::new();
        policy_forward(&p, &c.obs, &c.masks, &c.actions, n, &mut whole);
        let lw = policy_loss_and_grads(
            &p, &c.obs, &c.actions, &c.adv, &c.old, 0.2, 0.01, n, &mut whole,
        );
        let mut obj = 0.0f32;
        let mut ent = 0.0f32;
        let mut sum: Vec<Vec<f32>> = whole.grads().iter().map(|t| vec![0.0; t.len()]).collect();
        for (lo, hi) in [(0, split), (split, n)] {
            let mut s = FusedScratch::new();
            let obs = &c.obs[lo * 5..hi * 5];
            let acts = &c.actions[lo..hi];
            policy_forward(&p, obs, &c.masks[lo * 4..hi * 4], acts, hi - lo, &mut s);
            let (o, e) = policy_backward_scaled(
                &p,
                obs,
                acts,
                &c.adv[lo..hi],
                &c.old[lo..hi],
                0.2,
                0.01,
                hi - lo,
                n,
                &mut s,
            );
            obj += o;
            ent += e;
            for (acc, g) in sum.iter_mut().zip(s.grads()) {
                for (a, &v) in acc.iter_mut().zip(g.data()) {
                    *a += v;
                }
            }
        }
        let lc = -(obj / n as f32) + (ent / n as f32) * 0.01;
        assert!((lc - lw).abs() <= 1e-6, "loss drifted: {lc} vs {lw}");
        for (i, (a, b)) in sum.iter().zip(whole.grads()).enumerate() {
            for (x, y) in a.iter().zip(b.data()) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "grad {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "run policy_forward first")]
    fn backward_requires_forward() {
        let net = mlp(&[4, 8, 2], 1);
        let p = FusedPolicy {
            mlp: &net,
            head: FusedHead::Flat,
        };
        let mut s = FusedScratch::new();
        let _ = policy_loss_and_grads(
            &p,
            &[0.0; 8],
            &[0, 1],
            &[0.1, 0.2],
            &[-1.0, -1.0],
            0.2,
            0.0,
            2,
            &mut s,
        );
    }
}
