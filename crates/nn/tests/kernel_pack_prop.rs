//! Property-based packed ≡ dense parity for the kernel head: the fused
//! PPO pass and the inference forward score only a window's live job
//! rows (plus one shared zero row), while the autodiff tape scores every
//! row of the stacked `[n·K, F]` job matrix. On random minibatches whose
//! valid-slot prefixes run from one job to a full window — with non-zero
//! junk under some masked slots and `-0.0` features in some padding —
//! the two must agree **bit for bit** (`to_bits`): logits, masked
//! log-probs, selected log-probs, loss partials and every gradient.
//! Minibatches span several of the TN kernel's 512-row accumulation
//! chunks. CI runs this on every arm (SIMD, `RLSCHED_FORCE_SCALAR`, tape,
//! `RLSCHED_THREADS=4`, trace); the contract holds on each.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch};
use rlsched_nn::{infer, Activation, Graph, Mlp, Network, ParamBinds, Scratch, Tensor};

/// `rl`'s additive mask for an invalid slot.
const MASK_OFF: f32 = -1.0e9;

fn lcg(seed: &mut u64) -> f32 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*seed >> 40) as f32 / (1u64 << 24) as f32
}

/// One kernel-head minibatch: `n` windows of `k` job rows of `f`
/// features, each with a valid prefix of `1..=k` jobs.
struct Case {
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    advantages: Vec<f32>,
    logp_old: Vec<f32>,
}

fn case(n: usize, k: usize, f: usize, junk: f32, seed: u64) -> Case {
    let mut s = seed | 1;
    let mut obs = vec![0.0f32; n * k * f];
    let mut masks = vec![MASK_OFF; n * k];
    let mut actions = Vec::with_capacity(n);
    for i in 0..n {
        // Single-job and full windows come up often; the rest uniform.
        let u = lcg(&mut s);
        let valid = if u < 0.25 {
            1
        } else if u < 0.4 {
            k
        } else {
            1 + (lcg(&mut s) * k as f32) as usize % k
        };
        for slot in 0..k {
            let row = &mut obs[(i * k + slot) * f..(i * k + slot + 1) * f];
            if slot < valid {
                for x in row.iter_mut() {
                    *x = lcg(&mut s) * 2.0 - 0.5;
                }
                row[f - 1] = 1.0;
                masks[i * k + slot] = 0.0;
            } else if lcg(&mut s) < junk {
                // Junk under a masked slot: a live row all the same.
                for x in row.iter_mut() {
                    *x = lcg(&mut s) - 0.5;
                }
            } else if lcg(&mut s) < 0.02 {
                row[0] = -0.0;
            }
        }
        actions.push((lcg(&mut s) * valid as f32) as usize % valid);
    }
    let advantages = (0..n).map(|_| lcg(&mut s) * 4.0 - 2.0).collect();
    let logp_old = (0..n).map(|_| -0.1 - lcg(&mut s) * 3.0).collect();
    Case {
        obs,
        masks,
        actions,
        advantages,
        logp_old,
    }
}

/// The dense reference: the chunk-loss graph `Ppo`'s tape backend builds
/// over every job row, with the mean seeds scaled by `total`.
struct Tape {
    scores: Vec<f32>,
    logp_all: Vec<f32>,
    sel: Vec<f32>,
    obj_sum: f32,
    ent_sum: f32,
    grads: Vec<Tensor>,
}

#[allow(clippy::too_many_arguments)]
fn tape(mlp: &Mlp, c: &Case, n: usize, k: usize, clip: f32, ent_coef: f32, total: usize) -> Tape {
    let mut g = Graph::new();
    let mut binds = ParamBinds::new();
    let o = g.input_from(&c.obs, &[n * k, mlp.in_dim()]);
    let scores = mlp.forward(&mut g, o, &mut binds);
    let logits = g.reshape(scores, &[n, k]);
    let m = g.input_from(&c.masks, &[n, k]);
    let masked = g.add(logits, m);
    let logp_all = g.log_softmax(masked);
    let logp = g.select_cols(logp_all, &c.actions);
    let old = g.input_from(&c.logp_old, &[n]);
    let diff = g.sub(logp, old);
    let ratio = g.exp(diff);
    let adv = g.input_from(&c.advantages, &[n]);
    let surr1 = g.mul(ratio, adv);
    let clipped = g.clamp(ratio, 1.0 - clip, 1.0 + clip);
    let surr2 = g.mul(clipped, adv);
    let obj = g.min_elem(surr1, surr2);
    let obj_total = g.sum(obj);
    let mut root = g.scale(obj_total, -1.0 / total as f32);
    let mut ent_rows = None;
    if ent_coef != 0.0 {
        let p = g.exp(logp_all);
        let plogp = g.mul(p, logp_all);
        let row = g.sum_rows(plogp);
        let ent_total = g.sum(row);
        let weighted = g.scale(ent_total, ent_coef / total as f32);
        root = g.add(root, weighted);
        ent_rows = Some(row);
    }
    g.backward(root);
    let fold = |g: &Graph, v| g.value(v).data().iter().fold(0.0f32, |a, &x| a + x);
    Tape {
        scores: g.value(scores).data().to_vec(),
        logp_all: g.value(logp_all).data().to_vec(),
        sel: g.value(logp).data().to_vec(),
        obj_sum: fold(&g, obj),
        ent_sum: ent_rows.map_or(0.0, |r| fold(&g, r)),
        grads: binds.take_grads(&mut g),
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_kernel_head_matches_the_dense_tape_bitwise(
        n in 1usize..48,
        k in 1usize..80,
        f in 3usize..9,
        hidden in prop::collection::vec(prop_oneof![Just(4usize), Just(8), Just(16), Just(32)], 1..4),
        junk in prop_oneof![Just(0.0f32), Just(0.1), Just(0.6)],
        ent_coef in prop_oneof![Just(0.0f32), Just(0.01)],
        clip in 0.1f32..0.4,
        chunked in any::<bool>(),
        net_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let mut dims = vec![f];
        dims.extend(&hidden);
        dims.push(1);
        let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut StdRng::seed_from_u64(net_seed));
        let c = case(n, k, f, junk, data_seed);
        // A chunk of a larger minibatch seeds its means by the total.
        let total = if chunked { n + 17 } else { n };
        let t = tape(&mlp, &c, n, k, clip, ent_coef, total);

        let p = FusedPolicy { mlp: &mlp, head: FusedHead::Kernel { window: k } };
        let mut s = FusedScratch::new();
        // Twice through one scratch: reuse must not change a bit.
        for _ in 0..2 {
            fused::policy_forward(&p, &c.obs, &c.masks, &c.actions, n, &mut s);
            prop_assert_eq!(bits(s.logp_all()), bits(&t.logp_all), "masked log-probs");
            prop_assert_eq!(bits(s.selected_logp()), bits(&t.sel), "selected log-probs");
            let (obj, ent) = fused::policy_backward_scaled(
                &p, &c.obs, &c.actions, &c.advantages, &c.logp_old, clip, ent_coef, n, total, &mut s,
            );
            prop_assert_eq!(obj.to_bits(), t.obj_sum.to_bits(), "objective partial");
            prop_assert_eq!(ent.to_bits(), t.ent_sum.to_bits(), "entropy partial");
            prop_assert_eq!(s.grads().len(), t.grads.len());
            for (i, (g, r)) in s.grads().iter().zip(&t.grads).enumerate() {
                prop_assert_eq!(g.shape(), r.shape(), "grad {} shape", i);
                prop_assert_eq!(bits(g.data()), bits(r.data()), "grad {} bits", i);
            }
        }

        // The inference forward: one view at a time (the single-decision
        // path) and all views stacked (the batched path) both give the
        // tape's scores, and so its masked log-probs.
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        infer::kernel_forward(&mlp, &c.obs, &c.masks, &mut scratch, &mut out);
        prop_assert_eq!(bits(&out), bits(&t.scores), "batched scores");
        for (row, m) in out.chunks_mut(k).zip(c.masks.chunks(k)) {
            for (o, &mv) in row.iter_mut().zip(m) {
                *o += mv;
            }
            infer::log_softmax_inplace(row);
        }
        prop_assert_eq!(bits(&out), bits(&t.logp_all), "batched log-probs");
        for i in 0..n {
            let view = &c.obs[i * k * f..(i + 1) * k * f];
            infer::kernel_forward(&mlp, view, &c.masks[i * k..(i + 1) * k], &mut scratch, &mut out);
            prop_assert_eq!(bits(&out), bits(&t.scores[i * k..(i + 1) * k]), "view {} scores", i);
        }
    }
}

/// A diverged network can score a masked slot within the `exp` underflow
/// threshold; its dlogit is then non-zero and the row joins the pack
/// before the backward. The gradients still match the dense tape.
#[test]
fn a_masked_slot_with_a_live_gradient_joins_the_pack() {
    let (n, k, f) = (3, 6, 4);
    let mut mlp = Mlp::new(
        &[f, 8, 1],
        Activation::Relu,
        Activation::Identity,
        &mut StdRng::seed_from_u64(9),
    );
    // The zero row scores 8, every job row (positive features) about 0.
    mlp.layers[0].w.data_mut().fill(-1.0);
    mlp.layers[0].b.data_mut().fill(1.0);
    mlp.layers[1].w.data_mut().fill(1.0);
    let mut c = case(n, k, f, 0.0, 5);
    for row in c.obs.chunks_mut(f) {
        for x in row.iter_mut() {
            *x = x.abs();
        }
    }
    // Masked past the packing threshold, yet 8 nats ahead of the jobs:
    // its probability stays a (subnormal) non-zero.
    c.masks[k - 1] = -105.0;
    c.obs[(k - 1) * f..k * f].fill(0.0);
    let t = tape(&mlp, &c, n, k, 0.2, 0.01, n);
    assert!(
        t.logp_all[k - 1].exp() > 0.0,
        "the masked slot keeps a probability"
    );
    let p = FusedPolicy {
        mlp: &mlp,
        head: FusedHead::Kernel { window: k },
    };
    let mut s = FusedScratch::new();
    fused::policy_forward(&p, &c.obs, &c.masks, &c.actions, n, &mut s);
    assert_eq!(bits(s.logp_all()), bits(&t.logp_all));
    fused::policy_backward_scaled(
        &p,
        &c.obs,
        &c.actions,
        &c.advantages,
        &c.logp_old,
        0.2,
        0.01,
        n,
        n,
        &mut s,
    );
    for (g, r) in s.grads().iter().zip(&t.grads) {
        assert_eq!(bits(g.data()), bits(r.data()));
    }
}
