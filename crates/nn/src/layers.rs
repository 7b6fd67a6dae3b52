//! Network building blocks: dense and convolutional layers, activations,
//! and the [`Network`] trait that ties parameter storage to tape bindings.
//!
//! Parameters live *outside* the tape (plain [`Tensor`]s owned by the
//! layer); each forward pass copies them onto a fresh [`Graph`] and records
//! the binding order in a [`ParamBinds`], so the optimizer can match
//! gradients back to storage. With networks of <10k parameters (Table IV of
//! the paper) the copies are negligible next to the matmuls.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Elementwise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// max(x, 0)
    Relu,
    /// tanh(x)
    Tanh,
    /// 1/(1+e^-x)
    Sigmoid,
    /// identity (linear output head)
    Identity,
}

impl Activation {
    /// Apply on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// The fused-op activation code for [`Graph::linear`] and the
    /// allocation-free [`crate::infer`] forwards.
    pub fn to_act(self) -> crate::graph::Act {
        match self {
            Activation::Relu => crate::graph::Act::Relu,
            Activation::Tanh => crate::graph::Act::Tanh,
            Activation::Sigmoid => crate::graph::Act::Sigmoid,
            Activation::Identity => crate::graph::Act::Identity,
        }
    }
}

/// Records, in order, the tape vars bound to each parameter tensor during
/// one forward pass.
#[derive(Debug, Default)]
pub struct ParamBinds {
    vars: Vec<Var>,
}

impl ParamBinds {
    /// Fresh empty binding list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind one parameter tensor onto the tape (copied into the tape's
    /// pooled memory, so a reused graph binds without allocating).
    pub fn bind(&mut self, g: &mut Graph, t: &Tensor) -> Var {
        let v = g.param_from(t);
        self.vars.push(v);
        v
    }

    /// The bound vars, in [`Network::params`] order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Collect (clone) the gradient of every bound parameter after
    /// `backward`. Prefer [`ParamBinds::take_grads`] in hot loops.
    pub fn grads(&self, g: &Graph) -> Vec<Tensor> {
        self.vars.iter().map(|&v| g.grad_or_zeros(v)).collect()
    }

    /// Move the gradients of every bound parameter out of the tape
    /// without copying. Each gradient is consumed exactly once per
    /// backward pass; combined with [`Graph::reset`] this makes the
    /// update loop allocation-free at steady state.
    pub fn take_grads(&self, g: &mut Graph) -> Vec<Tensor> {
        self.vars.iter().map(|&v| g.take_grad(v)).collect()
    }

    /// Forget all bindings (for graph reuse across iterations).
    pub fn clear(&mut self) {
        self.vars.clear();
    }
}

/// Anything with trainable parameters and a tape-forward.
pub trait Network {
    /// Run the forward pass, binding parameters through `binds`.
    fn forward(&self, g: &mut Graph, x: Var, binds: &mut ParamBinds) -> Var;

    /// Parameter tensors, in a stable order matching `forward`'s binds.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    /// Weight matrix `[in, out]`.
    pub w: Tensor,
    /// Bias vector `[out]`.
    pub b: Tensor,
}

impl Dense {
    /// He-initialized layer (gain suited to ReLU nets; close enough to
    /// Xavier for the small tanh nets used here).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f64).sqrt();
        let w = Tensor::from_vec(
            (0..in_dim * out_dim)
                .map(|_| (sample_normal(rng) * std) as f32)
                .collect(),
            &[in_dim, out_dim],
        );
        Dense {
            w,
            b: Tensor::zeros(&[out_dim]),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Tape-forward through this layer (no activation).
    pub fn forward(&self, g: &mut Graph, x: Var, binds: &mut ParamBinds) -> Var {
        self.forward_fused(g, x, binds, Activation::Identity)
    }

    /// Tape-forward with the activation fused into the dense node: one
    /// tape node and one output allocation instead of three.
    pub fn forward_fused(
        &self,
        g: &mut Graph,
        x: Var,
        binds: &mut ParamBinds,
        act: Activation,
    ) -> Var {
        let w = binds.bind(g, &self.w);
        let b = binds.bind(g, &self.b);
        g.linear(x, w, b, act.to_act())
    }
}

/// Standard-normal sample via Box–Muller (keeps the dependency surface to
/// `rand` core).
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multi-layer perceptron: the 3-layer MLP of the paper's value network
/// (Fig 6) and the MLP policy baselines of Table IV.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    /// Stacked dense layers.
    pub layers: Vec<Dense>,
    /// Activation between layers.
    pub hidden: Activation,
    /// Activation after the last layer.
    pub output: Activation,
}

impl Mlp {
    /// Build from a dims chain `[in, h1, h2, ..., out]`.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden,
            output,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Check that the layers form a chain: at least one layer, every
    /// weight `[in, out]` and every bias `[out]` with non-zero widths,
    /// and each layer's input width equal to the previous layer's output
    /// width. The width accessors and every kernel assume this; a
    /// deserialized network should pass it before it runs.
    pub fn check_chain(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("an MLP needs at least one layer".to_string());
        }
        let mut prev = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let (w, b) = (layer.w.shape(), layer.b.shape());
            if w.len() != 2 || w.contains(&0) || b != [w[1]] {
                return Err(format!(
                    "layer {i}: weight {w:?} and bias {b:?} do not form a dense layer"
                ));
            }
            if let Some(p) = prev.filter(|&p| p != w[0]) {
                return Err(format!(
                    "layer {i} takes {} inputs but layer {} emits {p}",
                    w[0],
                    i - 1
                ));
            }
            prev = Some(w[1]);
        }
        Ok(())
    }
}

impl Network for Mlp {
    fn forward(&self, g: &mut Graph, x: Var, binds: &mut ParamBinds) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last { self.output } else { self.hidden };
            h = layer.forward_fused(g, h, binds, act);
        }
        h
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| [&l.w, &l.b]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .collect()
    }
}

/// 2-D convolution layer (valid padding), for the LeNet policy baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Conv2dLayer {
    /// Kernel `[out_channels, in_channels, kh, kw]`.
    pub w: Tensor,
    /// Bias `[out_channels]`.
    pub b: Tensor,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl Conv2dLayer {
    /// He-initialized convolution.
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_c * kh * kw;
        let std = (2.0 / fan_in as f64).sqrt();
        let w = Tensor::from_vec(
            (0..out_c * in_c * kh * kw)
                .map(|_| (sample_normal(rng) * std) as f32)
                .collect(),
            &[out_c, in_c, kh, kw],
        );
        Conv2dLayer {
            w,
            b: Tensor::zeros(&[out_c]),
            stride,
        }
    }

    /// Tape-forward through this layer.
    pub fn forward(&self, g: &mut Graph, x: Var, binds: &mut ParamBinds) -> Var {
        let w = binds.bind(g, &self.w);
        let b = binds.bind(g, &self.b);
        g.conv2d(x, w, b, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn dense_shapes_and_bind_order() {
        let d = Dense::new(4, 3, &mut rng());
        assert_eq!(d.w.shape(), &[4, 3]);
        assert_eq!(d.b.shape(), &[3]);
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let x = g.input(Tensor::zeros(&[2, 4]));
        let y = d.forward(&mut g, x, &mut binds);
        assert_eq!(g.value(y).shape(), &[2, 3]);
        assert_eq!(binds.vars().len(), 2);
    }

    #[test]
    fn check_chain_accepts_built_mlps_and_rejects_broken_ones() {
        let m = Mlp::new(
            &[5, 8, 3],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        assert_eq!(m.check_chain(), Ok(()));
        let mut gap = m.clone();
        gap.layers[1] = Dense::new(7, 3, &mut rng());
        assert!(gap.check_chain().unwrap_err().contains("layer 1 takes 7"));
        let mut flat = m.clone();
        flat.layers[0].w = Tensor::zeros(&[40]);
        assert!(flat.check_chain().unwrap_err().contains("dense layer"));
        let mut bias = m;
        bias.layers[0].b = Tensor::zeros(&[9]);
        assert!(bias.check_chain().is_err());
    }

    #[test]
    fn mlp_matches_paper_kernel_dims() {
        // The RLScheduler kernel network is a 3-layer MLP 32/16/8 with a
        // scalar head; parameter count must stay under 1 000 (§IV-B1).
        let m = Mlp::new(
            &[7, 32, 16, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        assert!(m.param_count() < 1000, "param count {}", m.param_count());
        assert_eq!(m.in_dim(), 7);
        assert_eq!(m.out_dim(), 1);
    }

    #[test]
    fn mlp_forward_shapes() {
        let m = Mlp::new(
            &[5, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng(),
        );
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let x = g.input(Tensor::zeros(&[3, 5]));
        let y = m.forward(&mut g, x, &mut binds);
        assert_eq!(g.value(y).shape(), &[3, 2]);
        assert_eq!(binds.vars().len(), 4, "2 layers x (w, b)");
    }

    #[test]
    fn params_and_binds_align() {
        let m = Mlp::new(
            &[3, 4, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng(),
        );
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let x = g.input(Tensor::zeros(&[1, 3]));
        let _ = m.forward(&mut g, x, &mut binds);
        let params = m.params();
        assert_eq!(params.len(), binds.vars().len());
        for (p, &v) in params.iter().zip(binds.vars()) {
            assert_eq!(p.shape(), g.value(v).shape());
        }
    }

    #[test]
    fn mlp_trains_xor_with_manual_sgd() {
        // End-to-end sanity: a tiny MLP fits XOR, proving forward+backward
        // wiring through layers is correct.
        let mut r = rng();
        let mut m = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut r);
        let xs = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let ys = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]);
        let mut opt = crate::optim::Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut g = Graph::new();
            let mut binds = ParamBinds::new();
            let x = g.input(xs.clone());
            let y = g.input(ys.clone());
            let pred = m.forward(&mut g, x, &mut binds);
            let d = g.sub(pred, y);
            let sq = g.mul(d, d);
            let loss = g.mean(sq);
            g.backward(loss);
            final_loss = g.value(loss).item();
            let grads = binds.grads(&g);
            opt.step(&mut m.params_mut(), &grads);
        }
        assert!(final_loss < 0.05, "XOR did not converge: loss {final_loss}");
    }

    #[test]
    fn conv_layer_shapes() {
        let c = Conv2dLayer::new(1, 2, 3, 3, 1, &mut rng());
        let mut g = Graph::new();
        let mut binds = ParamBinds::new();
        let x = g.input(Tensor::zeros(&[2, 1, 8, 8]));
        let y = c.forward(&mut g, x, &mut binds);
        assert_eq!(g.value(y).shape(), &[2, 2, 6, 6]);
    }

    #[test]
    fn he_init_scale_is_sane() {
        let d = Dense::new(100, 50, &mut rng());
        let std = (d.w.data().iter().map(|x| x * x).sum::<f32>() / d.w.len() as f32).sqrt();
        let expect = (2.0f32 / 100.0).sqrt();
        assert!((std - expect).abs() / expect < 0.2, "std {std} vs {expect}");
        assert!(d.b.data().iter().all(|&b| b == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_dim() {
        let _ = Mlp::new(&[4], Activation::Relu, Activation::Identity, &mut rng());
    }
}
