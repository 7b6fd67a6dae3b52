//! Tape-based reverse-mode automatic differentiation.
//!
//! Define-by-run: every op evaluates eagerly and records itself on the tape
//! (an arena `Vec<Node>`); [`Graph::backward`] runs the tape in reverse.
//! Because [`Var`] ids are handed out in construction order, the tape is
//! already topologically sorted — backpropagation is a single reverse scan
//! with no pointer chasing, the arena idiom the perf guides recommend over
//! `Rc<RefCell<…>>` graphs.
//!
//! The arena is **reusable**: [`Graph::reset`] clears the tape while
//! recycling every node's backing buffer into an internal pool, so a
//! steady-state training loop (PPO runs thousands of forward/backward
//! passes per epoch) performs no heap allocation once warm. Ops draw
//! their output buffers from the pool; [`Graph::input_from`] copies
//! caller slices into pooled storage.
//!
//! The op set is exactly what the RLScheduler networks need: dense algebra
//! and activations for the kernel/MLP networks (Figs 5–6 of the paper) —
//! including the fused [`Graph::linear`] (matmul + bias + activation in
//! one node with a single output allocation) — `conv2d`/`max_pool2d` for
//! the LeNet comparison of Fig 8 / Table IV, and
//! `log_softmax`/`select_cols`/`clamp`/`min_elem` for the PPO clipped
//! surrogate objective.
//!
//! For inference *without* gradient bookkeeping, use [`crate::infer`]
//! instead: plain forwards over scratch buffers, no tape at all.

use crate::infer::idx4;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Activation fused into [`Graph::linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// y = x
    Identity,
    /// y = max(x, 0)
    Relu,
    /// y = tanh(x)
    Tanh,
    /// y = 1/(1+e^{-x})
    Sigmoid,
}

impl Act {
    /// Apply in place.
    #[inline]
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Act::Identity => {}
            Act::Relu => {
                for x in xs {
                    // Branchless (maxss) so the loop vectorizes.
                    *x = x.max(0.0);
                }
            }
            Act::Tanh => {
                for x in xs {
                    *x = x.tanh();
                }
            }
            Act::Sigmoid => {
                for x in xs {
                    *x = 1.0 / (1.0 + (-*x).exp());
                }
            }
        }
    }

    /// d act / d pre-activation, expressed through the *output* y (all four
    /// activations admit this form, which is why no pre-activation needs
    /// storing).
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Act::Identity => 1.0,
            Act::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::Tanh => 1.0 - y * y,
            Act::Sigmoid => y * (1.0 - y),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Leaf; `requires_grad` marks parameters.
    Leaf {
        requires_grad: bool,
    },
    MatMul(usize, usize),
    /// Fused `act(x @ w + bias)` — one node, one output allocation.
    Linear {
        x: usize,
        w: usize,
        b: usize,
        act: Act,
    },
    /// `a + b` where `b` is a vector broadcast over the rows of `a`.
    AddBias(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MinElem(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    Relu(usize),
    Tanh(usize),
    Sigmoid(usize),
    Exp(usize),
    Clamp(usize, f32, f32),
    LogSoftmax(usize),
    SelectCols(usize, Vec<usize>),
    SumRows(usize),
    Mean(usize),
    Sum(usize),
    Reshape(usize),
    Conv2d {
        x: usize,
        w: usize,
        b: usize,
        stride: usize,
    },
    MaxPool2d {
        x: usize,
        size: usize,
    },
}

impl Op {
    /// Tape indices this op reads (up to three).
    fn inputs(&self) -> [Option<usize>; 3] {
        match *self {
            Op::Leaf { .. } => [None, None, None],
            Op::MatMul(a, b)
            | Op::AddBias(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MinElem(a, b) => [Some(a), Some(b), None],
            Op::Linear { x, w, b, .. } | Op::Conv2d { x, w, b, .. } => [Some(x), Some(w), Some(b)],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Clamp(a, _, _)
            | Op::LogSoftmax(a)
            | Op::SelectCols(a, _)
            | Op::SumRows(a)
            | Op::Mean(a)
            | Op::Sum(a)
            | Op::Reshape(a)
            | Op::MaxPool2d { x: a, .. } => [Some(a), None, None],
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// Buffers kept around between [`Graph::reset`]s; beyond this the pool
/// stops growing (a PPO iteration tops out well below this).
const POOL_CAP: usize = 512;

/// The autodiff tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: Vec<Vec<f32>>,
    /// Reused gradient-slot vector for [`Graph::backward`].
    slots: Vec<Option<Tensor>>,
    /// Reused needs-gradient marks for [`Graph::backward`]: `true` iff a
    /// parameter leaf is reachable from the node, so gradient work on
    /// constant-input paths (e.g. `dX` into the observation matrix) is
    /// skipped entirely.
    needs: Vec<bool>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(64),
            pool: Vec::new(),
            slots: Vec::new(),
            needs: Vec::new(),
        }
    }

    /// Clear the tape for reuse, recycling every node's value and gradient
    /// buffer into the allocation pool. After `reset`, re-running the same
    /// op sequence allocates nothing — values and gradients are
    /// bit-identical to a fresh graph's (see `reset_reuse_is_bit_identical`).
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if self.pool.len() < POOL_CAP {
                self.pool.push(node.value.into_data());
            }
            if let Some(g) = node.grad {
                if self.pool.len() < POOL_CAP {
                    self.pool.push(g.into_data());
                }
            }
        }
    }

    /// A cleared buffer with capacity for at least `len` elements, drawn
    /// from the pool when possible.
    fn buf(&mut self, len: usize) -> Vec<f32> {
        pool_take(&mut self.pool, len)
    }

    /// Like [`Graph::buf`] but zero-filled to exactly `len`.
    fn zero_buf(&mut self, len: usize) -> Vec<f32> {
        let mut b = self.buf(len);
        b.resize(len, 0.0);
        b
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Graph::backward`]; `None` when the loss
    /// does not depend on it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Owned gradient, zeros when untouched (convenience for tests and
    /// cold paths; prefer [`Graph::grad`] / [`Graph::take_grad`]).
    pub fn grad_or_zeros(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.nodes[v.0].value.shape()),
        }
    }

    /// Move a node's gradient out of the tape without copying (zeros when
    /// untouched). The optimizer consumes gradients exactly once per
    /// backward, so taking ownership is free.
    pub fn take_grad(&mut self, v: Var) -> Tensor {
        match self.nodes[v.0].grad.take() {
            Some(g) => g,
            None => {
                let shape = self.nodes[v.0].value.shape().to_vec();
                let data = self.zero_buf(shape.iter().product());
                Tensor::from_vec(data, &shape)
            }
        }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Buffers currently waiting in the recycling pool (observability for
    /// tests and tuning).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    // ---------------------------------------------------------------- leaves

    /// A constant input (no gradient tracked through optimizers).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(
            t,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// A constant input copied from a slice into pooled storage — the
    /// allocation-free alternative to `input(Tensor::from_vec(...))` for
    /// reused graphs.
    pub fn input_from(&mut self, data: &[f32], shape: &[usize]) -> Var {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape volume {n}",
            data.len()
        );
        let mut buf = self.buf(n);
        buf.extend_from_slice(data);
        self.push(
            Tensor::from_vec(buf, shape),
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// A parameter leaf (gradient wanted).
    pub fn param(&mut self, t: Tensor) -> Var {
        self.push(
            t,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// A parameter leaf copied from existing storage into pooled memory.
    pub fn param_from(&mut self, t: &Tensor) -> Var {
        let mut buf = self.buf(t.len());
        buf.extend_from_slice(t.data());
        self.push(
            Tensor::from_vec(buf, t.shape()),
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    // ------------------------------------------------------------------- ops

    /// Matrix product `a @ b` of 2-D tensors.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let m = self.nodes[a.0].value.rows();
        let n = self.nodes[b.0].value.cols();
        let mut out = self.buf(m * n);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(Tensor::from_vec(out, &[m, n]), Op::MatMul(a.0, b.0))
    }

    /// Fused dense layer: `act(x @ w + bias)` as a single tape node with
    /// one output allocation. `x` is `[m, k]`, `w` `[k, n]`, `bias` `[n]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Act) -> Var {
        let xv = &self.nodes[x.0].value;
        let wv = &self.nodes[w.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(xv.shape().len(), 2, "linear input must be 2-D");
        assert_eq!(wv.shape().len(), 2, "linear weight must be 2-D");
        let (m, k) = (xv.rows(), xv.cols());
        let (k2, n) = (wv.rows(), wv.cols());
        assert_eq!(k, k2, "linear inner dimensions {k} vs {k2}");
        assert_eq!(bv.len(), n, "linear bias length");
        let mut out = self.buf(m * n);
        {
            let xv = &self.nodes[x.0].value;
            let wv = &self.nodes[w.0].value;
            let bv = &self.nodes[b.0].value;
            out.resize(m * n, 0.0);
            // The same kernel dispatch `infer::dense_forward` runs, so
            // tape and fast path agree bit-for-bit by construction on
            // either dispatch arm (AVX2/FMA or scalar).
            crate::simd::dense_any(xv.data(), m, wv.data(), bv.data(), k, n, &mut out);
            act.apply_slice(&mut out);
        }
        self.push(
            Tensor::from_vec(out, &[m, n]),
            Op::Linear {
                x: x.0,
                w: w.0,
                b: b.0,
                act,
            },
        )
    }

    /// Row-broadcast `a + bias` where `bias` has `a.cols()` elements.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        assert_eq!(av.shape().len(), 2, "add_bias lhs must be 2-D");
        assert_eq!(bv.len(), av.cols(), "bias length must equal columns");
        let (m, n) = (av.rows(), av.cols());
        let mut out = self.buf(m * n);
        {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[bias.0].value;
            out.extend(
                av.data()
                    .iter()
                    .enumerate()
                    .map(|(idx, &x)| x + bv.data()[idx % n]),
            );
        }
        self.push(Tensor::from_vec(out, &[m, n]), Op::AddBias(a.0, bias.0))
    }

    fn zip_ew(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "elementwise shape mismatch"
        );
        let len = self.nodes[a.0].value.len();
        let mut data = self.buf(len);
        let shape = {
            let av = &self.nodes[a.0].value;
            let bv = &self.nodes[b.0].value;
            data.extend(av.data().iter().zip(bv.data()).map(|(&x, &y)| f(x, y)));
            av.shape().to_vec()
        };
        let t = Tensor::from_vec(data, &shape);
        self.push(t, op)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_ew(a, b, |x, y| x + y, Op::Add(a.0, b.0))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip_ew(a, b, |x, y| x - y, Op::Sub(a.0, b.0))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_ew(a, b, |x, y| x * y, Op::Mul(a.0, b.0))
    }

    /// Elementwise minimum (the PPO clipped-objective combiner).
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        self.zip_ew(a, b, f32::min, Op::MinElem(a.0, b.0))
    }

    fn map_ew(&mut self, a: Var, f: impl Fn(f32) -> f32, op: Op) -> Var {
        let len = self.nodes[a.0].value.len();
        let mut data = self.buf(len);
        let shape = {
            let av = &self.nodes[a.0].value;
            data.extend(av.data().iter().map(|&x| f(x)));
            av.shape().to_vec()
        };
        let t = Tensor::from_vec(data, &shape);
        self.push(t, op)
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.map_ew(a, |x| x * c, Op::Scale(a.0, c))
    }

    /// Add a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.map_ew(a, |x| x + c, Op::AddScalar(a.0))
    }

    /// True when the node is a parameter leaf (created via [`Graph::param`]).
    pub fn is_param(&self, v: Var) -> bool {
        matches!(
            self.nodes[v.0].op,
            Op::Leaf {
                requires_grad: true
            }
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map_ew(a, |x| x.max(0.0), Op::Relu(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map_ew(a, f32::tanh, Op::Tanh(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map_ew(a, |x| 1.0 / (1.0 + (-x).exp()), Op::Sigmoid(a.0))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.map_ew(a, f32::exp, Op::Exp(a.0))
    }

    /// Clamp to `[lo, hi]`; gradient passes only strictly inside the range.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        assert!(lo <= hi);
        self.map_ew(a, |x| x.clamp(lo, hi), Op::Clamp(a.0, lo, hi))
    }

    /// Row-wise log-softmax of a 2-D tensor (numerically stabilized).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        assert_eq!(
            self.nodes[a.0].value.shape().len(),
            2,
            "log_softmax requires 2-D"
        );
        let (m, n) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let mut out = self.buf(m * n);
        {
            let av = &self.nodes[a.0].value;
            for i in 0..m {
                let row = &av.data()[i * n..(i + 1) * n];
                let lse = crate::infer::log_sum_exp(row);
                out.extend(row.iter().map(|&x| x - lse));
            }
        }
        self.push(Tensor::from_vec(out, &[m, n]), Op::LogSoftmax(a.0))
    }

    /// Pick one column per row: `out[i] = a[i, idx[i]]`.
    pub fn select_cols(&mut self, a: Var, idx: &[usize]) -> Var {
        assert_eq!(
            self.nodes[a.0].value.shape().len(),
            2,
            "select_cols requires 2-D"
        );
        assert_eq!(idx.len(), self.nodes[a.0].value.rows(), "one index per row");
        let mut data = self.buf(idx.len());
        {
            let av = &self.nodes[a.0].value;
            let n = av.cols();
            data.extend(idx.iter().enumerate().map(|(i, &j)| {
                assert!(j < n, "column index {j} out of range");
                av.at(i, j)
            }));
        }
        let t = Tensor::from_vec(data, &[idx.len()]);
        self.push(t, Op::SelectCols(a.0, idx.to_vec()))
    }

    /// Row sums of a 2-D tensor: `[m, n] -> [m]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        assert_eq!(
            self.nodes[a.0].value.shape().len(),
            2,
            "sum_rows requires 2-D"
        );
        let m = self.nodes[a.0].value.rows();
        let mut data = self.buf(m);
        {
            let av = &self.nodes[a.0].value;
            let n = av.cols();
            data.extend((0..m).map(|i| av.data()[i * n..(i + 1) * n].iter().sum::<f32>()));
        }
        let t = Tensor::from_vec(data, &[m]);
        self.push(t, Op::SumRows(a.0))
    }

    /// Mean over all elements (scalar output).
    pub fn mean(&mut self, a: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let mean = av.sum() / av.len() as f32;
        let mut buf = self.buf(1);
        buf.push(mean);
        self.push(Tensor::from_vec(buf, &[1]), Op::Mean(a.0))
    }

    /// Sum over all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let total = self.nodes[a.0].value.sum();
        let mut buf = self.buf(1);
        buf.push(total);
        self.push(Tensor::from_vec(buf, &[1]), Op::Sum(a.0))
    }

    /// View with a different shape (volume preserved).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.nodes[a.0].value.len(),
            "reshape must preserve volume"
        );
        let mut data = self.buf(n);
        data.extend_from_slice(self.nodes[a.0].value.data());
        self.push(Tensor::from_vec(data, shape), Op::Reshape(a.0))
    }

    /// Valid (unpadded) 2-D convolution.
    ///
    /// `x`: `[B, C, H, W]`, `w`: `[O, C, KH, KW]`, `b`: `[O]`; output
    /// `[B, O, OH, OW]` with `OH = (H-KH)/stride + 1`.
    pub fn conv2d(&mut self, x: Var, w: Var, b: Var, stride: usize) -> Var {
        assert!(stride >= 1);
        let (bs, c, h, wd) = dims4(self.nodes[x.0].value.shape());
        let (o, c2, kh, kw) = dims4(self.nodes[w.0].value.shape());
        assert_eq!(c, c2, "conv2d channel mismatch");
        assert_eq!(self.nodes[b.0].value.len(), o, "conv2d bias length");
        assert!(h >= kh && wd >= kw, "kernel larger than input");
        let oh = (h - kh) / stride + 1;
        let ow = (wd - kw) / stride + 1;
        let mut od = self.zero_buf(bs * o * oh * ow);
        {
            let xv = &self.nodes[x.0].value;
            let wv = &self.nodes[w.0].value;
            let bv = &self.nodes[b.0].value;
            crate::infer::conv2d_into(
                xv.data(),
                wv.data(),
                bv.data(),
                bs,
                c,
                h,
                wd,
                o,
                kh,
                kw,
                stride,
                &mut od,
            );
        }
        self.push(
            Tensor::from_vec(od, &[bs, o, oh, ow]),
            Op::Conv2d {
                x: x.0,
                w: w.0,
                b: b.0,
                stride,
            },
        )
    }

    /// Non-overlapping max pooling with window = stride = `size`.
    pub fn max_pool2d(&mut self, x: Var, size: usize) -> Var {
        assert!(size >= 1);
        let (bs, c, h, w) = dims4(self.nodes[x.0].value.shape());
        let (oh, ow) = (h / size, w / size);
        assert!(oh >= 1 && ow >= 1, "pool window larger than input");
        let mut od = self.zero_buf(bs * c * oh * ow);
        crate::infer::max_pool2d_into(self.nodes[x.0].value.data(), bs, c, h, w, size, &mut od);
        self.push(
            Tensor::from_vec(od, &[bs, c, oh, ow]),
            Op::MaxPool2d { x: x.0, size },
        )
    }

    // -------------------------------------------------------------- backward

    /// Backpropagate from a scalar `loss` node, filling gradients for every
    /// node that both influences the loss and can reach a parameter leaf.
    ///
    /// Gradient work is skipped wholesale on constant-input paths: a
    /// forward needs-gradient scan marks every node from which a
    /// [`Graph::param`] leaf is reachable, and the reverse scan only
    /// accumulates into marked nodes — so e.g. `dX` of the first dense
    /// layer (the observation matrix, often the largest single matmul of
    /// a PPO value update) is never computed. Parameter gradients are
    /// bit-identical either way; [`Graph::grad`] of a node on a
    /// constants-only path is `None`, exactly like a node the loss does
    /// not depend on.
    ///
    /// All gradient temporaries are drawn from (and returned to) the
    /// graph's buffer pool, and the per-node slot vector is retained
    /// across calls — after the first backward on a given op sequence,
    /// subsequent passes are allocation-free.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward needs a scalar loss"
        );
        let n = self.nodes.len();
        let Graph {
            nodes,
            pool,
            slots,
            needs,
        } = self;
        needs.clear();
        needs.resize(n, false);
        for id in 0..n {
            needs[id] = match &nodes[id].op {
                Op::Leaf { requires_grad } => *requires_grad,
                op => op.inputs().into_iter().flatten().any(|input| needs[input]),
            };
        }
        let needs = &needs[..];
        let grads = slots;
        grads.clear();
        grads.resize(n, None);
        grads[loss.0] = Some(pooled_full(pool, &[1], 1.0));

        for id in (0..n).rev() {
            let Some(gout) = grads[id].take() else {
                continue;
            };
            if !needs[id] {
                // The loss seed itself can land here when no parameter is
                // reachable at all; recycle it and move on.
                pool_put(pool, gout.into_data());
                grads[id] = None;
                continue;
            }
            // The match borrows `nodes` immutably; gradient accumulation
            // writes only into the separate `grads` vector, so the op needs
            // no clone (the seed cloned every op here, `Vec` payloads
            // included). `gout` always carries the node's exact shape —
            // `accum_*` normalize it on store.
            match &nodes[id].op {
                Op::Leaf { .. } => {}
                &Op::MatMul(a, b) => {
                    if needs[a] {
                        let mut da = pool_take(pool, 0);
                        gout.matmul_nt_into(&nodes[b].value, &mut da);
                        accum_owned(
                            grads,
                            nodes,
                            pool,
                            a,
                            Tensor::from_vec(da, nodes[a].value.shape()),
                        );
                    }
                    if needs[b] {
                        let mut db = pool_take(pool, 0);
                        nodes[a].value.matmul_tn_into(&gout, &mut db);
                        accum_owned(
                            grads,
                            nodes,
                            pool,
                            b,
                            Tensor::from_vec(db, nodes[b].value.shape()),
                        );
                    }
                }
                &Op::Linear { x, w, b, act } => {
                    let y = &nodes[id].value;
                    let (m, ncol) = (y.rows(), y.cols());
                    // dpre = dy ∘ act'(y). One loop per activation (the
                    // enum match must not run per element — this buffer is
                    // the largest elementwise pass of a PPO update).
                    let mut dpre_buf = pool_take(pool, m * ncol);
                    let pairs = gout.data().iter().zip(y.data());
                    match act {
                        Act::Identity => dpre_buf.extend_from_slice(gout.data()),
                        Act::Relu => {
                            dpre_buf.extend(pairs.map(|(&g, &yv)| if yv > 0.0 { g } else { 0.0 }))
                        }
                        Act::Tanh => dpre_buf.extend(pairs.map(|(&g, &yv)| g * (1.0 - yv * yv))),
                        Act::Sigmoid => dpre_buf.extend(pairs.map(|(&g, &yv)| g * yv * (1.0 - yv))),
                    }
                    let dpre = Tensor::from_vec(dpre_buf, &[m, ncol]);
                    if needs[x] {
                        // dX = dpre · Wᵀ. The NT dot kernel is horizontal-
                        // sum-bound when the layer width (the dot length)
                        // is small, which is exactly the kernel-network
                        // case — so transpose W (tiny) through the pool
                        // and run the broadcast gemm kernel instead.
                        let wv = &nodes[w].value;
                        let (k_in, n_out) = (wv.rows(), wv.cols());
                        let mut dx = pool_take(pool, m * k_in);
                        dx.resize(m * k_in, 0.0);
                        let mut dispatched = false;
                        if crate::simd::simd_enabled() && k_in >= 8 {
                            let mut wt = pool_take(pool, k_in * n_out);
                            wt.resize(k_in * n_out, 0.0);
                            crate::simd::transpose(wv.data(), k_in, n_out, &mut wt);
                            dispatched =
                                crate::simd::gemm(dpre.data(), m, n_out, &wt, k_in, None, &mut dx);
                            pool_put(pool, wt);
                        }
                        if !dispatched {
                            crate::simd::gemm_nt_scalar(
                                dpre.data(),
                                m,
                                n_out,
                                wv.data(),
                                k_in,
                                &mut dx,
                            );
                        }
                        accum_owned(
                            grads,
                            nodes,
                            pool,
                            x,
                            Tensor::from_vec(dx, nodes[x].value.shape()),
                        );
                    }
                    if needs[w] {
                        let mut dw = pool_take(pool, 0);
                        nodes[x].value.matmul_tn_into(&dpre, &mut dw);
                        accum_owned(
                            grads,
                            nodes,
                            pool,
                            w,
                            Tensor::from_vec(dw, nodes[w].value.shape()),
                        );
                    }
                    if needs[b] {
                        let mut db = pooled_full(pool, &[ncol], 0.0);
                        let dbd = db.data_mut();
                        for row in dpre.data().chunks_exact(ncol) {
                            for (d, &v) in dbd.iter_mut().zip(row) {
                                *d += v;
                            }
                        }
                        accum_owned(grads, nodes, pool, b, db);
                    }
                    pool_put(pool, dpre.into_data());
                }
                &Op::AddBias(a, bias) => {
                    if needs[bias] {
                        let ncol = nodes[a].value.cols();
                        let mut db = pooled_full(pool, &[ncol], 0.0);
                        let dbd = db.data_mut();
                        for row in gout.data().chunks_exact(ncol) {
                            for (d, &v) in dbd.iter_mut().zip(row) {
                                *d += v;
                            }
                        }
                        accum_owned(grads, nodes, pool, bias, db);
                    }
                    if needs[a] {
                        accum_ref(grads, nodes, pool, a, &gout);
                    }
                }
                &Op::Add(a, b) => {
                    if needs[a] {
                        accum_ref(grads, nodes, pool, a, &gout);
                    }
                    if needs[b] {
                        accum_ref(grads, nodes, pool, b, &gout);
                    }
                }
                &Op::Sub(a, b) => {
                    if needs[a] {
                        accum_ref(grads, nodes, pool, a, &gout);
                    }
                    if needs[b] {
                        let neg = pooled_map(pool, &gout, |x| -x);
                        accum_owned(grads, nodes, pool, b, neg);
                    }
                }
                &Op::Mul(a, b) => {
                    if needs[a] {
                        let da = pooled_zip(pool, &gout, &nodes[b].value, |g, y| g * y);
                        accum_owned(grads, nodes, pool, a, da);
                    }
                    if needs[b] {
                        let db = pooled_zip(pool, &gout, &nodes[a].value, |g, x| g * x);
                        accum_owned(grads, nodes, pool, b, db);
                    }
                }
                &Op::MinElem(a, b) => {
                    // Gradient routes to whichever side won the min; ties
                    // go to `a`, matching the forward's `f32::min`.
                    if needs[a] {
                        let av = &nodes[a].value;
                        let bv = &nodes[b].value;
                        let da = pooled_zip3(
                            pool,
                            &gout,
                            av,
                            bv,
                            |g, x, y| {
                                if x <= y {
                                    g
                                } else {
                                    0.0
                                }
                            },
                        );
                        accum_owned(grads, nodes, pool, a, da);
                    }
                    if needs[b] {
                        let av = &nodes[a].value;
                        let bv = &nodes[b].value;
                        let db = pooled_zip3(
                            pool,
                            &gout,
                            av,
                            bv,
                            |g, x, y| {
                                if x <= y {
                                    0.0
                                } else {
                                    g
                                }
                            },
                        );
                        accum_owned(grads, nodes, pool, b, db);
                    }
                }
                &Op::Scale(a, c) => {
                    let da = pooled_map(pool, &gout, |x| x * c);
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::AddScalar(a) => {
                    accum_ref(grads, nodes, pool, a, &gout);
                }
                &Op::Relu(a) => {
                    let da =
                        pooled_zip(
                            pool,
                            &gout,
                            &nodes[a].value,
                            |g, x| if x > 0.0 { g } else { 0.0 },
                        );
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Tanh(a) => {
                    let da = pooled_zip(pool, &gout, &nodes[id].value, |g, y| g * (1.0 - y * y));
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Sigmoid(a) => {
                    let da = pooled_zip(pool, &gout, &nodes[id].value, |g, y| g * y * (1.0 - y));
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Exp(a) => {
                    let da = pooled_zip(pool, &gout, &nodes[id].value, |g, y| g * y);
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Clamp(a, lo, hi) => {
                    let da = pooled_zip(pool, &gout, &nodes[a].value, |g, x| {
                        if x > lo && x < hi {
                            g
                        } else {
                            0.0
                        }
                    });
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::LogSoftmax(a) => {
                    // dx = dy - softmax(x) * rowsum(dy); masked slots hold
                    // log-probs of ~-1e9 whose exp is exactly 0, so the
                    // underflow short-circuit is bit-exact.
                    let y = &nodes[id].value;
                    let (m, ncol) = (y.rows(), y.cols());
                    let mut da = pooled_full(pool, &[m, ncol], 0.0);
                    for ((g_row, y_row), da_row) in gout
                        .data()
                        .chunks_exact(ncol)
                        .zip(y.data().chunks_exact(ncol))
                        .zip(da.data_mut().chunks_exact_mut(ncol))
                    {
                        let row_sum: f32 = g_row.iter().sum();
                        for ((d, &rj), &yj) in da_row.iter_mut().zip(g_row).zip(y_row) {
                            *d = rj - crate::infer::exp_or_zero(yj) * row_sum;
                        }
                    }
                    accum_owned(grads, nodes, pool, a, da);
                }
                Op::SelectCols(a, idx) => {
                    let a = *a;
                    let av = &nodes[a].value;
                    let ncol = av.cols();
                    let mut da = pooled_full(pool, av.shape(), 0.0);
                    for (i, &j) in idx.iter().enumerate() {
                        da.data_mut()[i * ncol + j] += gout.data()[i];
                    }
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::SumRows(a) => {
                    let av = &nodes[a].value;
                    let (m, ncol) = (av.rows(), av.cols());
                    let mut da = pool_take(pool, m * ncol);
                    for i in 0..m {
                        for _ in 0..ncol {
                            da.push(gout.data()[i]);
                        }
                    }
                    accum_owned(grads, nodes, pool, a, Tensor::from_vec(da, &[m, ncol]));
                }
                &Op::Mean(a) => {
                    let len = nodes[a].value.len() as f32;
                    let g = gout.item() / len;
                    let da = pooled_full(pool, nodes[a].value.shape(), g);
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Sum(a) => {
                    let da = pooled_full(pool, nodes[a].value.shape(), gout.item());
                    accum_owned(grads, nodes, pool, a, da);
                }
                &Op::Reshape(a) => {
                    accum_ref(grads, nodes, pool, a, &gout);
                }
                &Op::Conv2d { x, w, b, stride } => {
                    let xv = &nodes[x].value;
                    let wv = &nodes[w].value;
                    let (bs, c, h, wd) = dims4(xv.shape());
                    let (o, _, kh, kw) = dims4(wv.shape());
                    let (_, _, oh, ow) = dims4(nodes[id].value.shape());
                    // Each side is allocated and computed only when a
                    // parameter is reachable through it (dX of the first
                    // conv — the observation image — is half the FLOPs
                    // and never needed). The per-element branches hoist:
                    // the Options are loop-invariant.
                    let mut dx = needs[x].then(|| pooled_full(pool, xv.shape(), 0.0));
                    let mut dw = needs[w].then(|| pooled_full(pool, wv.shape(), 0.0));
                    let mut db = needs[b].then(|| pooled_full(pool, &[o], 0.0));
                    let gd = gout.data();
                    for bi in 0..bs {
                        for oi in 0..o {
                            for y in 0..oh {
                                for xj in 0..ow {
                                    let g = gd[idx4(bi, oi, y, xj, o, oh, ow)];
                                    if g == 0.0 {
                                        continue;
                                    }
                                    if let Some(db) = &mut db {
                                        db.data_mut()[oi] += g;
                                    }
                                    for ci in 0..c {
                                        for ky in 0..kh {
                                            for kx in 0..kw {
                                                let xi = idx4(
                                                    bi,
                                                    ci,
                                                    y * stride + ky,
                                                    xj * stride + kx,
                                                    c,
                                                    h,
                                                    wd,
                                                );
                                                let wi = idx4(oi, ci, ky, kx, c, kh, kw);
                                                if let Some(dx) = &mut dx {
                                                    dx.data_mut()[xi] += g * wv.data()[wi];
                                                }
                                                if let Some(dw) = &mut dw {
                                                    dw.data_mut()[wi] += g * xv.data()[xi];
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    for (input, delta) in [(x, dx), (w, dw), (b, db)] {
                        if let Some(delta) = delta {
                            accum_owned(grads, nodes, pool, input, delta);
                        }
                    }
                }
                &Op::MaxPool2d { x, size } => {
                    let xv = &nodes[x].value;
                    let (bs, c, h, w) = dims4(xv.shape());
                    let (_, _, oh, ow) = dims4(nodes[id].value.shape());
                    let mut dx = pooled_full(pool, xv.shape(), 0.0);
                    let gd = gout.data();
                    let xd = xv.data();
                    for bi in 0..bs {
                        for ci in 0..c {
                            for y in 0..oh {
                                for xj in 0..ow {
                                    // Recompute the argmax; first maximum
                                    // wins on ties (deterministic).
                                    let mut best = f32::NEG_INFINITY;
                                    let mut best_i = 0;
                                    for ky in 0..size {
                                        for kx in 0..size {
                                            let i = idx4(
                                                bi,
                                                ci,
                                                y * size + ky,
                                                xj * size + kx,
                                                c,
                                                h,
                                                w,
                                            );
                                            if xd[i] > best {
                                                best = xd[i];
                                                best_i = i;
                                            }
                                        }
                                    }
                                    dx.data_mut()[best_i] += gd[idx4(bi, ci, y, xj, c, oh, ow)];
                                }
                            }
                        }
                    }
                    accum_owned(grads, nodes, pool, x, dx);
                }
            }
            grads[id] = Some(gout);
        }

        for (node, g) in nodes.iter_mut().zip(grads.drain(..)) {
            node.grad = g;
        }
    }
}

// --------------------------------------------------------- pooled helpers

/// Take a cleared buffer with capacity ≥ `len` from the pool (best fit,
/// newest first) or grow one.
fn pool_take(pool: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let found = pool.iter().rposition(|b| b.capacity() >= len);
    let mut b = match found {
        Some(i) => pool.swap_remove(i),
        None => pool.pop().unwrap_or_default(),
    };
    b.clear();
    b.reserve(len);
    b
}

/// Return a buffer to the pool (dropped when the pool is full).
fn pool_put(pool: &mut Vec<Vec<f32>>, buf: Vec<f32>) {
    if pool.len() < POOL_CAP {
        pool.push(buf);
    }
}

/// A pooled tensor filled with `value`.
fn pooled_full(pool: &mut Vec<Vec<f32>>, shape: &[usize], value: f32) -> Tensor {
    let n: usize = shape.iter().product();
    let mut buf = pool_take(pool, n);
    buf.resize(n, value);
    Tensor::from_vec(buf, shape)
}

/// A pooled elementwise map of `src`.
fn pooled_map(pool: &mut Vec<Vec<f32>>, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = pool_take(pool, src.len());
    buf.extend(src.data().iter().map(|&x| f(x)));
    Tensor::from_vec(buf, src.shape())
}

/// A pooled three-way elementwise combine (volumes must match; the
/// result carries `x`'s shape).
fn pooled_zip3(
    pool: &mut Vec<Vec<f32>>,
    g: &Tensor,
    x: &Tensor,
    y: &Tensor,
    f: impl Fn(f32, f32, f32) -> f32,
) -> Tensor {
    assert_eq!(g.len(), x.len());
    assert_eq!(g.len(), y.len());
    let mut buf = pool_take(pool, g.len());
    buf.extend(
        g.data()
            .iter()
            .zip(x.data())
            .zip(y.data())
            .map(|((&a, &b), &c)| f(a, b, c)),
    );
    Tensor::from_vec(buf, x.shape())
}

/// A pooled elementwise combine of `g` and `x` (volumes must match; the
/// result carries `x`'s shape).
fn pooled_zip(
    pool: &mut Vec<Vec<f32>>,
    g: &Tensor,
    x: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(g.len(), x.len());
    let mut buf = pool_take(pool, g.len());
    buf.extend(g.data().iter().zip(x.data()).map(|(&a, &b)| f(a, b)));
    Tensor::from_vec(buf, x.shape())
}

/// Accumulate an owned gradient `delta` into node `id`'s slot: moved in
/// when the slot is empty (reshaping in place to the node's shape),
/// added-and-recycled otherwise.
fn accum_owned(
    grads: &mut [Option<Tensor>],
    nodes: &[Node],
    pool: &mut Vec<Vec<f32>>,
    id: usize,
    mut delta: Tensor,
) {
    match &mut grads[id] {
        Some(g) => {
            assert_eq!(g.len(), delta.len(), "gradient volume mismatch");
            for (gd, &dd) in g.data_mut().iter_mut().zip(delta.data()) {
                *gd += dd;
            }
            pool_put(pool, delta.into_data());
        }
        slot => {
            if delta.shape() != nodes[id].value.shape() {
                delta.set_shape(nodes[id].value.shape());
            }
            *slot = Some(delta);
        }
    }
}

/// Accumulate a borrowed gradient into node `id`'s slot, copying through
/// the pool when the slot is empty.
fn accum_ref(
    grads: &mut [Option<Tensor>],
    nodes: &[Node],
    pool: &mut Vec<Vec<f32>>,
    id: usize,
    delta: &Tensor,
) {
    match &mut grads[id] {
        Some(g) => {
            assert_eq!(g.len(), delta.len(), "gradient volume mismatch");
            for (gd, &dd) in g.data_mut().iter_mut().zip(delta.data()) {
                *gd += dd;
            }
        }
        slot => {
            let mut buf = pool_take(pool, delta.len());
            buf.extend_from_slice(delta.data());
            *slot = Some(Tensor::from_vec(buf, nodes[id].value.shape()));
        }
    }
}

fn dims4(shape: &[usize]) -> (usize, usize, usize, usize) {
    assert_eq!(shape.len(), 4, "expected a 4-D tensor, got {shape:?}");
    (shape[0], shape[1], shape[2], shape[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d loss / d input` for every
    /// element of the chosen leaf.
    fn gradcheck<F>(input: Tensor, build: F, tol: f32)
    where
        F: Fn(&mut Graph, Var) -> Var,
    {
        let mut g = Graph::new();
        let x = g.param(input.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad_or_zeros(x);

        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: Tensor| {
                let mut g = Graph::new();
                let x = g.param(t);
                let l = build(&mut g, x);
                g.value(l).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn demo_input() -> Tensor {
        Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.05, -1.4, 0.9], &[2, 3])
    }

    #[test]
    fn gradcheck_matmul_bias_relu_mean() {
        let w = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]);
        let b = Tensor::from_vec(vec![0.1, -0.1], &[2]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let wv = g.input(w.clone());
                let bv = g.input(b.clone());
                let h = g.matmul(x, wv);
                let h = g.add_bias(h, bv);
                let h = g.relu(h);
                g.mean(h)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_matmul_weight_side() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.05, -1.4, 0.9], &[2, 3]);
        gradcheck(
            Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]),
            move |g, w| {
                let xv = g.input(x.clone());
                let h = g.matmul(xv, w);
                let h = g.tanh(h);
                g.mean(h)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_fused_linear_all_activations() {
        // The fused node must agree with finite differences through every
        // activation, on both the input and the weight side.
        let w = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]);
        let b = Tensor::from_vec(vec![0.15, -0.4], &[2]);
        for act in [Act::Identity, Act::Relu, Act::Tanh, Act::Sigmoid] {
            let (w2, b2) = (w.clone(), b.clone());
            gradcheck(
                demo_input(),
                move |g, x| {
                    let wv = g.input(w2.clone());
                    let bv = g.input(b2.clone());
                    let h = g.linear(x, wv, bv, act);
                    g.mean(h)
                },
                2e-2,
            );
        }
        let x = demo_input();
        for act in [Act::Identity, Act::Relu, Act::Tanh, Act::Sigmoid] {
            let x2 = x.clone();
            gradcheck(
                Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]),
                move |g, w| {
                    let xv = g.input(x2.clone());
                    let bv = g.input(Tensor::from_vec(vec![0.15, -0.4], &[2]));
                    let h = g.linear(xv, w, bv, act);
                    g.mean(h)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn fused_linear_matches_unfused_pipeline() {
        let x = demo_input();
        let w = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]);
        let b = Tensor::from_vec(vec![0.15, -0.4], &[2]);

        let mut g1 = Graph::new();
        let xv = g1.input(x.clone());
        let wv = g1.input(w.clone());
        let bv = g1.input(b.clone());
        let fused = g1.linear(xv, wv, bv, Act::Tanh);

        let mut g2 = Graph::new();
        let xv2 = g2.input(x);
        let wv2 = g2.input(w);
        let bv2 = g2.input(b);
        let mm = g2.matmul(xv2, wv2);
        let ab = g2.add_bias(mm, bv2);
        let t = g2.tanh(ab);

        // Bias-seeded accumulation reorders float additions vs the
        // unfused pipeline, so compare within an ulp-scale tolerance.
        for (a, b) in g1.value(fused).data().iter().zip(g2.value(t).data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(g1.len(), 4, "fused pipeline: 3 leaves + 1 node");
        assert_eq!(g2.len(), 6, "unfused pipeline: 3 leaves + 3 nodes");
    }

    #[test]
    fn gradcheck_tanh_sigmoid_exp() {
        gradcheck(
            demo_input(),
            |g, x| {
                let a = g.tanh(x);
                let b = g.sigmoid(a);
                let c = g.exp(b);
                g.mean(c)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_log_softmax_select() {
        gradcheck(
            demo_input(),
            |g, x| {
                let ls = g.log_softmax(x);
                let picked = g.select_cols(ls, &[2, 0]);
                g.mean(picked)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_clamp_min_mul() {
        let other = Tensor::from_vec(vec![0.2, -0.3, 0.8, -0.9, 0.4, 1.1], &[2, 3]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let o = g.input(other.clone());
                let c = g.clamp(x, -1.0, 1.0);
                let m = g.min_elem(c, o);
                let p = g.mul(m, o);
                g.mean(p)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_sum_rows_and_arith() {
        gradcheck(
            demo_input(),
            |g, x| {
                let s = g.scale(x, 1.7);
                let s = g.add_scalar(s, 0.3);
                let r = g.sum_rows(s);
                let sq = g.mul(r, r);
                g.sum(sq)
            },
            5e-2,
        );
    }

    #[test]
    fn gradcheck_sub_add() {
        let other = Tensor::from_vec(vec![0.2, -0.3, 0.8, -0.9, 0.4, 1.1], &[2, 3]);
        gradcheck(
            demo_input(),
            move |g, x| {
                let o = g.input(other.clone());
                let d = g.sub(x, o);
                let e = g.add(d, x);
                let f = g.mul(e, e);
                g.mean(f)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_reshape_pipeline() {
        gradcheck(
            demo_input(),
            |g, x| {
                let r = g.reshape(x, &[3, 2]);
                let t = g.tanh(r);
                g.mean(t)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_conv_and_pool() {
        // 1 batch, 1 channel, 4x4 input; 1 output channel, 2x2 kernel.
        let x = Tensor::from_vec(
            (0..16).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[1, 1, 4, 4],
        );
        gradcheck(
            x,
            |g, xin| {
                let w = g.param(Tensor::from_vec(vec![0.4, -0.2, 0.3, 0.1], &[1, 1, 2, 2]));
                let b = g.param(Tensor::from_vec(vec![0.05], &[1]));
                let c = g.conv2d(xin, w, b, 1); // [1,1,3,3]
                let t = g.tanh(c);
                g.mean(t)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_conv_weights() {
        let x = Tensor::from_vec(
            (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.2).collect(),
            &[1, 2, 4, 4],
        );
        gradcheck(
            Tensor::from_vec(
                (0..16).map(|i| ((i * 5 % 11) as f32 - 5.0) * 0.1).collect(),
                &[2, 2, 2, 2],
            ),
            move |g, w| {
                let xin = g.input(x.clone());
                let b = g.input(Tensor::from_vec(vec![0.0, 0.1], &[2]));
                let c = g.conv2d(xin, w, b, 2); // [1,2,2,2]
                let p = g.max_pool2d(c, 2); // [1,2,1,1]
                let r = g.reshape(p, &[1, 2]);
                let s = g.sum_rows(r);
                g.sum(s)
            },
            2e-2,
        );
    }

    #[test]
    fn log_softmax_rows_are_normalized() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
            &[2, 3],
        ));
        let ls = g.log_softmax(x);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| g.value(ls).at(i, j).exp()).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn log_softmax_handles_extreme_logits() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1000.0, -1000.0, 0.0], &[1, 3]));
        let ls = g.log_softmax(x);
        assert!(g.value(ls).data().iter().all(|v| v.is_finite()));
        assert!(
            (g.value(ls).at(0, 0)).abs() < 1e-5,
            "dominant logit has logprob ~0"
        );
    }

    #[test]
    fn gradients_accumulate_over_reused_nodes() {
        // loss = mean(x * x): d/dx = 2x/len, uses x twice via Mul(a,a).
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![3.0, -2.0], &[2]));
        let sq = g.mul(x, x);
        let loss = g.mean(sq);
        g.backward(loss);
        let gr = g.grad(x).expect("touched");
        assert!((gr.data()[0] - 3.0).abs() < 1e-5);
        assert!((gr.data()[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn conv_output_shape_and_value() {
        // Uniform input, unit kernel: every output equals k*k*mean + bias.
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[1, 1, 4, 4], 2.0));
        let w = g.input(Tensor::full(&[1, 1, 2, 2], 1.0));
        let b = g.input(Tensor::from_vec(vec![0.5], &[1]));
        let c = g.conv2d(x, w, b, 2);
        assert_eq!(g.value(c).shape(), &[1, 1, 2, 2]);
        assert!(g.value(c).data().iter().all(|&v| (v - 8.5).abs() < 1e-6));
    }

    #[test]
    fn max_pool_takes_window_max() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        ));
        let p = g.max_pool2d(x, 2);
        assert_eq!(g.value(p).data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[2, 2]));
        let y = g.relu(x);
        g.backward(y);
    }

    #[test]
    fn is_param_distinguishes_leaves() {
        let mut g = Graph::new();
        let p = g.param(Tensor::zeros(&[1]));
        let i = g.input(Tensor::zeros(&[1]));
        let s = g.add(p, i);
        assert!(g.is_param(p));
        assert!(!g.is_param(i));
        assert!(!g.is_param(s));
    }

    #[test]
    fn grad_of_untouched_node_is_none_and_zeros() {
        let mut g = Graph::new();
        let x = g.param(Tensor::zeros(&[3]));
        let y = g.param(Tensor::from_vec(vec![1.0], &[1]));
        let loss = g.mean(y);
        g.backward(loss);
        assert!(g.grad(x).is_none());
        assert_eq!(g.grad_or_zeros(x).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(g.grad(y).expect("touched").data(), &[1.0]);
    }

    #[test]
    fn take_grad_moves_out_once() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(vec![2.0], &[1]));
        let sq = g.mul(x, x);
        let loss = g.mean(sq);
        g.backward(loss);
        let taken = g.take_grad(x);
        assert!((taken.data()[0] - 4.0).abs() < 1e-6);
        // A second take sees no gradient and falls back to zeros.
        assert_eq!(g.take_grad(x).data(), &[0.0]);
    }

    /// The tentpole regression test: a reused (reset) graph must produce
    /// bit-identical values and gradients to a fresh one.
    #[test]
    fn reset_reuse_is_bit_identical() {
        let x = demo_input();
        let w = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, -0.3, 0.4], &[3, 2]);
        let b = Tensor::from_vec(vec![0.15, -0.4], &[2]);

        let run = |g: &mut Graph| -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
            let xv = g.param(x.clone());
            let wv = g.param(w.clone());
            let bv = g.param(b.clone());
            let h = g.linear(xv, wv, bv, Act::Tanh);
            let ls = g.log_softmax(h);
            let sel = g.select_cols(ls, &[1, 0]);
            let loss = g.mean(sel);
            g.backward(loss);
            (
                g.value(loss).data().to_vec(),
                g.grad_or_zeros(xv).data().to_vec(),
                g.grad_or_zeros(wv).data().to_vec(),
                g.grad_or_zeros(bv).data().to_vec(),
            )
        };

        let mut fresh = Graph::new();
        let expect = run(&mut fresh);

        let mut reused = Graph::new();
        let _ = run(&mut reused);
        for _ in 0..3 {
            reused.reset();
            assert!(reused.is_empty());
            let got = run(&mut reused);
            assert_eq!(got, expect, "reset graph diverged from fresh graph");
        }
    }

    #[test]
    fn reset_recycles_buffers() {
        let mut g = Graph::new();
        let x = g.input_from(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = g.relu(x);
        let _ = g.mean(y);
        assert_eq!(g.pool_len(), 0);
        g.reset();
        assert!(g.pool_len() >= 3, "node buffers returned to the pool");
        // Re-running the same shape of work drains the pool again.
        let x = g.input_from(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = g.relu(x);
        let _ = g.mean(y);
        assert!(g.pool_len() < 3);
    }

    #[test]
    fn input_from_matches_input() {
        let data = [0.5f32, -1.5, 2.5, 0.0];
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(data.to_vec(), &[2, 2]));
        let b = g.input_from(&data, &[2, 2]);
        assert_eq!(g.value(a), g.value(b));
        assert!(!g.is_param(b));
        let t = g.value(a).clone();
        let p = g.param_from(&t);
        assert!(g.is_param(p));
        assert_eq!(g.value(p), &t);
    }
}
