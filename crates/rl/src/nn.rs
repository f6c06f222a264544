//! A dense neural network with manual backpropagation and SGD.
//!
//! This is the crate's TensorFlow stand-in (paper Fig. 13): the
//! benchmarks need real gradient computation with controllable
//! parameter-count/compute ratios, not framework bindings. Layers are
//! fully connected with tanh/ReLU/identity activations; initialization is
//! Xavier-uniform from a deterministic seed; the optimizer is SGD with
//! momentum over flat parameter vectors (the representation the parameter
//! server and allreduce paths ship around).

use serde::{Deserialize, Serialize};

use crate::envs::EnvRng;

/// Activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// No-op (linear output layers).
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// One fully connected layer: `y = act(W·x + b)`, with `W` stored
/// row-major `[out × in]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    act: Activation,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut EnvRng) -> Dense {
        // Xavier-uniform: U(−√(6/(in+out)), +√(6/(in+out))).
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim).map(|_| rng.uniform(-bound, bound)).collect();
        Dense { w, b: vec![0.0; out_dim], in_dim, out_dim, act }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.in_dim);
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x.iter()) {
                acc += wi * xi;
            }
            out.push(self.act.apply(acc));
        }
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Per-layer activations cached by [`Mlp::forward_cached`] for backprop.
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i+1]` is layer `i`'s
    /// output.
    activations: Vec<Vec<f64>>,
}

/// Gradients with the same flat layout as [`Mlp::params`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gradients(pub Vec<f64>);

impl Gradients {
    /// A zero gradient for a network of `n` parameters.
    pub fn zeros(n: usize) -> Gradients {
        Gradients(vec![0.0; n])
    }

    /// Accumulates another gradient in place.
    pub fn add_assign(&mut self, other: &Gradients) {
        assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Scales in place.
    pub fn scale(&mut self, s: f64) {
        for g in &mut self.0 {
            *g *= s;
        }
    }
}

impl Mlp {
    /// Builds an MLP with layer sizes `dims` (e.g. `[4, 32, 32, 1]`),
    /// `hidden` activation everywhere except the `output` activation on
    /// the last layer. Deterministic per `seed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ray_rl::nn::{Activation, Mlp};
    /// let net = Mlp::new(&[3, 16, 2], Activation::Tanh, Activation::Identity, 1);
    /// assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    /// ```
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, seed: u64) -> Mlp {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = EnvRng::new(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i == dims.len() - 2 { output } else { hidden };
            layers.push(Dense::new(dims[i], dims[i + 1], act, &mut rng));
        }
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Forward pass retaining per-layer activations for backprop.
    pub fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, ForwardCache) {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.to_vec());
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for layer in &self.layers {
            layer.forward(&cur, &mut next);
            activations.push(next.clone());
            std::mem::swap(&mut cur, &mut next);
        }
        (cur, ForwardCache { activations })
    }

    /// Backpropagates `grad_out` (∂loss/∂output) through the cached
    /// forward pass, returning flat parameter gradients.
    pub fn backward(&self, cache: &ForwardCache, grad_out: &[f64]) -> Gradients {
        let mut grads = vec![0.0; self.num_params()];
        let mut delta: Vec<f64> = grad_out.to_vec();
        // Walk layers in reverse; `offset` tracks each layer's slot in the
        // flat gradient vector.
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut off = 0usize;
        for l in &self.layers {
            offsets.push(off);
            off += l.w.len() + l.b.len();
        }
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input = &cache.activations[li];
            let output = &cache.activations[li + 1];
            // δ ← δ ⊙ f'(z), expressed via the output.
            for (d, y) in delta.iter_mut().zip(output.iter()) {
                *d *= layer.act.derivative_from_output(*y);
            }
            let base = offsets[li];
            let (gw, gb) = grads[base..base + layer.w.len() + layer.b.len()]
                .split_at_mut(layer.w.len());
            let mut grad_in = vec![0.0; layer.in_dim];
            for o in 0..layer.out_dim {
                let d = delta[o];
                gb[o] += d;
                let row = &mut gw[o * layer.in_dim..(o + 1) * layer.in_dim];
                let wrow = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                for i in 0..layer.in_dim {
                    row[i] += d * input[i];
                    grad_in[i] += d * wrow[i];
                }
            }
            delta = grad_in;
        }
        Gradients(grads)
    }

    /// Flat parameter vector (row-major weights then biases, layer by
    /// layer).
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Installs a flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch (caller bug).
    pub fn set_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "parameter vector length mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            let wlen = l.w.len();
            l.w.copy_from_slice(&flat[off..off + wlen]);
            off += wlen;
            let blen = l.b.len();
            l.b.copy_from_slice(&flat[off..off + blen]);
            off += blen;
        }
    }
}

/// SGD with momentum over flat parameter vectors.
#[derive(Debug, Clone)]
pub struct SgdOptimizer {
    lr: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

impl SgdOptimizer {
    /// Creates the optimizer for `n` parameters.
    pub fn new(n: usize, lr: f64, momentum: f64) -> SgdOptimizer {
        SgdOptimizer { lr, momentum, velocity: vec![0.0; n] }
    }

    /// Applies one update to `params` in place.
    pub fn step(&mut self, params: &mut [f64], grads: &Gradients) {
        assert_eq!(params.len(), self.velocity.len());
        assert_eq!(params.len(), grads.0.len());
        for (i, p) in params.iter_mut().enumerate() {
            self.velocity[i] = self.momentum * self.velocity[i] - self.lr * grads.0[i];
            *p += self.velocity[i];
        }
    }
}

/// Mean-squared-error loss and its output gradient.
pub fn mse_loss(pred: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(pred.len(), target.len());
    let n = pred.len().max(1) as f64;
    let mut loss = 0.0;
    let grad = pred
        .iter()
        .zip(target.iter())
        .map(|(p, t)| {
            let d = p - t;
            loss += d * d;
            2.0 * d / n
        })
        .collect();
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_determinism() {
        let a = Mlp::new(&[4, 8, 3], Activation::Tanh, Activation::Identity, 7);
        let b = Mlp::new(&[4, 8, 3], Activation::Tanh, Activation::Identity, 7);
        let x = [0.1, -0.2, 0.3, 0.4];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_eq!(a.forward(&x).len(), 3);
        let c = Mlp::new(&[4, 8, 3], Activation::Tanh, Activation::Identity, 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn params_round_trip() {
        let mut net = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Identity, 1);
        let p = net.params();
        assert_eq!(p.len(), net.num_params());
        assert_eq!(net.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
        let doubled: Vec<f64> = p.iter().map(|x| x * 2.0).collect();
        net.set_params(&doubled);
        assert_eq!(net.params(), doubled);
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut net = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Identity, 3);
        let x = [0.5, -0.3, 0.8];
        let target = [1.0, -1.0];
        let (pred, cache) = net.forward_cached(&x);
        let (_, grad_out) = mse_loss(&pred, &target);
        let analytic = net.backward(&cache, &grad_out);

        let params = net.params();
        let eps = 1e-6;
        for idx in [0usize, 5, 17, params.len() - 1] {
            let mut plus = params.clone();
            plus[idx] += eps;
            net.set_params(&plus);
            let (lp, _) = mse_loss(&net.forward(&x), &target);
            let mut minus = params.clone();
            minus[idx] -= eps;
            net.set_params(&minus);
            let (lm, _) = mse_loss(&net.forward(&x), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.0[idx]).abs() < 1e-5,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic.0[idx]
            );
            net.set_params(&params);
        }
    }

    #[test]
    fn sgd_learns_a_linear_function() {
        // y = 2x₀ − x₁; a tiny MLP should fit it quickly.
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, 5);
        let mut opt = SgdOptimizer::new(net.num_params(), 0.02, 0.5);
        let mut rng = EnvRng::new(11);
        for _ in 0..3000 {
            let x = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
            let target = [2.0 * x[0] - x[1]];
            let (pred, cache) = net.forward_cached(&x);
            let (_, grad_out) = mse_loss(&pred, &target);
            let grads = net.backward(&cache, &grad_out);
            let mut params = net.params();
            opt.step(&mut params, &grads);
            net.set_params(&params);
        }
        // Evaluate on a held-out grid.
        let mut total = 0.0;
        let mut count = 0;
        for i in -4i32..=4 {
            for j in -4i32..=4 {
                let x = [i as f64 / 5.0, j as f64 / 5.0];
                let target = [2.0 * x[0] - x[1]];
                let (loss, _) = mse_loss(&net.forward(&x), &target);
                total += loss;
                count += 1;
            }
        }
        let avg = total / count as f64;
        assert!(avg < 0.05, "failed to fit: avg loss {avg}");
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let mut g = Gradients::zeros(3);
        g.add_assign(&Gradients(vec![1.0, 2.0, 3.0]));
        g.add_assign(&Gradients(vec![1.0, 0.0, -1.0]));
        g.scale(0.5);
        assert_eq!(g.0, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_blocks_negative_gradient() {
        let y_pos = Activation::Relu.derivative_from_output(0.5);
        let y_neg = Activation::Relu.derivative_from_output(0.0);
        assert_eq!(y_pos, 1.0);
        assert_eq!(y_neg, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, 2);
        let bytes = ray_codec::encode(&net).unwrap();
        let back: Mlp = ray_codec::decode(&bytes).unwrap();
        assert_eq!(net, back);
    }
}
