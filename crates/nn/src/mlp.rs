//! Multi-layer perceptron with ReLU hidden layers.

use crate::adam::AdamParams;
use crate::linear::Linear;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uadb_linalg::Matrix;

/// Output-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Sigmoid output — the UADB booster predicts anomaly scores in `[0,1]`.
    Sigmoid,
    /// Identity output — DeepSVDD embeds into an unconstrained space.
    Identity,
}

/// MLP architecture description.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature count.
    pub input_dim: usize,
    /// Hidden layer widths (the booster uses `[128, 128]`).
    pub hidden: Vec<usize>,
    /// Output width (1 for the booster; the embedding size for DeepSVDD).
    pub output_dim: usize,
    /// Output activation.
    pub activation: Activation,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The UADB booster architecture of §IV-A: `input -> 128 -> 128 -> 1`
    /// with a sigmoid head ("3-layer fully-connected MLP with 128 neurons
    /// in each hidden layer").
    pub fn booster(input_dim: usize, seed: u64) -> Self {
        Self {
            input_dim,
            hidden: vec![128, 128],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed,
        }
    }
}

/// A dense MLP with ReLU hidden activations.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Intermediate activations retained for the backward pass.
///
/// The caller's batch is *borrowed* as the input to layer 0 — the
/// historic cache cloned `x` twice per step (once into the cache, once
/// as the working activation); now only the hidden activations are
/// owned, each allocated exactly once.
pub struct ForwardCache<'a> {
    /// The caller's batch: input to layer 0, borrowed uncopied.
    x0: &'a Matrix,
    /// `inners[i]` is the post-ReLU output of layer `i`, i.e. the
    /// input to layer `i + 1`.
    inners: Vec<Matrix>,
    /// Post-activation network output.
    output: Matrix,
}

impl ForwardCache<'_> {
    /// The network output after the output activation.
    pub fn output(&self) -> &Matrix {
        &self.output
    }

    /// The input that was fed to layer `i`.
    fn input(&self, i: usize) -> &Matrix {
        if i == 0 {
            self.x0
        } else {
            &self.inners[i - 1]
        }
    }
}

/// Reusable inference workspace for [`Mlp::forward_scored`]: two
/// ping-pong activation buffers sized to `batch × widest layer`,
/// grown once and reused across calls — steady-state scoring performs
/// no allocation.
///
/// A scratch is not tied to one network or batch size; it regrows (and
/// keeps capacity) as needed. It holds no numeric state between calls:
/// every buffer element read was written earlier in the same call.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    ping: Vec<f64>,
    pong: Vec<f64>,
}

impl Mlp {
    /// Builds the network with Xavier-initialised layers.
    pub fn new(cfg: &MlpConfig) -> Self {
        assert!(cfg.input_dim > 0 && cfg.output_dim > 0, "dims must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = Vec::with_capacity(cfg.hidden.len() + 2);
        dims.push(cfg.input_dim);
        dims.extend_from_slice(&cfg.hidden);
        dims.push(cfg.output_dim);
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], &mut rng)).collect();
        Self { layers, activation: cfg.activation }
    }

    /// Rebuilds a network from persisted layers (see
    /// [`Linear::from_parts`]); layer output/input widths must chain.
    ///
    /// # Panics
    /// If `layers` is empty or consecutive layer dimensions disagree.
    pub fn from_layers(layers: Vec<Linear>, activation: Activation) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].output_dim(), w[1].input_dim(), "layer dimensions must chain");
        }
        Self { layers, activation }
    }

    /// Number of trainable layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature count the network expects.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width of the network head.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].output_dim()
    }

    /// Output activation applied by the final layer.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// All layers in forward order (serialisation).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layer slice for the scratch training engine.
    pub(crate) fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Forward pass retaining activations for backprop. The cache
    /// borrows `x` as the layer-0 input; each hidden activation is
    /// allocated exactly once (no clones of the caller's batch).
    pub fn forward_cached<'a>(&self, x: &'a Matrix) -> ForwardCache<'a> {
        let last = self.layers.len() - 1;
        let mut inners = Vec::with_capacity(last);
        let mut output = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let input: &Matrix = if i == 0 { x } else { &inners[i - 1] };
            let mut y = layer.forward(input);
            if i < last {
                relu_slice(y.as_mut_slice());
                inners.push(y);
            } else {
                output = Some(y);
            }
        }
        let mut output = output.expect("network has at least one layer");
        if self.activation == Activation::Sigmoid {
            sigmoid_slice(output.as_mut_slice());
        }
        ForwardCache { x0: x, inners, output }
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_cached(x).output
    }

    /// Single-column prediction convenience: `(B, 1)` output flattened.
    pub fn predict_vec(&self, x: &Matrix) -> Vec<f64> {
        self.forward(x).into_vec()
    }

    /// Allocation-free inference: the full forward pass through the
    /// caller's [`ForwardScratch`], returning the post-activation
    /// output as a borrowed `(rows × output_dim)` row-major slice.
    ///
    /// Bit-identical to [`Mlp::forward`]; unlike the training-time
    /// [`Mlp::forward_cached`] it retains no intermediate activations
    /// and allocates nothing once the scratch has grown to the batch.
    ///
    /// # Panics
    /// If `x` is not [`Mlp::input_dim`] wide.
    pub fn forward_scored<'s>(&self, x: &Matrix, scratch: &'s mut ForwardScratch) -> &'s [f64] {
        assert_eq!(x.cols(), self.input_dim(), "input width mismatch");
        self.forward_rows(x.as_slice(), x.rows(), scratch)
    }

    /// [`Mlp::forward_scored`] over a raw row-major slice of `batch`
    /// rows — the form the serving path uses so standardised feature
    /// buffers never need a `Matrix` wrapper.
    ///
    /// # Panics
    /// If `rows.len() != batch * self.input_dim()`.
    pub fn forward_rows<'s>(
        &self,
        rows: &[f64],
        batch: usize,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        assert_eq!(rows.len(), batch * self.input_dim(), "row buffer length mismatch");
        let widest = self.layers.iter().map(Linear::output_dim).max().expect("layers non-empty");
        let need = batch * widest;
        let ForwardScratch { ping, pong } = scratch;
        if ping.len() < need {
            ping.resize(need, 0.0);
        }
        if pong.len() < need {
            pong.resize(need, 0.0);
        }
        let last = self.layers.len() - 1;
        // `src`: where the previous layer wrote (None = the input).
        let mut src_is_ping: Option<bool> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let n_out = batch * layer.output_dim();
            let n_in = batch * layer.input_dim();
            let dst_is_ping = match src_is_ping {
                None => {
                    layer.forward_into(rows, batch, &mut ping[..n_out]);
                    true
                }
                Some(true) => {
                    layer.forward_into(&ping[..n_in], batch, &mut pong[..n_out]);
                    false
                }
                Some(false) => {
                    layer.forward_into(&pong[..n_in], batch, &mut ping[..n_out]);
                    true
                }
            };
            let wrote = if dst_is_ping { &mut ping[..n_out] } else { &mut pong[..n_out] };
            if i < last {
                relu_slice(wrote);
            } else if self.activation == Activation::Sigmoid {
                sigmoid_slice(wrote);
            }
            src_is_ping = Some(dst_is_ping);
        }
        let n_final = batch * self.layers[last].output_dim();
        if src_is_ping == Some(true) {
            &ping[..n_final]
        } else {
            &pong[..n_final]
        }
    }

    /// Backward pass from `grad_output` (gradient of the loss w.r.t. the
    /// *post-activation* output) and one Adam step on every layer.
    pub fn backward_and_step(
        &mut self,
        cache: &ForwardCache<'_>,
        grad_output: &Matrix,
        hp: &AdamParams,
    ) {
        // Undo the output activation.
        let mut grad = match self.activation {
            Activation::Sigmoid => {
                // d sigmoid = s (1 - s)
                let mut g = grad_output.clone();
                for (gv, &s) in g.as_mut_slice().iter_mut().zip(cache.output.as_slice()) {
                    *gv *= s * (1.0 - s);
                }
                g
            }
            Activation::Identity => grad_output.clone(),
        };
        let last = self.layers.len() - 1;
        for i in (0..self.layers.len()).rev() {
            if i < last {
                // The input to layer i+1 is relu(pre-activation of layer i);
                // the ReLU derivative gates on that stored input.
                let gate = cache.input(i + 1);
                for (gv, &a) in grad.as_mut_slice().iter_mut().zip(gate.as_slice()) {
                    if a <= 0.0 {
                        *gv = 0.0;
                    }
                }
            }
            grad = self.layers[i].backward(cache.input(i), &grad);
        }
        for layer in &mut self.layers {
            layer.apply_adam(hp);
        }
    }

    /// Read access to a layer (tests, DeepSVDD centre computation).
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    /// Mutable access to a layer (finite-difference checks).
    pub fn layer_mut(&mut self, i: usize) -> &mut Linear {
        &mut self.layers[i]
    }
}

/// In-place ReLU over an activation buffer. Written as a select rather
/// than a conditional store so it compiles branch-free: the input signs
/// are random, and a branch on them mispredicts about half the time.
/// Negatives become `+0.0`; NaN and `-0.0` pass through unchanged.
// audit: no_alloc
pub(crate) fn relu_slice(vals: &mut [f64]) {
    for v in vals {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// In-place numerically-stable sigmoid over an activation buffer.
pub(crate) fn sigmoid_slice(vals: &mut [f64]) {
    for v in vals {
        *v = sigmoid(*v);
    }
}

/// Numerically-stable scalar sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp(seed: u64) -> Mlp {
        Mlp::new(&MlpConfig {
            input_dim: 3,
            hidden: vec![5, 4],
            output_dim: 1,
            activation: Activation::Sigmoid,
            seed,
        })
    }

    #[test]
    fn output_in_unit_interval_for_sigmoid() {
        let mlp = tiny_mlp(0);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 - 6.0).collect()).unwrap();
        let y = mlp.forward(&x);
        assert_eq!(y.shape(), (4, 1));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny_mlp(7).forward(&Matrix::filled(2, 3, 0.5));
        let b = tiny_mlp(7).forward(&Matrix::filled(2, 3, 0.5));
        assert_eq!(a.as_slice(), b.as_slice());
        let c = tiny_mlp(8).forward(&Matrix::filled(2, 3, 0.5));
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_check_full_network() {
        // MSE loss against a fixed target; compare analytic dW of every
        // layer with central finite differences.
        let mut mlp = tiny_mlp(42);
        let x = Matrix::from_vec(5, 3, (0..15).map(|i| (i as f64) * 0.25 - 2.0).collect()).unwrap();
        let target = vec![0.1, 0.9, 0.4, 0.6, 0.2];
        let loss = |mlp: &Mlp| -> f64 {
            let out = mlp.forward(&x);
            out.as_slice().iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum::<f64>()
                / target.len() as f64
        };
        // Analytic gradient: dL/do = 2 (o - t) / n.
        let cache = mlp.forward_cached(&x);
        let n = target.len() as f64;
        let grad_out_data: Vec<f64> =
            cache.output().as_slice().iter().zip(&target).map(|(o, t)| 2.0 * (o - t) / n).collect();
        let grad_out = Matrix::from_vec(5, 1, grad_out_data).unwrap();
        // Run backward WITHOUT the optimiser step: use a zero-lr Adam.
        let hp = AdamParams { lr: 0.0, ..AdamParams::default() };
        mlp.backward_and_step(&cache, &grad_out, &hp);
        let eps = 1e-6;
        for li in 0..mlp.n_layers() {
            let analytic = mlp.layer(li).grad_weights().to_vec();
            let n_params = analytic.len();
            for idx in (0..n_params).step_by(3) {
                let orig = mlp.layer(li).weights().as_slice()[idx];
                mlp.layer_mut(li).weights_mut().as_mut_slice()[idx] = orig + eps;
                let up = loss(&mlp);
                mlp.layer_mut(li).weights_mut().as_mut_slice()[idx] = orig - eps;
                let down = loss(&mlp);
                mlp.layer_mut(li).weights_mut().as_mut_slice()[idx] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - analytic[idx]).abs() < 1e-5,
                    "layer {li} dW[{idx}]: numeric {numeric} vs analytic {}",
                    analytic[idx]
                );
            }
        }
    }

    #[test]
    fn forward_scored_is_bit_identical_to_forward() {
        let mlp = tiny_mlp(13);
        let mut scratch = ForwardScratch::default();
        // Reuse one scratch across shrinking and growing batch sizes;
        // stale tail contents must never leak into results.
        for rows in [7usize, 2, 9, 1] {
            let x =
                Matrix::from_vec(rows, 3, (0..rows * 3).map(|i| (i as f64) * 0.21 - 2.0).collect())
                    .unwrap();
            let expect = mlp.forward(&x);
            let got = mlp.forward_scored(&x, &mut scratch);
            assert_eq!(got.len(), rows);
            for (g, e) in got.iter().zip(expect.as_slice()) {
                assert_eq!(g.to_bits(), e.to_bits(), "batch of {rows}");
            }
        }
        // The same scratch serves a differently-shaped network.
        let other = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![11],
            output_dim: 4,
            activation: Activation::Identity,
            seed: 3,
        });
        let x = Matrix::filled(5, 2, 0.4);
        let got = other.forward_scored(&x, &mut scratch);
        assert_eq!(got.len(), 5 * 4);
        for (g, e) in got.iter().zip(other.forward(&x).as_slice()) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn forward_rows_zero_batch_is_empty() {
        let mlp = tiny_mlp(14);
        let mut scratch = ForwardScratch::default();
        assert!(mlp.forward_rows(&[], 0, &mut scratch).is_empty());
    }

    #[test]
    fn identity_head_is_unbounded() {
        let mlp = Mlp::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![8],
            output_dim: 3,
            activation: Activation::Identity,
            seed: 1,
        });
        let y = mlp.forward(&Matrix::filled(1, 2, 100.0));
        assert_eq!(y.shape(), (1, 3));
        // With inputs of 100 the embedding should comfortably leave [0,1].
        assert!(y.as_slice().iter().any(|&v| !(0.0..=1.0).contains(&v)));
    }

    #[test]
    fn from_layers_round_trip_is_bit_identical() {
        let mlp = tiny_mlp(11);
        let rebuilt = Mlp::from_layers(
            mlp.layers()
                .iter()
                .map(|l| Linear::from_parts(l.weights().clone(), l.bias().to_vec()))
                .collect(),
            mlp.activation(),
        );
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.7 - 4.0).collect()).unwrap();
        assert_eq!(mlp.forward(&x).as_slice(), rebuilt.forward(&x).as_slice());
        assert_eq!(rebuilt.input_dim(), 3);
        assert_eq!(rebuilt.activation(), Activation::Sigmoid);
    }

    #[test]
    #[should_panic(expected = "must chain")]
    fn from_layers_rejects_mismatched_dims() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new(3, 5, &mut rng);
        let b = Linear::new(4, 1, &mut rng);
        let _ = Mlp::from_layers(vec![a, b], Activation::Sigmoid);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_input_dim_rejected() {
        let _ = Mlp::new(&MlpConfig {
            input_dim: 0,
            hidden: vec![],
            output_dim: 1,
            activation: Activation::Identity,
            seed: 0,
        });
    }
}
