//! Per-layer timing: a [`Layer`] that wraps one top-level model layer and
//! adds the time spent in its forward and backward passes to a clock
//! shared by every clone of the model, and the LeNet-5 / ResNet-9
//! builders that wrap each top-level layer of the model zoo's networks.
//!
//! The wrapper delegates every call unchanged, and the builders draw
//! weights from the RNG in the same order as `fedclust_nn::models`, so a
//! timed model computes exactly what `ModelSpec::build` computes; the
//! tests below pin that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fedclust_nn::activation::Relu;
use fedclust_nn::conv2d::Conv2d;
use fedclust_nn::dense::Dense;
use fedclust_nn::models::ModelSpec;
use fedclust_nn::norm::BatchNorm2d;
use fedclust_nn::pool::{GlobalAvgPool2d, MaxPool2d};
use fedclust_nn::structural::{Flatten, Residual};
use fedclust_nn::{Layer, Model, Param, Sequential};
use fedclust_tensor::conv::Conv2dGeom;
use fedclust_tensor::Tensor;
use rand::Rng;

/// Busy time of one layer, summed over every thread and model clone.
#[derive(Default)]
pub struct LayerClock {
    fwd_train_ns: AtomicU64,
    fwd_eval_ns: AtomicU64,
    bwd_ns: AtomicU64,
}

/// A snapshot of one [`LayerClock`], in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    pub fwd_train_ns: u64,
    pub fwd_eval_ns: u64,
    pub bwd_ns: u64,
}

impl LayerTimes {
    pub fn total_ns(&self) -> u64 {
        self.fwd_train_ns + self.bwd_ns + self.fwd_eval_ns
    }

    pub fn minus(&self, earlier: &LayerTimes) -> LayerTimes {
        LayerTimes {
            fwd_train_ns: self.fwd_train_ns - earlier.fwd_train_ns,
            fwd_eval_ns: self.fwd_eval_ns - earlier.fwd_eval_ns,
            bwd_ns: self.bwd_ns - earlier.bwd_ns,
        }
    }
}

// The clocks are statistics: they publish no other data, and they are
// read only after the parallel section that wrote them has joined.
impl LayerClock {
    fn add(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn read(&self) -> LayerTimes {
        LayerTimes {
            fwd_train_ns: self.fwd_train_ns.load(Ordering::Relaxed),
            fwd_eval_ns: self.fwd_eval_ns.load(Ordering::Relaxed),
            bwd_ns: self.bwd_ns.load(Ordering::Relaxed),
        }
    }
}

/// A layer whose forward and backward passes are timed into a shared
/// [`LayerClock`]. Everything else forwards to the wrapped layer.
#[derive(Clone)]
pub struct Timed {
    inner: Box<dyn Layer>,
    clock: Arc<LayerClock>,
}

impl Layer for Timed {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let start = Instant::now();
        let y = self.inner.forward(x, train);
        let counter = if train {
            &self.clock.fwd_train_ns
        } else {
            &self.clock.fwd_eval_ns
        };
        LayerClock::add(counter, start);
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let start = Instant::now();
        let g = self.inner.backward(grad_out);
        LayerClock::add(&self.clock.bwd_ns, start);
        g
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn extra_state(&self) -> Vec<f32> {
        self.inner.extra_state()
    }

    fn extra_state_len(&self) -> usize {
        self.inner.extra_state_len()
    }

    fn set_extra_state(&mut self, state: &[f32]) {
        self.inner.set_extra_state(state)
    }
}

/// One top-level layer of a timed model: its `<index>-<kind>` label and
/// its clock.
pub struct LayerSlot {
    pub label: String,
    pub clock: Arc<LayerClock>,
}

/// A model whose top-level layers are all [`Timed`], plus their clocks.
pub struct TimedModel {
    pub model: Model,
    pub slots: Vec<LayerSlot>,
}

impl TimedModel {
    fn wrap(layers: Vec<Box<dyn Layer>>, num_classes: usize, architecture: &str) -> TimedModel {
        let mut slots = Vec::with_capacity(layers.len());
        let mut wrapped: Vec<Box<dyn Layer>> = Vec::with_capacity(layers.len());
        for (i, inner) in layers.into_iter().enumerate() {
            let clock = Arc::new(LayerClock::default());
            slots.push(LayerSlot {
                label: format!("{}-{}", i, inner.name()),
                clock: Arc::clone(&clock),
            });
            wrapped.push(Box::new(Timed { inner, clock }));
        }
        TimedModel {
            model: Model::new(wrapped, num_classes, architecture),
            slots,
        }
    }

    /// Current reading of every layer clock, in layer order.
    pub fn read(&self) -> Vec<LayerTimes> {
        self.slots.iter().map(|s| s.clock.read()).collect()
    }
}

/// Build `spec` with every top-level layer timed. Only the two
/// architectures the benchmark's workloads use are supported.
pub fn build_timed(
    spec: ModelSpec,
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    rng: &mut impl Rng,
) -> Result<TimedModel, String> {
    match spec {
        ModelSpec::LeNet5 => Ok(lenet5(c, h, w, num_classes, rng)),
        ModelSpec::ResNet9 => Ok(resnet9(c, h, w, num_classes, rng)),
        other => Err(format!("no timed builder for {:?}", other)),
    }
}

fn geom(c: usize, h: usize, w: usize, k: usize, pad: usize) -> Conv2dGeom {
    Conv2dGeom {
        in_channels: c,
        in_h: h,
        in_w: w,
        k_h: k,
        k_w: k,
        stride: 1,
        pad,
    }
}

/// `fedclust_nn::models::lenet5`, layer for layer.
fn lenet5(c: usize, h: usize, w: usize, num_classes: usize, rng: &mut impl Rng) -> TimedModel {
    let g1 = geom(c, h, w, 3, 0);
    let (h1, w1) = (g1.out_h() / 2, g1.out_w() / 2);
    let g2 = geom(8, h1, w1, 3, 0);
    let (h2, w2) = (g2.out_h() / 2, g2.out_w() / 2);
    let flat = 16 * h2 * w2;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(g1, 8, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Conv2d::new(g2, 16, rng)),
        Box::new(Relu::default()),
        Box::new(MaxPool2d::new(2)),
        Box::new(Flatten::default()),
        Box::new(Dense::new(flat, 48, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(48, 24, rng)),
        Box::new(Relu::default()),
        Box::new(Dense::new(24, num_classes, rng)),
    ];
    TimedModel::wrap(layers, num_classes, "lenet5")
}

fn conv_bn_relu(c_in: usize, c_out: usize, h: usize, w: usize, rng: &mut impl Rng) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(geom(c_in, h, w, 3, 1), c_out, rng))
        .push(BatchNorm2d::new(c_out))
        .push(Relu::default())
}

/// `fedclust_nn::models::resnet9`, layer for layer.
fn resnet9(c: usize, h: usize, w: usize, num_classes: usize, rng: &mut impl Rng) -> TimedModel {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(conv_bn_relu(c, 8, h, w, rng)));
    layers.push(Box::new(conv_bn_relu(8, 16, h, w, rng)));
    layers.push(Box::new(MaxPool2d::new(2)));
    let (h1, w1) = (h / 2, w / 2);
    let res1 = Sequential::new()
        .push_boxed(Box::new(conv_bn_relu(16, 16, h1, w1, rng)))
        .push_boxed(Box::new(conv_bn_relu(16, 16, h1, w1, rng)));
    layers.push(Box::new(Residual::new(res1)));
    layers.push(Box::new(conv_bn_relu(16, 32, h1, w1, rng)));
    layers.push(Box::new(MaxPool2d::new(2)));
    let (h2, w2) = (h1 / 2, w1 / 2);
    let res2 = Sequential::new()
        .push_boxed(Box::new(conv_bn_relu(32, 32, h2, w2, rng)))
        .push_boxed(Box::new(conv_bn_relu(32, 32, h2, w2, rng)));
    layers.push(Box::new(Residual::new(res2)));
    layers.push(Box::new(GlobalAvgPool2d::default()));
    layers.push(Box::new(Dense::new(32, num_classes, rng)));
    TimedModel::wrap(layers, num_classes, "resnet9")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_nn::optim::{Sgd, SgdConfig};
    use fedclust_tensor::rng::{derive, streams};

    /// Build both models from the same seed and check they hold the same
    /// state, compute the same forward pass, and stay equal through a
    /// training step; the timed one must also have recorded time.
    fn assert_same_model(spec: ModelSpec, c: usize, classes: usize) {
        let seed = 17;
        let mut plain = spec.build(
            c,
            16,
            16,
            classes,
            &mut derive(seed, &[streams::MODEL_INIT]),
        );
        let mut timed = build_timed(
            spec,
            c,
            16,
            16,
            classes,
            &mut derive(seed, &[streams::MODEL_INIT]),
        )
        .expect("supported architecture");
        assert_eq!(timed.model.state_vec(), plain.state_vec());
        assert_eq!(timed.model.param_blocks(), plain.param_blocks());
        assert_eq!(timed.model.final_layer_vec(), plain.final_layer_vec());

        let x = fedclust_tensor::init::randn([4, c, 16, 16], &mut derive(seed, &[99]));
        let y_plain = plain.forward(x.clone(), false);
        let y_timed = timed.model.forward(x.clone(), false);
        assert_eq!(y_timed.data(), y_plain.data());

        let targets: Vec<usize> = (0..4).map(|i| i % classes).collect();
        let cfg = SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let loss_plain = plain.train_step(x.clone(), &targets, &mut Sgd::new(cfg));
        let loss_timed = timed.model.train_step(x, &targets, &mut Sgd::new(cfg));
        assert_eq!(loss_timed.to_bits(), loss_plain.to_bits());
        assert_eq!(timed.model.state_vec(), plain.state_vec());

        let times = timed.read();
        assert!(times
            .iter()
            .all(|t| t.fwd_train_ns > 0 && t.fwd_eval_ns > 0));
        assert!(times.iter().all(|t| t.bwd_ns > 0));
    }

    #[test]
    fn timed_lenet5_equals_model_spec_build() {
        assert_same_model(ModelSpec::LeNet5, 1, 10);
    }

    #[test]
    fn timed_resnet9_equals_model_spec_build() {
        assert_same_model(ModelSpec::ResNet9, 3, 20);
    }

    #[test]
    fn clones_share_the_clock() {
        let timed = build_timed(
            ModelSpec::LeNet5,
            1,
            16,
            16,
            10,
            &mut derive(1, &[streams::MODEL_INIT]),
        )
        .unwrap();
        let mut copy = timed.model.clone();
        copy.forward(Tensor::zeros([1, 1, 16, 16]), false);
        assert!(timed.read()[0].fwd_eval_ns > 0);
        assert_eq!(timed.slots[0].label, "0-conv2d");
        assert_eq!(timed.slots[11].label, "11-dense");
    }

    #[test]
    fn unsupported_architecture_is_an_error() {
        let r = build_timed(
            ModelSpec::VggMini,
            1,
            16,
            16,
            10,
            &mut derive(1, &[streams::MODEL_INIT]),
        );
        assert!(r.is_err());
    }
}
