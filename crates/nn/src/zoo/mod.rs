//! Model zoo: the six networks evaluated in the paper.
//!
//! * Table II (`nv_small`, FPGA): [`lenet5`], [`resnet18_cifar`],
//!   [`resnet50`];
//! * Table III (`nv_full`, simulation): those three plus
//!   [`mobilenet_v1`], [`googlenet`], [`alexnet`].
//!
//! All weights are deterministic pseudo-random (seeded per layer), which
//! exercises identical compute and memory traffic to trained weights.

mod alexnet;
mod googlenet;
mod lenet;
mod mobilenet;
mod resnet;

pub use alexnet::alexnet;
pub use googlenet::googlenet;
pub use lenet::lenet5;
pub use mobilenet::mobilenet_v1;
pub use resnet::{resnet18_cifar, resnet50};

use alexnet::alexnet_with;
use googlenet::googlenet_with;
use lenet::lenet5_with;
use mobilenet::mobilenet_v1_with;
use resnet::{resnet18_cifar_with, resnet50_with};

use crate::graph::{ConvParams, Network, NodeId, Op, PoolKind};
use crate::tensor::{Shape, WeightTensor};

/// Which models run on which configuration in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// LeNet-5 on 1×28×28.
    LeNet5,
    /// Thin CIFAR ResNet-18 on 3×32×32.
    ResNet18,
    /// ResNet-50 on 3×224×224.
    ResNet50,
    /// MobileNet v1 on 3×224×224.
    MobileNet,
    /// GoogLeNet (Inception v1) on 3×224×224.
    GoogLeNet,
    /// AlexNet on 3×227×227.
    AlexNet,
}

impl Model {
    /// All models of Table III (the superset).
    pub const ALL: [Model; 6] = [
        Model::LeNet5,
        Model::ResNet18,
        Model::ResNet50,
        Model::MobileNet,
        Model::GoogLeNet,
        Model::AlexNet,
    ];

    /// The Table II subset supported on `nv_small`.
    pub const NV_SMALL: [Model; 3] = [Model::LeNet5, Model::ResNet18, Model::ResNet50];

    /// Human name as printed in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::LeNet5 => "LeNet-5",
            Model::ResNet18 => "ResNet-18",
            Model::ResNet50 => "ResNet-50",
            Model::MobileNet => "MobileNet",
            Model::GoogLeNet => "GoogleNet",
            Model::AlexNet => "AlexNet",
        }
    }

    /// Build the network with deterministic weights.
    #[must_use]
    pub fn build(self, seed: u64) -> Network {
        self.build_with(Some(seed))
    }

    /// The network's graph from the same builder with every weight
    /// tensor zero: the shapes, layers and parameter counts of
    /// [`Model::build`] without drawing a weight — the zero vectors are
    /// untouched `calloc` pages, so even AlexNet's 61 M cost nothing.
    #[must_use]
    pub fn skeleton(self) -> Network {
        self.build_with(None)
    }

    fn build_with(self, seed: Option<u64>) -> Network {
        match self {
            Model::LeNet5 => lenet5_with(seed),
            Model::ResNet18 => resnet18_cifar_with(seed),
            Model::ResNet50 => resnet50_with(seed),
            Model::MobileNet => mobilenet_v1_with(seed),
            Model::GoogLeNet => googlenet_with(seed),
            Model::AlexNet => alexnet_with(seed),
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Internal builder with per-layer seeded weights (all-zero weight
/// tensors when there is no seed) and Caffe-ish helpers.
pub(crate) struct NetBuilder {
    net: Network,
    seed: Option<u64>,
    counter: u64,
}

impl NetBuilder {
    pub(crate) fn new(name: &str, input: Shape, seed: Option<u64>) -> Self {
        NetBuilder {
            net: Network::new(name, input),
            seed,
            counter: 0,
        }
    }

    pub(crate) fn input(&self) -> NodeId {
        self.net.input()
    }

    /// The next layer's seed; `None` when building a skeleton.
    fn next_seed(&mut self) -> Option<u64> {
        self.counter += 1;
        // SplitMix64-style mix keeps per-layer streams independent.
        let mut z = self
            .seed?
            .wrapping_add(self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Some(z ^ (z >> 31))
    }

    /// Seed for a channel-sized vector (bias, batch-norm). A skeleton
    /// draws these from seed 0: they are too small to be worth a
    /// second path.
    fn channel_seed(&mut self) -> u64 {
        self.next_seed().unwrap_or(0)
    }

    fn small_bias(&mut self, n: usize) -> Vec<f32> {
        let s = self.channel_seed();
        (0..n)
            .map(|i| {
                let x = s.wrapping_add(i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
                ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.02
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv(
        &mut self,
        name: &str,
        from: NodeId,
        out_c: usize,
        in_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        self.conv_grouped(name, from, out_c, in_c, k, stride, pad, 1)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv_grouped(
        &mut self,
        name: &str,
        from: NodeId,
        out_c: usize,
        in_c_total: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> NodeId {
        let in_c = in_c_total / groups;
        let weights = match self.next_seed() {
            Some(seed) => WeightTensor::random(out_c, in_c, k, k, seed),
            None => WeightTensor::zeros(out_c, in_c, k, k),
        };
        let bias = self.small_bias(out_c);
        self.net
            .add(
                name,
                Op::Conv2d(ConvParams {
                    weights,
                    bias,
                    stride,
                    pad,
                    groups,
                }),
                &[from],
            )
            .expect("builder names are unique")
    }

    /// Batch-norm with gentle scales so deep nets keep sane magnitudes.
    pub(crate) fn bn(&mut self, name: &str, from: NodeId, c: usize) -> NodeId {
        let s = self.channel_seed();
        let scale: Vec<f32> = (0..c)
            .map(|i| {
                let x = s.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                0.8 + 0.4 * ((x >> 40) as f32 / (1u64 << 24) as f32)
            })
            .collect();
        let shift: Vec<f32> = (0..c)
            .map(|i| {
                let x = s
                    .wrapping_add(i as u64 + 7)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.02
            })
            .collect();
        self.net
            .add(name, Op::BatchNorm { scale, shift }, &[from])
            .expect("builder names are unique")
    }

    pub(crate) fn relu(&mut self, name: &str, from: NodeId) -> NodeId {
        self.net
            .add(name, Op::Relu, &[from])
            .expect("builder names are unique")
    }

    pub(crate) fn max_pool(
        &mut self,
        name: &str,
        from: NodeId,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        self.net
            .add(
                name,
                Op::Pool {
                    kind: PoolKind::Max,
                    k,
                    stride,
                    pad,
                },
                &[from],
            )
            .expect("builder names are unique")
    }

    pub(crate) fn avg_pool(
        &mut self,
        name: &str,
        from: NodeId,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        self.net
            .add(
                name,
                Op::Pool {
                    kind: PoolKind::Avg,
                    k,
                    stride,
                    pad,
                },
                &[from],
            )
            .expect("builder names are unique")
    }

    pub(crate) fn global_avg_pool(&mut self, name: &str, from: NodeId) -> NodeId {
        self.net
            .add(name, Op::GlobalAvgPool, &[from])
            .expect("builder names are unique")
    }

    pub(crate) fn fc(&mut self, name: &str, from: NodeId, out: usize, input: usize) -> NodeId {
        let weights = match self.next_seed() {
            // Reuse WeightTensor's deterministic init for the matrix.
            Some(seed) => WeightTensor::random(out, input, 1, 1, seed).data().to_vec(),
            // Untouched `calloc` pages: a skeleton's 61 M cost nothing.
            None => vec![0.0; out * input],
        };
        let bias = self.small_bias(out);
        self.net
            .add(
                name,
                Op::FullyConnected {
                    weights,
                    out,
                    input,
                    bias,
                },
                &[from],
            )
            .expect("builder names are unique")
    }

    pub(crate) fn add_op(&mut self, name: &str, a: NodeId, b: NodeId) -> NodeId {
        self.net
            .add(name, Op::EltwiseAdd, &[a, b])
            .expect("builder names are unique")
    }

    pub(crate) fn concat(&mut self, name: &str, inputs: &[NodeId]) -> NodeId {
        self.net
            .add(name, Op::Concat, inputs)
            .expect("builder names are unique")
    }

    pub(crate) fn lrn(&mut self, name: &str, from: NodeId) -> NodeId {
        self.net
            .add(
                name,
                Op::Lrn {
                    local_size: 5,
                    alpha: 1e-4,
                    beta: 0.75,
                    k: 1.0,
                },
                &[from],
            )
            .expect("builder names are unique")
    }

    pub(crate) fn softmax(&mut self, name: &str, from: NodeId) -> NodeId {
        self.net
            .add(name, Op::Softmax, &[from])
            .expect("builder names are unique")
    }

    pub(crate) fn finish(self) -> Network {
        let net = self.net;
        debug_assert!(net.infer_shapes().is_ok(), "{} shapes", net.name());
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ModelStats, Precision};

    #[test]
    fn all_models_build_and_shape_check() {
        for m in Model::ALL {
            let net = m.build(1);
            let shapes = net.infer_shapes().unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(net.layer_count() > 5, "{m} too shallow");
            // The weight-free skeleton is the same graph.
            let bare = m.skeleton();
            assert_eq!(bare.input_shape(), net.input_shape(), "{m}");
            assert_eq!(bare.layer_count(), net.layer_count(), "{m}");
            assert_eq!(bare.infer_shapes().unwrap(), shapes, "{m}");
            let (bare, full) = (ModelStats::of(&bare), ModelStats::of(&net));
            assert_eq!((bare.params, bare.macs), (full.params, full.macs), "{m}");
        }
    }

    #[test]
    fn model_sizes_match_paper_magnitudes() {
        // Paper Table II/III model sizes (fp32 Caffe files).
        let cases: &[(Model, f64, f64)] = &[
            (Model::LeNet5, 1.7, 0.25),     // 1.7 MB
            (Model::ResNet18, 0.79, 0.35),  // 813.5 KB
            (Model::ResNet50, 102.5, 15.0), // 102.5 MB
            (Model::MobileNet, 17.0, 4.0),  // 17 MB
            (Model::GoogLeNet, 53.5, 12.0), // 53.5 MB
            (Model::AlexNet, 243.9, 25.0),  // 243.9 MB
        ];
        for &(m, expect_mb, tol_mb) in cases {
            let stats = ModelStats::of(&m.build(1));
            let mb = stats.model_bytes(Precision::Fp32) as f64 / (1024.0 * 1024.0);
            assert!(
                (mb - expect_mb).abs() <= tol_mb,
                "{m}: {mb:.1} MB, paper {expect_mb} MB"
            );
        }
    }

    #[test]
    fn layer_counts_match_paper_magnitudes() {
        // DAG shape only: node counts (8 / 68 / 175 today) stay within a
        // band. They are *not* the paper's Table II "Layers" column
        // (9 / 86 / 228), which counts unfused hardware ops — that is
        // `nvdla.ops`, pinned in tests/end_to_end.rs.
        let lenet = Model::LeNet5.build(1).layer_count();
        assert!((8..=12).contains(&lenet), "LeNet-5 layers {lenet}");
        let r18 = Model::ResNet18.build(1).layer_count();
        assert!((60..=95).contains(&r18), "ResNet-18 layers {r18}");
        let r50 = Model::ResNet50.build(1).layer_count();
        assert!((170..=240).contains(&r50), "ResNet-50 layers {r50}");
    }

    #[test]
    fn weights_deterministic_per_seed() {
        let a = Model::LeNet5.build(9);
        let b = Model::LeNet5.build(9);
        let c = Model::LeNet5.build(10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mac_ordering_matches_compute_intensity() {
        let lenet = ModelStats::of(&Model::LeNet5.build(1)).macs;
        let r18 = ModelStats::of(&Model::ResNet18.build(1)).macs;
        let r50 = ModelStats::of(&Model::ResNet50.build(1)).macs;
        assert!(lenet < r18 && r18 < r50);
        // ResNet-50 is a multi-GMAC network.
        assert!(r50 > 3_000_000_000);
    }
}
