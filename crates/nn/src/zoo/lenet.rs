//! LeNet-5 (Caffe `lenet.prototxt` shape): the paper's smallest model.

use super::NetBuilder;
use crate::graph::Network;
use crate::tensor::Shape;

/// Build LeNet-5 for 1×28×28 inputs (MNIST).
///
/// Matches the Caffe reference: conv 20@5×5 → pool → conv 50@5×5 → pool
/// → ip 500 + ReLU → ip 10 → softmax. About 431 k parameters, 1.7 MB as
/// an fp32 file — the "1.7 MB" of Table II.
#[must_use]
pub fn lenet5(seed: u64) -> Network {
    lenet5_with(Some(seed))
}

/// [`lenet5`] with seeded weights, or — `None` — as an all-zero skeleton.
pub(crate) fn lenet5_with(seed: Option<u64>) -> Network {
    let mut b = NetBuilder::new("lenet-5", Shape::new(1, 28, 28), seed);
    let x = b.input();
    let c1 = b.conv("conv1", x, 20, 1, 5, 1, 0);
    let p1 = b.max_pool("pool1", c1, 2, 2, 0);
    let c2 = b.conv("conv2", p1, 50, 20, 5, 1, 0);
    let p2 = b.max_pool("pool2", c2, 2, 2, 0);
    let ip1 = b.fc("ip1", p2, 500, 50 * 4 * 4);
    let r1 = b.relu("relu1", ip1);
    let ip2 = b.fc("ip2", r1, 10, 500);
    b.softmax("prob", ip2);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::stats::{ModelStats, Precision};
    use crate::tensor::Tensor;

    #[test]
    fn lenet_has_nine_ish_layers_and_431k_params() {
        let net = lenet5(1);
        assert_eq!(net.layer_count(), 8);
        let stats = ModelStats::of(&net);
        assert_eq!(stats.params, 431_080);
        // 1.64 MiB fp32, the paper rounds to 1.7 MB.
        let mb = stats.model_bytes(Precision::Fp32) as f64 / (1024.0 * 1024.0);
        assert!((1.5..1.8).contains(&mb));
    }

    #[test]
    fn lenet_runs_end_to_end() {
        let net = lenet5(2);
        let out = Executor::new(&net)
            .run(&Tensor::random(net.input_shape(), 3))
            .unwrap();
        assert_eq!(out.shape().c, 10);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "softmax output");
    }
}
