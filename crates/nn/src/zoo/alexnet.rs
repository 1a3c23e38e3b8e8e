//! AlexNet (Caffe `bvlc_alexnet` shape), Table III model.

use super::NetBuilder;
use crate::graph::Network;
use crate::tensor::Shape;

/// Build AlexNet (3×227×227, 1000 classes).
///
/// 61 M parameters → 243.9 MB fp32, matching Table III (the only model
/// in the paper with a 227×227 input).
#[must_use]
pub fn alexnet(seed: u64) -> Network {
    alexnet_with(Some(seed))
}

/// [`alexnet`] with seeded weights, or — `None` — as an all-zero skeleton.
pub(crate) fn alexnet_with(seed: Option<u64>) -> Network {
    let mut b = NetBuilder::new("alexnet", Shape::new(3, 227, 227), seed);
    let x = b.input();
    let c1 = b.conv("conv1", x, 96, 3, 11, 4, 0);
    let r1 = b.relu("relu1", c1);
    let n1 = b.lrn("norm1", r1);
    let p1 = b.max_pool("pool1", n1, 3, 2, 0);

    let c2 = b.conv_grouped("conv2", p1, 256, 96, 5, 1, 2, 2);
    let r2 = b.relu("relu2", c2);
    let n2 = b.lrn("norm2", r2);
    let p2 = b.max_pool("pool2", n2, 3, 2, 0);

    let c3 = b.conv("conv3", p2, 384, 256, 3, 1, 1);
    let r3 = b.relu("relu3", c3);
    let c4 = b.conv_grouped("conv4", r3, 384, 384, 3, 1, 1, 2);
    let r4 = b.relu("relu4", c4);
    let c5 = b.conv_grouped("conv5", r4, 256, 384, 3, 1, 1, 2);
    let r5 = b.relu("relu5", c5);
    let p5 = b.max_pool("pool5", r5, 3, 2, 0);

    let fc6 = b.fc("fc6", p5, 4096, 256 * 6 * 6);
    let r6 = b.relu("relu6", fc6);
    let fc7 = b.fc("fc7", r6, 4096, 4096);
    let r7 = b.relu("relu7", fc7);
    let fc8 = b.fc("fc8", r7, 1000, 4096);
    b.softmax("prob", fc8);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ModelStats, Precision};

    #[test]
    fn alexnet_size_matches_paper() {
        let stats = ModelStats::of(&alexnet_with(None));
        let mb = stats.model_bytes(Precision::Fp32) as f64 / (1024.0 * 1024.0);
        assert!(
            (225.0..245.0).contains(&mb),
            "AlexNet fp32 {mb:.1} MB vs paper 243.9 MB"
        );
    }

    #[test]
    fn conv_tower_shapes() {
        let net = alexnet_with(None);
        let shapes = net.infer_shapes().unwrap();
        let by_name = |name: &str| {
            let idx = net.nodes().iter().position(|n| n.name == name).unwrap();
            shapes[idx]
        };
        assert_eq!(by_name("conv1"), Shape::new(96, 55, 55));
        assert_eq!(by_name("pool1"), Shape::new(96, 27, 27));
        assert_eq!(by_name("conv2"), Shape::new(256, 27, 27));
        assert_eq!(by_name("pool5"), Shape::new(256, 6, 6));
        assert_eq!(by_name("fc8"), Shape::new(1000, 1, 1));
    }

    #[test]
    fn grouped_convs_match_original() {
        let net = alexnet_with(None);
        let conv2 = net.nodes().iter().find(|n| n.name == "conv2").unwrap();
        if let crate::graph::Op::Conv2d(p) = &conv2.op {
            assert_eq!(p.groups, 2);
            assert_eq!(p.weights.in_c, 48);
        } else {
            panic!("conv2 missing");
        }
    }

    #[test]
    fn fc_layers_dominate_parameters() {
        let stats = ModelStats::of(&alexnet_with(None));
        let fc_params: usize = stats
            .layers
            .iter()
            .filter(|l| l.kind == "InnerProduct")
            .map(|l| l.params)
            .sum();
        assert!(fc_params * 10 > stats.params * 9, "fc >90% of params");
    }
}
