//! MobileNet v1 (depthwise-separable convolutions), Table III model.

use super::NetBuilder;
use crate::graph::{Network, NodeId};
use crate::tensor::Shape;

/// A depthwise 3×3 + pointwise 1×1 separable block.
fn separable(
    b: &mut NetBuilder,
    name: &str,
    x: NodeId,
    in_c: usize,
    out_c: usize,
    stride: usize,
) -> NodeId {
    let dw = b.conv_grouped(&format!("{name}_dw"), x, in_c, in_c, 3, stride, 1, in_c);
    let dn = b.bn(&format!("{name}_dw_bn"), dw, in_c);
    let dr = b.relu(&format!("{name}_dw_relu"), dn);
    let pw = b.conv(&format!("{name}_pw"), dr, out_c, in_c, 1, 1, 0);
    let pn = b.bn(&format!("{name}_pw_bn"), pw, out_c);
    b.relu(&format!("{name}_pw_relu"), pn)
}

/// Build MobileNet v1 (3×224×224, 1000 classes, width multiplier 1.0).
///
/// 4.2 M parameters → 17 MB as fp32, matching Table III.
#[must_use]
pub fn mobilenet_v1(seed: u64) -> Network {
    mobilenet_v1_with(Some(seed))
}

/// [`mobilenet_v1`] with seeded weights, or — `None` — as an all-zero skeleton.
pub(crate) fn mobilenet_v1_with(seed: Option<u64>) -> Network {
    let mut b = NetBuilder::new("mobilenet-v1", Shape::new(3, 224, 224), seed);
    let x = b.input();
    let stem = b.conv("conv1", x, 32, 3, 3, 2, 1);
    let stem_bn = b.bn("conv1_bn", stem, 32);
    let mut cur = b.relu("conv1_relu", stem_bn);
    // (in, out, stride) of the 13 separable blocks.
    let blocks: [(usize, usize, usize); 13] = [
        (32, 64, 1),
        (64, 128, 2),
        (128, 128, 1),
        (128, 256, 2),
        (256, 256, 1),
        (256, 512, 2),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 512, 1),
        (512, 1024, 2),
        (1024, 1024, 1),
    ];
    for (i, &(in_c, out_c, stride)) in blocks.iter().enumerate() {
        cur = separable(&mut b, &format!("sep{}", i + 1), cur, in_c, out_c, stride);
    }
    let gap = b.global_avg_pool("pool6", cur);
    let fc = b.fc("fc1000", gap, 1000, 1024);
    b.softmax("prob", fc);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ModelStats, Precision};

    #[test]
    fn mobilenet_size_and_macs() {
        let stats = ModelStats::of(&mobilenet_v1(1));
        let mb = stats.model_bytes(Precision::Fp32) as f64 / (1024.0 * 1024.0);
        assert!(
            (14.0..18.5).contains(&mb),
            "MobileNet fp32 {mb:.1} MB vs paper 17 MB"
        );
        // ~0.57 GMACs.
        assert!(stats.macs > 400_000_000 && stats.macs < 700_000_000);
    }

    #[test]
    fn depthwise_blocks_use_groups() {
        let net = mobilenet_v1(1);
        let dw = net
            .nodes()
            .iter()
            .find(|n| n.name == "sep1_dw")
            .expect("depthwise layer");
        if let crate::graph::Op::Conv2d(p) = &dw.op {
            assert_eq!(p.groups, 32);
            assert_eq!(p.weights.in_c, 1);
        } else {
            panic!("sep1_dw is not a conv");
        }
    }

    #[test]
    fn final_feature_map_is_7x7() {
        let net = mobilenet_v1(1);
        let shapes = net.infer_shapes().unwrap();
        let gap_idx = net.nodes().iter().position(|n| n.name == "pool6").unwrap();
        let pre = shapes[net.nodes()[gap_idx].inputs[0].index()];
        assert_eq!((pre.c, pre.h, pre.w), (1024, 7, 7));
    }
}
