//! ResNet-18 (thin CIFAR variant) and ResNet-50 (ImageNet).
//!
//! The paper's ResNet-18 runs on 3×32×32 inputs with an 813.5 KB model
//! file — a thin CIFAR variant (a full ImageNet ResNet-18 is 45 MB), so
//! we use base width 8 with stages [8, 16, 32, 64], which lands at the
//! same file size. ResNet-50 is the standard 3×224×224 bottleneck
//! network (25.5 M parameters → 102.5 MB fp32).

use super::NetBuilder;
use crate::graph::{Network, NodeId};
use crate::tensor::Shape;

/// One basic (two 3×3 convs) residual block.
fn basic_block(
    b: &mut NetBuilder,
    name: &str,
    x: NodeId,
    in_c: usize,
    out_c: usize,
    stride: usize,
) -> NodeId {
    let c1 = b.conv(&format!("{name}_conv1"), x, out_c, in_c, 3, stride, 1);
    let n1 = b.bn(&format!("{name}_bn1"), c1, out_c);
    let r1 = b.relu(&format!("{name}_relu1"), n1);
    let c2 = b.conv(&format!("{name}_conv2"), r1, out_c, out_c, 3, 1, 1);
    let n2 = b.bn(&format!("{name}_bn2"), c2, out_c);
    let shortcut = if stride != 1 || in_c != out_c {
        let ds = b.conv(&format!("{name}_down"), x, out_c, in_c, 1, stride, 0);
        b.bn(&format!("{name}_down_bn"), ds, out_c)
    } else {
        x
    };
    let sum = b.add_op(&format!("{name}_add"), n2, shortcut);
    b.relu(&format!("{name}_relu2"), sum)
}

/// One bottleneck (1×1 → 3×3 → 1×1) residual block.
fn bottleneck(
    b: &mut NetBuilder,
    name: &str,
    x: NodeId,
    in_c: usize,
    mid_c: usize,
    out_c: usize,
    stride: usize,
) -> NodeId {
    let c1 = b.conv(&format!("{name}_conv1"), x, mid_c, in_c, 1, 1, 0);
    let n1 = b.bn(&format!("{name}_bn1"), c1, mid_c);
    let r1 = b.relu(&format!("{name}_relu1"), n1);
    let c2 = b.conv(&format!("{name}_conv2"), r1, mid_c, mid_c, 3, stride, 1);
    let n2 = b.bn(&format!("{name}_bn2"), c2, mid_c);
    let r2 = b.relu(&format!("{name}_relu2"), n2);
    let c3 = b.conv(&format!("{name}_conv3"), r2, out_c, mid_c, 1, 1, 0);
    let n3 = b.bn(&format!("{name}_bn3"), c3, out_c);
    let shortcut = if stride != 1 || in_c != out_c {
        let ds = b.conv(&format!("{name}_down"), x, out_c, in_c, 1, stride, 0);
        b.bn(&format!("{name}_down_bn"), ds, out_c)
    } else {
        x
    };
    let sum = b.add_op(&format!("{name}_add"), n3, shortcut);
    b.relu(&format!("{name}_relu3"), sum)
}

/// Build the thin CIFAR ResNet-18 (3×32×32, 10 classes).
#[must_use]
pub fn resnet18_cifar(seed: u64) -> Network {
    resnet18_cifar_with(Some(seed))
}

/// [`resnet18_cifar`] with seeded weights, or — `None` — as an all-zero skeleton.
pub(crate) fn resnet18_cifar_with(seed: Option<u64>) -> Network {
    let widths = [8usize, 16, 32, 64];
    let mut b = NetBuilder::new("resnet-18", Shape::new(3, 32, 32), seed);
    let x = b.input();
    let stem = b.conv("conv1", x, widths[0], 3, 3, 1, 1);
    let stem_bn = b.bn("bn1", stem, widths[0]);
    let mut cur = b.relu("relu1", stem_bn);
    let mut in_c = widths[0];
    for (stage, &w) in widths.iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            cur = basic_block(
                &mut b,
                &format!("res{}_{block}", stage + 2),
                cur,
                in_c,
                w,
                stride,
            );
            in_c = w;
        }
    }
    let gap = b.global_avg_pool("pool5", cur);
    let fc = b.fc("fc10", gap, 10, widths[3]);
    b.softmax("prob", fc);
    b.finish()
}

/// Build ResNet-50 (3×224×224, 1000 classes).
#[must_use]
pub fn resnet50(seed: u64) -> Network {
    resnet50_with(Some(seed))
}

/// [`resnet50`] with seeded weights, or — `None` — as an all-zero skeleton.
pub(crate) fn resnet50_with(seed: Option<u64>) -> Network {
    // (mid, out, blocks) per stage — the standard [3, 4, 6, 3] layout.
    let stages: [(usize, usize, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 6), (512, 2048, 3)];
    let mut b = NetBuilder::new("resnet-50", Shape::new(3, 224, 224), seed);
    let x = b.input();
    let stem = b.conv("conv1", x, 64, 3, 7, 2, 3);
    let stem_bn = b.bn("bn1", stem, 64);
    let stem_relu = b.relu("relu1", stem_bn);
    let mut cur = b.max_pool("pool1", stem_relu, 3, 2, 0);
    let mut in_c = 64usize;
    for (stage, &(mid, out, blocks)) in stages.iter().enumerate() {
        for block in 0..blocks {
            // Stage 1 keeps stride 1 (pool already downsampled).
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            cur = bottleneck(
                &mut b,
                &format!("res{}_{block}", stage + 2),
                cur,
                in_c,
                mid,
                out,
                stride,
            );
            in_c = out;
        }
    }
    let gap = b.global_avg_pool("pool5", cur);
    let fc = b.fc("fc1000", gap, 1000, 2048);
    b.softmax("prob", fc);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::stats::{ModelStats, Precision};
    use crate::tensor::Tensor;

    #[test]
    fn resnet18_size_near_813kb() {
        let stats = ModelStats::of(&resnet18_cifar(1));
        let kb = stats.model_bytes(Precision::Fp32) as f64 / 1024.0;
        assert!(
            (550.0..1100.0).contains(&kb),
            "ResNet-18 fp32 {kb:.1} KB vs paper 813.5 KB"
        );
    }

    #[test]
    fn resnet18_runs_and_classifies() {
        let net = resnet18_cifar(3);
        let out = Executor::new(&net)
            .run(&Tensor::random(net.input_shape(), 1))
            .unwrap();
        assert_eq!(out.shape().c, 10);
    }

    #[test]
    fn resnet50_has_25m_params() {
        let stats = ModelStats::of(&resnet50(1));
        assert!(
            (24_000_000..27_000_000).contains(&stats.params),
            "ResNet-50 params {}",
            stats.params
        );
        // ~4 GMACs at 224x224.
        assert!(stats.macs > 3_000_000_000 && stats.macs < 5_000_000_000);
    }

    #[test]
    fn resnet50_shapes_propagate() {
        let net = resnet50(1);
        let shapes = net.infer_shapes().unwrap();
        // Final feature map before GAP is 2048 x 7 x 7.
        let gap_idx = net.nodes().iter().position(|n| n.name == "pool5").unwrap();
        let pre_gap = shapes[net.nodes()[gap_idx].inputs[0].index()];
        assert_eq!((pre_gap.c, pre_gap.h, pre_gap.w), (2048, 7, 7));
    }

    #[test]
    fn residual_blocks_downsample_once_per_stage() {
        let net = resnet18_cifar(1);
        let shapes = net.infer_shapes().unwrap();
        let out = shapes[net.output().index()];
        assert_eq!(out.c, 10);
        // Spatial size decreased 32 -> 4 through three stride-2 stages.
        let last_conv = net
            .nodes()
            .iter()
            .position(|n| n.name == "res5_1_conv2")
            .unwrap();
        assert_eq!(shapes[last_conv].h, 4);
    }
}
