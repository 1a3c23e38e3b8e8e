//! GoogLeNet (Inception v1), Table III model.

use super::NetBuilder;
use crate::graph::{Network, NodeId};
use crate::tensor::Shape;

/// Channel plan of one inception module.
struct Inception {
    b1: usize,        // 1x1 branch
    b3_reduce: usize, // 1x1 before 3x3
    b3: usize,        // 3x3 branch
    b5_reduce: usize, // 1x1 before 5x5
    b5: usize,        // 5x5 branch
    pool_proj: usize, // 1x1 after pool
}

fn inception(b: &mut NetBuilder, name: &str, x: NodeId, in_c: usize, p: &Inception) -> NodeId {
    let br1 = b.conv(&format!("{name}_1x1"), x, p.b1, in_c, 1, 1, 0);
    let br1 = b.relu(&format!("{name}_relu_1x1"), br1);

    let r3 = b.conv(&format!("{name}_3x3_reduce"), x, p.b3_reduce, in_c, 1, 1, 0);
    let r3 = b.relu(&format!("{name}_relu_3x3_reduce"), r3);
    let br3 = b.conv(&format!("{name}_3x3"), r3, p.b3, p.b3_reduce, 3, 1, 1);
    let br3 = b.relu(&format!("{name}_relu_3x3"), br3);

    let r5 = b.conv(&format!("{name}_5x5_reduce"), x, p.b5_reduce, in_c, 1, 1, 0);
    let r5 = b.relu(&format!("{name}_relu_5x5_reduce"), r5);
    let br5 = b.conv(&format!("{name}_5x5"), r5, p.b5, p.b5_reduce, 5, 1, 2);
    let br5 = b.relu(&format!("{name}_relu_5x5"), br5);

    let pool = b.max_pool(&format!("{name}_pool"), x, 3, 1, 1);
    let brp = b.conv(
        &format!("{name}_pool_proj"),
        pool,
        p.pool_proj,
        in_c,
        1,
        1,
        0,
    );
    let brp = b.relu(&format!("{name}_relu_pool_proj"), brp);

    b.concat(&format!("{name}_output"), &[br1, br3, br5, brp])
}

/// Build GoogLeNet (3×224×224, 1000 classes).
///
/// 13 M parameters → 53.5 MB fp32, matching Table III. Auxiliary
/// classifier heads are omitted (inference only, as in deployment).
#[must_use]
pub fn googlenet(seed: u64) -> Network {
    googlenet_with(Some(seed))
}

/// [`googlenet`] with seeded weights, or — `None` — as an all-zero skeleton.
#[allow(clippy::too_many_lines)]
pub(crate) fn googlenet_with(seed: Option<u64>) -> Network {
    let mut b = NetBuilder::new("googlenet", Shape::new(3, 224, 224), seed);
    let x = b.input();
    let c1 = b.conv("conv1", x, 64, 3, 7, 2, 3);
    let c1 = b.relu("conv1_relu", c1);
    let p1 = b.max_pool("pool1", c1, 3, 2, 0);
    let n1 = b.lrn("pool1_norm1", p1);
    let c2r = b.conv("conv2_reduce", n1, 64, 64, 1, 1, 0);
    let c2r = b.relu("conv2_reduce_relu", c2r);
    let c2 = b.conv("conv2", c2r, 192, 64, 3, 1, 1);
    let c2 = b.relu("conv2_relu", c2);
    let n2 = b.lrn("conv2_norm2", c2);
    let p2 = b.max_pool("pool2", n2, 3, 2, 0);

    let i3a = inception(
        &mut b,
        "inception_3a",
        p2,
        192,
        &Inception {
            b1: 64,
            b3_reduce: 96,
            b3: 128,
            b5_reduce: 16,
            b5: 32,
            pool_proj: 32,
        },
    );
    let i3b = inception(
        &mut b,
        "inception_3b",
        i3a,
        256,
        &Inception {
            b1: 128,
            b3_reduce: 128,
            b3: 192,
            b5_reduce: 32,
            b5: 96,
            pool_proj: 64,
        },
    );
    let p3 = b.max_pool("pool3", i3b, 3, 2, 0);

    let i4a = inception(
        &mut b,
        "inception_4a",
        p3,
        480,
        &Inception {
            b1: 192,
            b3_reduce: 96,
            b3: 208,
            b5_reduce: 16,
            b5: 48,
            pool_proj: 64,
        },
    );
    let i4b = inception(
        &mut b,
        "inception_4b",
        i4a,
        512,
        &Inception {
            b1: 160,
            b3_reduce: 112,
            b3: 224,
            b5_reduce: 24,
            b5: 64,
            pool_proj: 64,
        },
    );
    let i4c = inception(
        &mut b,
        "inception_4c",
        i4b,
        512,
        &Inception {
            b1: 128,
            b3_reduce: 128,
            b3: 256,
            b5_reduce: 24,
            b5: 64,
            pool_proj: 64,
        },
    );
    let i4d = inception(
        &mut b,
        "inception_4d",
        i4c,
        512,
        &Inception {
            b1: 112,
            b3_reduce: 144,
            b3: 288,
            b5_reduce: 32,
            b5: 64,
            pool_proj: 64,
        },
    );
    let i4e = inception(
        &mut b,
        "inception_4e",
        i4d,
        528,
        &Inception {
            b1: 256,
            b3_reduce: 160,
            b3: 320,
            b5_reduce: 32,
            b5: 128,
            pool_proj: 128,
        },
    );
    // Auxiliary classifier heads. The Caffe model file ships them (they
    // account for ~half of its 53.5 MB), so we keep them as side
    // branches; deployment flows simply ignore their outputs.
    let a1p = b.avg_pool("loss1_ave_pool", i4a, 5, 3, 0);
    let a1c = b.conv("loss1_conv", a1p, 128, 512, 1, 1, 0);
    let a1r = b.relu("loss1_relu_conv", a1c);
    let a1f = b.fc("loss1_fc", a1r, 1024, 128 * 4 * 4);
    let a1r2 = b.relu("loss1_relu_fc", a1f);
    let _aux1 = b.fc("loss1_classifier", a1r2, 1000, 1024);

    let a2p = b.avg_pool("loss2_ave_pool", i4d, 5, 3, 0);
    let a2c = b.conv("loss2_conv", a2p, 128, 528, 1, 1, 0);
    let a2r = b.relu("loss2_relu_conv", a2c);
    let a2f = b.fc("loss2_fc", a2r, 1024, 128 * 4 * 4);
    let a2r2 = b.relu("loss2_relu_fc", a2f);
    let _aux2 = b.fc("loss2_classifier", a2r2, 1000, 1024);

    let p4 = b.max_pool("pool4", i4e, 3, 2, 0);

    let i5a = inception(
        &mut b,
        "inception_5a",
        p4,
        832,
        &Inception {
            b1: 256,
            b3_reduce: 160,
            b3: 320,
            b5_reduce: 32,
            b5: 128,
            pool_proj: 128,
        },
    );
    let i5b = inception(
        &mut b,
        "inception_5b",
        i5a,
        832,
        &Inception {
            b1: 384,
            b3_reduce: 192,
            b3: 384,
            b5_reduce: 48,
            b5: 128,
            pool_proj: 128,
        },
    );
    let gap = b.global_avg_pool("pool5", i5b);
    let fc = b.fc("loss3_classifier", gap, 1000, 1024);
    b.softmax("prob", fc);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ModelStats, Precision};

    #[test]
    fn googlenet_size_matches_paper() {
        let stats = ModelStats::of(&googlenet(1));
        let mb = stats.model_bytes(Precision::Fp32) as f64 / (1024.0 * 1024.0);
        assert!(
            (45.0..60.0).contains(&mb),
            "GoogLeNet fp32 {mb:.1} MB vs paper 53.5 MB"
        );
        // ~1.6 GMACs.
        assert!(stats.macs > 1_000_000_000 && stats.macs < 2_500_000_000);
    }

    #[test]
    fn inception_concat_channel_plan() {
        let net = googlenet(1);
        let shapes = net.infer_shapes().unwrap();
        let idx = net
            .nodes()
            .iter()
            .position(|n| n.name == "inception_3a_output")
            .unwrap();
        assert_eq!(shapes[idx].c, 64 + 128 + 32 + 32);
        let idx = net
            .nodes()
            .iter()
            .position(|n| n.name == "inception_5b_output")
            .unwrap();
        assert_eq!(shapes[idx].c, 1024);
        assert_eq!((shapes[idx].h, shapes[idx].w), (7, 7));
    }

    #[test]
    fn has_many_layers() {
        // Caffe GoogLeNet has ~140 layers; ours counts similar.
        let n = googlenet(1).layer_count();
        assert!((100..180).contains(&n), "layers {n}");
    }
}
