//! NCHW activation tensors and OIHW weight tensors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Shape of an activation tensor (batch is always 1 for inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape {
    /// Construct a shape.
    #[must_use]
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Shape { c, h, w }
    }

    /// Total element count.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.c * self.h * self.w
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// A dense f32 activation tensor in NCHW (N=1) layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A zero tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.elements()],
        }
    }

    /// Construct from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.elements()`.
    #[must_use]
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.elements(),
            "data length does not match shape {shape}"
        );
        Tensor { shape, data }
    }

    /// Deterministic pseudo-random tensor in `[-1, 1)` (synthetic input
    /// images).
    #[must_use]
    pub fn random(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.elements())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Flat element view.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat element view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    #[must_use]
    pub fn at(&self, c: usize, h: usize, w: usize) -> f32 {
        self.data[(c * self.shape.h + h) * self.shape.w + w]
    }

    /// Set element at `(c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, c: usize, h: usize, w: usize, v: f32) {
        self.data[(c * self.shape.h + h) * self.shape.w + w] = v;
    }

    /// Largest absolute value (0 for an empty tensor).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Index of the maximum element (argmax over the flattened tensor).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }
}

/// A convolution weight tensor in OIHW layout.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTensor {
    /// Output channels.
    pub out_c: usize,
    /// Input channels (per group).
    pub in_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    data: Vec<f32>,
}

impl WeightTensor {
    /// Zero-filled weights.
    #[must_use]
    pub fn zeros(out_c: usize, in_c: usize, kh: usize, kw: usize) -> Self {
        WeightTensor {
            out_c,
            in_c,
            kh,
            kw,
            data: vec![0.0; out_c * in_c * kh * kw],
        }
    }

    /// Deterministic He-style initialization: uniform in `±sqrt(2/fan_in)`.
    #[must_use]
    pub fn random(out_c: usize, in_c: usize, kh: usize, kw: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_c * kh * kw).max(1) as f32;
        let bound = (2.0 / fan_in).sqrt();
        let data = (0..out_c * in_c * kh * kw)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        WeightTensor {
            out_c,
            in_c,
            kh,
            kw,
            data,
        }
    }

    /// Construct from raw OIHW data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != out_c * in_c * kh * kw`.
    #[must_use]
    pub fn from_vec(out_c: usize, in_c: usize, kh: usize, kw: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            out_c * in_c * kh * kw,
            "weight data length mismatch"
        );
        WeightTensor {
            out_c,
            in_c,
            kh,
            kw,
            data,
        }
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Mutable flat element view (OIHW order).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// True when the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat element view (OIHW order).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Element at `(o, i, kh, kw)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    #[must_use]
    pub fn at(&self, o: usize, i: usize, y: usize, x: usize) -> f32 {
        self.data[((o * self.in_c + i) * self.kh + y) * self.kw + x]
    }

    /// Largest absolute value.
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_elements_and_display() {
        let s = Shape::new(3, 224, 224);
        assert_eq!(s.elements(), 150_528);
        assert_eq!(s.to_string(), "3x224x224");
    }

    #[test]
    fn indexing_is_nchw() {
        let mut t = Tensor::zeros(Shape::new(2, 3, 4));
        t.set(1, 2, 3, 7.0);
        assert_eq!(t.at(1, 2, 3), 7.0);
        // Last element of the flat buffer.
        assert_eq!(t.data()[23], 7.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(Shape::new(1, 8, 8), 42);
        let b = Tensor::random(Shape::new(1, 8, 8), 42);
        let c = Tensor::random(Shape::new(1, 8, 8), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.max_abs() <= 1.0);
    }

    #[test]
    fn argmax_finds_peak() {
        let mut t = Tensor::zeros(Shape::new(10, 1, 1));
        t.set(7, 0, 0, 3.5);
        assert_eq!(t.argmax(), 7);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(Shape::new(1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn weights_he_bound_scales_with_fan_in() {
        let small_fan = WeightTensor::random(4, 1, 1, 1, 1);
        let large_fan = WeightTensor::random(4, 512, 3, 3, 1);
        assert!(small_fan.max_abs() > large_fan.max_abs());
        assert_eq!(large_fan.len(), 4 * 512 * 9);
    }

    #[test]
    fn weight_indexing_oihw() {
        let mut w = WeightTensor::zeros(2, 3, 5, 5);
        w.data = (0..w.len()).map(|i| i as f32).collect();
        assert_eq!(w.at(0, 0, 0, 1), 1.0);
        assert_eq!(w.at(0, 1, 0, 0), 25.0);
        assert_eq!(w.at(1, 0, 0, 0), 75.0);
    }
}
