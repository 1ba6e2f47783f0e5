//! Descriptor kinds and distance functions.

/// Identifier of an image in the outsourced database.
///
/// The paper writes image ids as small integers (Table II); a `u64` matches
/// any realistic catalogue size.
pub type ImageId = u64;

/// The family of local feature descriptor being simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DescriptorKind {
    /// Scale-invariant feature transform: 128-dimensional (Lowe, IJCV '04).
    Sift,
    /// Speeded-up robust features: 64-dimensional (Bay et al., CVIU '08).
    Surf,
}

impl DescriptorKind {
    /// Dimensionality of one descriptor vector.
    pub fn dim(self) -> usize {
        match self {
            DescriptorKind::Sift => 128,
            DescriptorKind::Surf => 64,
        }
    }
}

/// Squared Euclidean distance between two descriptors.
///
/// # Panics
/// Panics when the slices have different lengths — mixing descriptor kinds
/// is a programming error, not a data error.
#[inline]
pub fn l2_distance_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "descriptor dimensionality mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two descriptors.
#[inline]
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    l2_distance_sq(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_paper_dimensionalities() {
        assert_eq!(DescriptorKind::Sift.dim(), 128);
        assert_eq!(DescriptorKind::Surf.dim(), 64);
    }

    #[test]
    fn distance_of_identical_vectors_is_zero() {
        let v = vec![0.25f32; 128];
        assert_eq!(l2_distance_sq(&v, &v), 0.0);
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert_eq!(l2_distance_sq(&a, &b), 25.0);
        assert_eq!(l2_distance(&a, &b), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_dims_panic() {
        let _ = l2_distance_sq(&[1.0], &[1.0, 2.0]);
    }
}
