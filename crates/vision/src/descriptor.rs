//! Descriptor kinds and image identifiers.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_paper_dimensionalities() {
        assert_eq!(DescriptorKind::Sift.dim(), 128);
        assert_eq!(DescriptorKind::Surf.dim(), 64);
    }
}
