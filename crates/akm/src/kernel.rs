//! Chunked distance kernels shared by the k-d search paths (this crate's
//! [`rkd`](crate::rkd) trees and the Merkle-wrapped traversal in
//! `imageproof-mrkd`).
//!
//! ## The bit-exactness contract
//!
//! Candidate thresholds are part of the authenticated protocol: the SP and
//! the client must derive *bit-identical* `f32` distances, and the seed
//! implementation fixed them as the sequential left-to-right fold
//! `((0 + d₀²) + d₁²) + …`. The chunked kernel therefore vectorizes only
//! the independent subtract/square work (a fixed-size lane array the
//! compiler can use SIMD for) and then accumulates the squares **in the
//! exact scalar order**, so [`dist_sq`] equals [`dist_sq_scalar`] bit for
//! bit on every input — including NaN/infinity propagation.
//!
//! ## The early-exit soundness argument
//!
//! [`dist_sq_within`] may stop at a lane-chunk boundary once the partial
//! sum exceeds `limit`. Each partial sum is a prefix of the same sequential
//! fold, and adding a non-negative `f32` under round-to-nearest is
//! monotone (`fl(acc + x) >= acc` for `x >= 0`), so the full distance is
//! at least every prefix: a prefix above `limit` proves the distance is
//! above `limit`. `None` can therefore never prune a candidate the scalar
//! code would have accepted. NaN coordinates poison the accumulator and
//! fail every `> limit` checkpoint, so they fall through to `Some(NaN)` —
//! exactly the value the scalar code hands its caller.
//!
//! ## Lanes across queries
//!
//! [`dist_sq_lanes_within`] vectorizes the other way round: [`LANES`]
//! queries against one point, each lane a whole sequential fold of its own,
//! so the contract holds lane by lane with no reordering to argue about.
//! Its early exit needs the prefix proof above for *every* lane at once;
//! a lane whose prefix is still within its limit keeps the whole group
//! computing.

/// Lane width of the unrolled chunk loops. Eight `f32` lanes fill a
/// 256-bit vector register and divide both descriptor widths the paper
/// uses (64-d SURF, 128-d SIFT).
pub const LANES: usize = 8;

/// Reference scalar squared Euclidean distance — the seed implementation's
/// fold, kept as the equivalence oracle for the chunked kernels.
#[inline]
pub fn dist_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared Euclidean distance via [`LANES`]-wide chunks, bit-identical to
/// [`dist_sq_scalar`] (see the module docs for why the accumulation order
/// is preserved).
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % LANES;
    // `-0.0` is the identity `f32: Sum` folds from; it keeps the empty
    // input bit-identical to the scalar oracle and is absorbed by the
    // first (non-negative) square otherwise.
    let mut acc = -0.0f32;
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        acc = add_chunk(acc, ca, cb);
    }
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Squared distance with a monotone early exit for candidate pruning.
///
/// Returns `None` as soon as a chunk-boundary partial sum exceeds `limit`
/// — a *proof* that the full distance exceeds `limit`. Otherwise returns
/// `Some(d)` with the exact full distance (bit-identical to
/// [`dist_sq_scalar`]); callers must still compare `d` against their
/// threshold, because checkpoints only fire at chunk boundaries and NaN
/// never trips them.
#[inline]
// audit:allow(panic) main = len - len % LANES never exceeds len, so every slice is in bounds
pub fn dist_sq_within(a: &[f32], b: &[f32], limit: f32) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % LANES;
    let mut acc = -0.0f32;
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        acc = add_chunk(acc, ca, cb);
        if acc > limit {
            return None;
        }
    }
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        let d = x - y;
        acc += d * d;
    }
    Some(acc)
}

/// Squared distances from one point `b` to [`LANES`] queries at once, with
/// the monotone early exit of [`dist_sq_within`] taken only when it holds
/// for every lane.
///
/// The queries are held dimension-major: `lanes[j][i]` is query `i`'s
/// coordinate `j`, and `lanes.len() == b.len()`. Each lane runs its own
/// left-to-right fold `((-0.0 + d₀²) + d₁²) + …`, so lane `i` of the result
/// equals [`dist_sq_scalar`] of query `i` and `b` bit for bit; the
/// parallelism is across queries, never within one sum. Returns `None` at
/// a chunk boundary where every lane's partial sum exceeds its entry of
/// `limits` — a proof, lane by lane, that every full distance exceeds its
/// limit. NaN never trips a checkpoint.
#[inline]
pub fn dist_sq_lanes_within(
    lanes: &[[f32; LANES]],
    b: &[f32],
    limits: &[f32; LANES],
) -> Option<[f32; LANES]> {
    debug_assert_eq!(lanes.len(), b.len());
    let mut acc = [-0.0f32; LANES];
    let mut lane_chunks = lanes.chunks_exact(LANES);
    let mut b_chunks = b.chunks_exact(LANES);
    for (cl, cb) in lane_chunks.by_ref().zip(b_chunks.by_ref()) {
        for (q, &x) in cl.iter().zip(cb) {
            add_lanes(&mut acc, q, x);
        }
        // Branch-free across lanes, then one test per chunk.
        let all_exceed = acc
            .iter()
            .zip(limits)
            .fold(true, |all, (a, limit)| all & (a > limit));
        if all_exceed {
            return None;
        }
    }
    for (q, &x) in lane_chunks.remainder().iter().zip(b_chunks.remainder()) {
        add_lanes(&mut acc, q, x);
    }
    Some(acc)
}

/// One dimension of [`dist_sq_lanes_within`]: each lane adds its own
/// square, in the scalar fold's operand order (`acc + (q - x)²`).
#[inline(always)]
fn add_lanes(acc: &mut [f32; LANES], q: &[f32; LANES], x: f32) {
    for (a, &qi) in acc.iter_mut().zip(q) {
        let d = qi - x;
        *a += d * d;
    }
}

/// One chunk step: vectorizable subtract/square into a lane array, then a
/// sequential left-to-right accumulation matching the scalar fold.
#[inline(always)]
// audit:allow(panic) callers pass chunks_exact(LANES) slices, so lane indices below LANES are in bounds
fn add_chunk(mut acc: f32, ca: &[f32], cb: &[f32]) -> f32 {
    let mut sq = [0.0f32; LANES];
    for i in 0..LANES {
        let d = ca[i] - cb[i];
        sq[i] = d * d;
    }
    for &s in &sq {
        acc += s;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
    }

    #[test]
    fn chunked_matches_scalar_bitwise_across_dims() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        // Odd tails, lane multiples, and the paper's 64/128 descriptor
        // widths.
        for dim in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 100, 128] {
            for _ in 0..20 {
                let a = random_vec(&mut rng, dim);
                let b = random_vec(&mut rng, dim);
                assert_eq!(
                    dist_sq(&a, &b).to_bits(),
                    dist_sq_scalar(&a, &b).to_bits(),
                    "dim {dim}"
                );
            }
        }
    }

    #[test]
    fn chunked_propagates_nan_and_infinity_like_scalar() {
        let mut a = vec![0.25f32; 33];
        let b = vec![0.5f32; 33];
        a[20] = f32::NAN;
        assert!(dist_sq(&a, &b).is_nan());
        // A generous limit never trips a checkpoint, so the NaN reaches the
        // caller exactly as the scalar fold would hand it over.
        assert_eq!(dist_sq_within(&a, &b, 10.0).map(f32::is_nan), Some(true));
        // A tight limit exits on the clean prefix *before* the NaN lane —
        // still sound, because the scalar caller would reject NaN anyway.
        assert_eq!(dist_sq_within(&a, &b, 0.001), None);
        a[20] = f32::INFINITY;
        assert_eq!(dist_sq(&a, &b).to_bits(), dist_sq_scalar(&a, &b).to_bits());
    }

    #[test]
    fn early_exit_never_prunes_a_true_candidate() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for dim in [8usize, 12, 64, 128] {
            for _ in 0..200 {
                let a = random_vec(&mut rng, dim);
                let b = random_vec(&mut rng, dim);
                let exact = dist_sq_scalar(&a, &b);
                // Limits straddling the exact distance, including the exact
                // value itself (the `<=` acceptance boundary).
                for limit in [exact * 0.25, exact * 0.99, exact, exact * 1.5] {
                    match dist_sq_within(&a, &b, limit) {
                        Some(d) => assert_eq!(d.to_bits(), exact.to_bits()),
                        None => assert!(
                            exact > limit,
                            "pruned a candidate with d={exact} <= limit={limit}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn within_accepts_exact_boundary() {
        // d == limit must not be pruned: acceptance is `d <= threshold`.
        let a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        b[0] = 2.0;
        let exact = dist_sq_scalar(&a, &b);
        assert_eq!(dist_sq_within(&a, &b, exact), Some(exact));
        assert_eq!(dist_sq_within(&a, &b, exact - 1.0), None);
    }

    /// Equal bits, or both NaN: Rust leaves a NaN's payload unspecified
    /// (an addition of two NaNs may keep either), and no caller reads it.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Mostly finite coordinates, with −0.0, ±∞ and NaN mixed in at about
    /// one per 128 draws.
    fn coord() -> impl Strategy<Value = f32> {
        (0u16..512, -4.0f32..4.0).prop_map(|(pick, x)| match pick {
            0 => -0.0,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => f32::NAN,
            _ => x,
        })
    }

    const MAX_WIDTH: usize = 130;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        })]

        /// Every lane of the lane kernel is the scalar fold of its own
        /// query, and the kernel gives up only when every lane's full
        /// distance is above that lane's limit. Limits are the lanes' own
        /// distances scaled (mode 0, so exits are common), or per lane
        /// either scaled or arbitrary.
        #[test]
        fn lane_kernel_keeps_the_contract(
            width in 0usize..=MAX_WIDTH,
            coords in proptest::collection::vec(
                coord(), (LANES + 1) * MAX_WIDTH..=(LANES + 1) * MAX_WIDTH),
            picks in proptest::collection::vec(
                (any::<bool>(), 0.0f32..1.2, any::<f32>()), LANES..=LANES),
            mode in 0u8..2,
        ) {
            let vector = |i: usize| &coords[i * MAX_WIDTH..i * MAX_WIDTH + width];
            let point = vector(LANES);
            let lanes: Vec<[f32; LANES]> = (0..width)
                .map(|j| std::array::from_fn(|i| vector(i)[j]))
                .collect();
            let exact: [f32; LANES] = std::array::from_fn(|i| dist_sq_scalar(vector(i), point));
            let limits: [f32; LANES] = std::array::from_fn(|i| {
                let (scaled, s, raw) = picks[i];
                if mode == 0 || scaled { exact[i] * s } else { raw }
            });

            let all = dist_sq_lanes_within(&lanes, point, &[f32::INFINITY; LANES]);
            prop_assert!(all.is_some(), "no prefix exceeds an infinite limit");
            for (i, (&d, &e)) in all.unwrap_or_default().iter().zip(&exact).enumerate() {
                prop_assert!(same_bits(d, e), "width {} lane {}: {} vs {}", width, i, d, e);
            }
            match dist_sq_lanes_within(&lanes, point, &limits) {
                Some(ds) => {
                    for (i, (&d, &e)) in ds.iter().zip(&exact).enumerate() {
                        prop_assert!(same_bits(d, e), "width {} lane {}: {} vs {}", width, i, d, e);
                    }
                }
                None => {
                    for (i, (&e, &limit)) in exact.iter().zip(&limits).enumerate() {
                        prop_assert!(e > limit, "width {} lane {} skipped: {} <= {}", width, i, e, limit);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        })]

        /// Random vectors of random width: the chunked kernel and the
        /// early-exit kernel agree with the scalar fold bit for bit.
        #[test]
        fn kernels_agree_with_scalar_on_random_inputs(
            pairs in proptest::collection::vec((any::<f32>(), any::<f32>()), 0..200),
            limit in any::<f32>(),
        ) {
            let a: Vec<f32> = pairs.iter().map(|&(x, _)| x).collect();
            let b: Vec<f32> = pairs.iter().map(|&(_, y)| y).collect();
            let exact = dist_sq_scalar(&a, &b);
            prop_assert_eq!(dist_sq(&a, &b).to_bits(), exact.to_bits());
            match dist_sq_within(&a, &b, limit) {
                Some(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                // NaN never takes the early exit, so a `None` implies a
                // real (comparable) distance strictly above the limit.
                None => prop_assert!(exact > limit),
            }
        }
    }
}
