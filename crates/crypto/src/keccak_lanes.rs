//! Keccak-f\[1600\] over `N` independent states at once, and the one place
//! the workspace selects a CPU-specific instance of it.
//!
//! The state is lane-major: `state[i][l]` is word `i` of sponge `l`, so
//! every step of the round function is the same operation on `N` adjacent
//! `u64`s. [`permute`] is plain safe code; compiled with AVX-512 enabled
//! and `N = 8`, LLVM turns each `[u64; 8]` into one `zmm` register and the
//! rotates and the chi step into `vprolq` / `vpternlogq`, so eight
//! permutations cost about what one scalar permutation does. Without
//! AVX-512 the same code is slower than eight scalar permutations, so
//! [`Wide::detect`] offers the 8-lane instance only where the CPU has it;
//! everywhere else the batch hasher runs [`crate::sha3::keccak_f1600`] per
//! message.

use crate::sha3::{RHO_OFFSETS, ROUND_CONSTANTS};

/// Sponges advanced per call of the wide instance (one 512-bit register
/// per state word).
pub(crate) const LANES: usize = 8;

/// `N` Keccak states, lane-major.
pub(crate) type LaneState<const N: usize> = [[u64; N]; 25];

/// Applies Keccak-f\[1600\] to all `N` states. Lane `l` of the result is
/// exactly [`crate::sha3::keccak_f1600`] of lane `l` of the input.
// x and y below are FIPS 202's coordinates, not mere positions.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
// audit:allow(panic) word indices are x + 5y with x, y in 0..5 and lane indices run 0..N, all inside [[u64; N]; 25]
pub(crate) fn permute<const N: usize>(state: &mut LaneState<N>) {
    for &rc in &ROUND_CONSTANTS {
        // Theta.
        let mut c = [[0u64; N]; 5];
        for x in 0..5 {
            for l in 0..N {
                c[x][l] = state[x][l]
                    ^ state[x + 5][l]
                    ^ state[x + 10][l]
                    ^ state[x + 15][l]
                    ^ state[x + 20][l];
            }
        }
        let mut d = [[0u64; N]; 5];
        for x in 0..5 {
            for l in 0..N {
                d[x][l] = c[(x + 4) % 5][l] ^ c[(x + 1) % 5][l].rotate_left(1);
            }
        }

        // Theta's xor folded into rho and pi: b[y, 2x+3y] = rotl(a[x, y] ^ d[x], r[x, y]).
        let mut b = [[0u64; N]; 25];
        for x in 0..5 {
            for y in 0..5 {
                let from = x + 5 * y;
                let to = y + 5 * ((2 * x + 3 * y) % 5);
                for l in 0..N {
                    b[to][l] = (state[from][l] ^ d[x][l]).rotate_left(RHO_OFFSETS[from]);
                }
            }
        }

        // Chi.
        for y in 0..5 {
            for x in 0..5 {
                for l in 0..N {
                    state[x + 5 * y][l] =
                        b[x + 5 * y][l] ^ (!b[(x + 1) % 5 + 5 * y][l] & b[(x + 2) % 5 + 5 * y][l]);
                }
            }
        }

        // Iota.
        for lane in &mut state[0] {
            *lane ^= rc;
        }
    }
}

/// [`permute`] at `N = 8`, compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn permute_avx512(state: &mut LaneState<LANES>) {
    permute(state);
}

/// Proof that this CPU runs the 8-lane instance faster than eight scalar
/// permutations; exists only after feature detection said so.
pub(crate) struct Wide(());

impl Wide {
    /// The wide instance, where the CPU has AVX-512 F and VL. Detection is
    /// the only selector: no build feature or setting overrides it.
    pub(crate) fn detect() -> Option<Wide> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Some(Wide(()));
        }
        None
    }

    /// Advances all eight states by one permutation. The workspace denies
    /// `unsafe_code`; this is the one exemption.
    #[allow(unsafe_code)]
    pub(crate) fn permute(&self, state: &mut LaneState<LANES>) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `permute_avx512` requires avx512f and avx512vl. A `Wide`
        // is constructed only by `detect`, after `is_x86_feature_detected!`
        // confirmed both on the running CPU, and its field is private to
        // this module.
        unsafe {
            permute_avx512(state)
        }
        // No `Wide` exists on other architectures (`detect` returns `None`).
        #[cfg(not(target_arch = "x86_64"))]
        permute(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha3::keccak_f1600;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random lane-major states and, per lane, the scalar permutation of
    /// that lane's state.
    fn random_states<const N: usize>(rng: &mut StdRng) -> (LaneState<N>, [[u64; 25]; N]) {
        let mut lanes = [[0u64; N]; 25];
        let mut scalar = [[0u64; 25]; N];
        for (i, word) in lanes.iter_mut().enumerate() {
            for (l, lane) in word.iter_mut().enumerate() {
                *lane = rng.gen();
                scalar[l][i] = *lane;
            }
        }
        for s in &mut scalar {
            keccak_f1600(s);
        }
        (lanes, scalar)
    }

    fn assert_lanes_equal<const N: usize>(lanes: &LaneState<N>, scalar: &[[u64; 25]; N]) {
        for (i, word) in lanes.iter().enumerate() {
            for (l, lane) in word.iter().enumerate() {
                assert_eq!(*lane, scalar[l][i], "N={N} word {i} lane {l}");
            }
        }
    }

    /// The generic function without `target_feature`, so hosts lacking
    /// AVX-512 still test the lane logic.
    fn generic_matches_scalar<const N: usize>() {
        let mut rng = StdRng::seed_from_u64(0x6b65_6363_616b + N as u64);
        for _ in 0..32 {
            let (mut lanes, scalar) = random_states::<N>(&mut rng);
            permute(&mut lanes);
            assert_lanes_equal(&lanes, &scalar);
        }
    }

    #[test]
    fn generic_lanes_equal_scalar_lane_for_lane() {
        generic_matches_scalar::<1>();
        generic_matches_scalar::<4>();
        generic_matches_scalar::<8>();
    }

    #[test]
    fn dispatched_instance_equals_scalar_when_the_cpu_has_it() {
        let Some(wide) = Wide::detect() else {
            eprintln!("no AVX-512 on this host: the wide Keccak instance is not reachable");
            return;
        };
        let mut rng = StdRng::seed_from_u64(0x7769_6465);
        for _ in 0..32 {
            let (mut lanes, scalar) = random_states::<LANES>(&mut rng);
            wide.permute(&mut lanes);
            assert_lanes_equal(&lanes, &scalar);
        }
    }
}
