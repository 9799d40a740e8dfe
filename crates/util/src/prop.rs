//! Mini property-based testing harness (std-only `proptest`
//! replacement).
//!
//! A property is an ordinary closure over a generated input; failures
//! (panics or `assert!`s inside the closure) are caught, the input is
//! shrunk toward a minimal counterexample, and the failing case seed is
//! printed so the exact case replays with
//! `CAPSYS_PROP_SEED=<seed> cargo test`.
//!
//! ```
//! use capsys_util::forall;
//! use capsys_util::prop::{ints, vec_of, Config};
//!
//! forall!(Config::default().cases(64), (
//!     xs in vec_of(ints(0usize..100), 1..=8),
//! ) => {
//!     let total: usize = xs.iter().sum();
//!     assert!(total <= 100 * xs.len());
//! });
//! ```
//!
//! Strategies compose as tuples: `(a in s1, b in s2)` draws both from
//! the same case seed. Integer strategies shrink toward their lower
//! bound by binary halving; vector strategies shrink by dropping
//! chunks, then elements, then shrinking surviving elements.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{Rng, SeedableRng, SmallRng};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases (overridden by `CAPSYS_PROP_CASES`).
    pub cases: usize,
    /// Base seed for case-seed derivation.
    pub seed: u64,
}

/// Maximum number of shrink candidates to evaluate after a failure.
const MAX_SHRINK_STEPS: usize = 512;

impl Default for Config {
    fn default() -> Config {
        let cases = std::env::var("CAPSYS_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32);
        Config {
            cases,
            seed: 0xCA95_0001,
        }
    }
}

impl Config {
    /// Sets the case count (unless `CAPSYS_PROP_CASES` overrides it).
    pub fn cases(mut self, cases: usize) -> Config {
        if std::env::var("CAPSYS_PROP_CASES").is_err() {
            self.cases = cases;
        }
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }
}

/// A generator of random test inputs with optional shrinking.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Proposes strictly "smaller" variants of a failing value, most
    /// aggressive first. Default: no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Uniform integers in a range, shrinking toward the lower bound.
pub struct IntStrategy<T> {
    lo: T,
    hi_inclusive: T,
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for IntStrategy<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.lo..=self.hi_inclusive)
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                let mut v = *value;
                // Halve the distance to the lower bound repeatedly
                // (aggressive), then step down by one (fine-grained) so
                // the greedy shrink loop can land exactly on the
                // boundary a halving chain jumps over.
                while v > self.lo {
                    let next = self.lo + (v - self.lo) / 2;
                    out.push(next);
                    if next == self.lo {
                        break;
                    }
                    v = next;
                }
                if *value > self.lo {
                    out.push(*value - 1);
                }
                out
            }
        }

        impl From<std::ops::Range<$t>> for IntStrategy<$t> {
            fn from(r: std::ops::Range<$t>) -> Self {
                assert!(r.start < r.end, "ints: empty range");
                IntStrategy { lo: r.start, hi_inclusive: r.end - 1 }
            }
        }

        impl From<std::ops::RangeInclusive<$t>> for IntStrategy<$t> {
            fn from(r: std::ops::RangeInclusive<$t>) -> Self {
                assert!(r.start() <= r.end(), "ints: empty range");
                IntStrategy { lo: *r.start(), hi_inclusive: *r.end() }
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, i64, i32);

/// Integers drawn uniformly from `range` (`a..b` or `a..=b`),
/// shrinking toward the lower bound.
pub fn ints<T, R: Into<IntStrategy<T>>>(range: R) -> IntStrategy<T> {
    range.into()
}

/// Uniform floats in `[lo, hi)`, shrinking toward the lower bound.
pub struct FloatStrategy {
    lo: f64,
    hi: f64,
}

impl Strategy for FloatStrategy {
    type Value = f64;

    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut v = *value;
        for _ in 0..8 {
            let next = self.lo + (v - self.lo) / 2.0;
            if (next - self.lo).abs() < 1e-12 || next == v {
                break;
            }
            out.push(next);
            v = next;
        }
        out
    }
}

/// Floats drawn uniformly from `[lo, hi)`.
pub fn floats(range: std::ops::Range<f64>) -> FloatStrategy {
    assert!(range.start < range.end, "floats: empty range");
    FloatStrategy {
        lo: range.start,
        hi: range.end,
    }
}

/// Vectors of values from an element strategy, with length in a range.
pub struct VecStrategy<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.min_len..=self.max_len);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // 1. Drop the back half, then single elements (keeping >= min_len).
        if value.len() > self.min_len {
            let half = (value.len() + self.min_len).div_ceil(2);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            for i in (0..value.len()).rev() {
                if value.len() - 1 >= self.min_len {
                    let mut smaller = value.clone();
                    smaller.remove(i);
                    out.push(smaller);
                }
            }
        }
        // 2. Shrink individual elements, first shrink candidate each.
        for (i, v) in value.iter().enumerate() {
            if let Some(sv) = self.element.shrink(v).into_iter().next() {
                let mut smaller = value.clone();
                smaller[i] = sv;
                out.push(smaller);
            }
        }
        out
    }
}

/// `Vec`s with elements from `element` and length in `len` (`a..=b`).
pub fn vec_of<S: Strategy>(element: S, len: impl Into<IntStrategy<usize>>) -> VecStrategy<S> {
    let len = len.into();
    VecStrategy {
        element,
        min_len: len.lo,
        max_len: len.hi_inclusive,
    }
}

/// Exactly one constant value.
pub struct JustStrategy<V>(V);

impl<V: Clone + Debug> Strategy for JustStrategy<V> {
    type Value = V;

    fn generate(&self, _rng: &mut SmallRng) -> V {
        self.0.clone()
    }
}

/// A strategy producing only `value`.
pub fn just<V: Clone + Debug>(value: V) -> JustStrategy<V> {
    JustStrategy(value)
}

macro_rules! tuple_strategy {
    ($($S:ident/$v:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for shrunk in self.$idx.shrink(&value.$idx) {
                        let mut candidate = value.clone();
                        candidate.$idx = shrunk;
                        out.push(candidate);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(S0 / v0 / 0);
tuple_strategy!(S0 / v0 / 0, S1 / v1 / 1);
tuple_strategy!(S0 / v0 / 0, S1 / v1 / 1, S2 / v2 / 2);
tuple_strategy!(S0 / v0 / 0, S1 / v1 / 1, S2 / v2 / 2, S3 / v3 / 3);
tuple_strategy!(
    S0 / v0 / 0,
    S1 / v1 / 1,
    S2 / v2 / 2,
    S3 / v3 / 3,
    S4 / v4 / 4
);
tuple_strategy!(
    S0 / v0 / 0,
    S1 / v1 / 1,
    S2 / v2 / 2,
    S3 / v3 / 3,
    S4 / v4 / 4,
    S5 / v5 / 5
);
tuple_strategy!(
    S0 / v0 / 0,
    S1 / v1 / 1,
    S2 / v2 / 2,
    S3 / v3 / 3,
    S4 / v4 / 4,
    S5 / v5 / 5,
    S6 / v6 / 6
);

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static INSTALL_HOOK: Once = Once::new();

/// Installs (once) a panic hook that stays silent while the harness is
/// intentionally panicking properties during generation and shrinking.
fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `test` on one value, capturing a panic as `Err(message)`.
fn run_case<V>(test: &impl Fn(&V), value: &V) -> Result<(), String> {
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| test(value)));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    outcome.map_err(panic_message)
}

/// Runs `test` against `config.cases` generated inputs. On failure,
/// shrinks the input and panics with the failing seed and the minimal
/// counterexample found.
///
/// Set `CAPSYS_PROP_SEED=<hex-or-dec seed>` to replay exactly one
/// failing case printed by an earlier run.
pub fn forall<S: Strategy>(name: &str, config: Config, strategy: S, test: impl Fn(&S::Value)) {
    install_quiet_hook();

    let replay = std::env::var("CAPSYS_PROP_SEED").ok().map(|v| {
        let v = v.trim().trim_start_matches("0x");
        u64::from_str_radix(v, 16)
            .or_else(|_| v.parse())
            .expect("CAPSYS_PROP_SEED must be a hex or decimal u64")
    });

    let case_seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => {
            let mut state = config.seed;
            (0..config.cases)
                .map(|_| crate::rng::splitmix64(&mut state))
                .collect()
        }
    };

    for (case_idx, &case_seed) in case_seeds.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        let Err(original_failure) = run_case(&test, &value) else {
            continue;
        };

        // Shrink: greedily accept any failing candidate, restarting the
        // candidate scan from the smaller value.
        let mut minimal = value;
        let mut failure = original_failure;
        let mut budget = MAX_SHRINK_STEPS;
        'shrinking: while budget > 0 {
            for candidate in strategy.shrink(&minimal) {
                budget -= 1;
                if let Err(msg) = run_case(&test, &candidate) {
                    minimal = candidate;
                    failure = msg;
                    continue 'shrinking;
                }
                if budget == 0 {
                    break;
                }
            }
            break;
        }

        panic!(
            "property `{name}` failed (case {} of {})\n\
             \x20 failing seed: {case_seed:#018x}  \
             (replay: CAPSYS_PROP_SEED={case_seed:#x} cargo test {name})\n\
             \x20 minimal input: {minimal:?}\n\
             \x20 failure: {failure}",
            case_idx + 1,
            case_seeds.len(),
        );
    }
}

/// Property-test entry macro.
///
/// ```ignore
/// forall!(Config::default(), (x in ints(0..10), ys in vec_of(floats(0.0..1.0), 1..=4)) => {
///     assert!(ys.len() <= 4 && x < 10);
/// });
/// ```
#[macro_export]
macro_rules! forall {
    ($config:expr, ($($name:ident in $strategy:expr),+ $(,)?) => $body:block) => {
        $crate::prop::forall(
            concat!(module_path!(), "::", line!()),
            $config,
            ($($strategy,)+),
            |&($(ref $name,)+)| $body,
        )
    };
}

// Allow `use capsys_util::prop::forall_macro as forall` style imports via
// the crate root; the macro itself is exported at the root by
// `#[macro_export]`.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0usize);
        forall(
            "sum-bound",
            Config::default().cases(40),
            (ints(0usize..50), vec_of(ints(1usize..=5), 0..=6)),
            |&(x, ref v)| {
                counter.set(counter.get() + 1);
                assert!(x < 50);
                assert!(v.iter().all(|&e| (1..=5).contains(&e)));
            },
        );
        assert_eq!(counter.get(), 40);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall(
                "gt-17-fails",
                Config::default().cases(64),
                (ints(0usize..1000),),
                |&(x,)| assert!(x < 17, "x was {x}"),
            );
        }));
        let msg = panic_message(result.unwrap_err().into());
        assert!(msg.contains("failing seed"), "no seed in: {msg}");
        assert!(msg.contains("CAPSYS_PROP_SEED="), "no replay hint: {msg}");
        // Shrinking must land on the minimal counterexample, 17.
        assert!(msg.contains("minimal input: (17,)"), "bad shrink: {msg}");
    }

    #[test]
    fn vec_shrinking_minimizes_length() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall(
                "short-vecs-fail",
                Config::default().cases(64),
                (vec_of(ints(0usize..10), 0..=20),),
                |&(ref v,)| assert!(v.len() < 3),
            );
        }));
        let msg = panic_message(result.unwrap_err().into());
        // Minimal failing vector has exactly 3 elements, each shrunk to 0.
        assert!(
            msg.contains("minimal input: ([0, 0, 0],)"),
            "bad shrink: {msg}"
        );
    }

    #[test]
    fn forall_macro_compiles_and_runs() {
        forall!(Config::default().cases(8), (
            n in ints(1usize..=4),
            scale in floats(0.5..2.0),
        ) => {
            assert!(*n >= 1 && *scale > 0.0);
        });
    }

    #[test]
    fn cases_are_deterministic_for_fixed_seed() {
        let collect = |seed: u64| {
            let mut values = Vec::new();
            let mut state = seed;
            for _ in 0..10 {
                let mut rng = SmallRng::seed_from_u64(crate::rng::splitmix64(&mut state));
                values.push(ints(0u64..1_000_000).generate(&mut rng));
            }
            values
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }
}
