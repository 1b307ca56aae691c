//! Seeded property checks.
//!
//! [`cases`] runs a property on inputs drawn by a [`Gen`]: case `k` draws
//! from the [`StreamRng`] keyed by seed `k`, so every run checks the same
//! inputs, and a failing case is reported with the seed that [`replay`]s
//! it alone. A property asserts with the ordinary `assert!` family and
//! discards an unsuitable case with [`assume`].
//!
//! ```
//! use frontier_sim_core::check;
//!
//! check::cases(64, |g| {
//!     let a = g.range(0u64..1_000);
//!     let b = g.range(1u64..1_000);
//!     check::assume(a != b);
//!     assert_eq!(a.max(b), b.max(a));
//! });
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::StreamRng;

/// Draws one case's inputs.
pub struct Gen(StreamRng);

impl Gen {
    /// Uniform in the half-open `range`.
    pub fn range<T: Draw>(&mut self, range: Range<T>) -> T {
        T::draw(&mut self.0, range)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.0.index(2) == 1
    }

    /// A vector with a length drawn from `len` and items drawn by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }
}

/// A type [`Gen::range`] can draw.
pub trait Draw: Sized {
    fn draw(rng: &mut StreamRng, range: Range<Self>) -> Self;
}

impl Draw for u64 {
    fn draw(rng: &mut StreamRng, range: Range<u64>) -> u64 {
        rng.int_range(range.start, range.end)
    }
}

impl Draw for u32 {
    fn draw(rng: &mut StreamRng, range: Range<u32>) -> u32 {
        rng.int_range(range.start.into(), range.end.into()) as u32
    }
}

impl Draw for usize {
    fn draw(rng: &mut StreamRng, range: Range<usize>) -> usize {
        rng.int_range(range.start as u64, range.end as u64) as usize
    }
}

impl Draw for f64 {
    fn draw(rng: &mut StreamRng, range: Range<f64>) -> f64 {
        rng.uniform_range(range.start, range.end)
    }
}

/// The unwind payload of a case [`assume`] discarded.
struct Rejected;

/// Discard the current case unless `cond` holds; [`cases`] draws another
/// in its place.
pub fn assume(cond: bool) {
    if !cond {
        // `resume_unwind` skips the panic hook: a rejection prints nothing.
        resume_unwind(Box::new(Rejected));
    }
}

/// More discarded cases than this fail the property: its [`assume`]s
/// reject nearly everything, so it checks almost nothing.
const MAX_REJECTS: u32 = 1024;

/// Check `prop` on `cases` accepted cases, drawn from seeds 0, 1, 2, ...
/// A failing case re-panics with its seed.
pub fn cases(cases: u32, prop: impl Fn(&mut Gen)) {
    let (mut passed, mut rejected) = (0u32, 0u32);
    for seed in 0u64.. {
        if passed == cases {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| replay(seed, &prop))) {
            Ok(()) => passed += 1,
            Err(p) if p.is::<Rejected>() => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "check: {rejected} cases rejected after {passed} passed"
                );
            }
            #[expect(
                clippy::panic,
                reason = "a failing property must fail its test, and this panic names the seed that replays it"
            )]
            Err(_) => panic!(
                "check: case seed {seed} failed after {passed} passed; \
                 rerun it alone with `check::replay({seed}, ..)`"
            ),
        }
    }
}

/// Run `prop` once, on the case drawn from `seed`.
pub fn replay(seed: u64, prop: impl Fn(&mut Gen)) {
    prop(&mut Gen(StreamRng::for_component(seed, "check", 0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn draws_stay_in_range_and_cases_are_reproducible() {
        let draws = |seed| {
            let out = Cell::new(Vec::new());
            replay(seed, |g| {
                let v = g.vec(1..5, |g| g.range(3u32..9));
                assert!((1..5).contains(&v.len()));
                assert!(v.iter().all(|x| (3..9).contains(x)));
                let f = g.range(-2.0f64..0.5);
                assert!((-2.0..0.5).contains(&f));
                out.set(v);
            });
            out.into_inner()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!((0..8).map(draws).collect::<Vec<_>>(), vec![draws(0); 8]);
    }

    #[test]
    fn assume_draws_a_replacement_case() {
        let (run, kept) = (Cell::new(0u32), Cell::new(0u32));
        cases(20, |g| {
            run.set(run.get() + 1);
            let b = g.bool();
            assume(b);
            kept.set(kept.get() + 1);
        });
        assert_eq!(kept.get(), 20, "rejections do not count as cases");
        assert!(run.get() > 20, "some of the coin flips came up false");
    }

    #[test]
    fn a_failure_names_its_seed() {
        let err = catch_unwind(|| cases(50, |g| assert!(g.range(0u64..4) != 3)))
            .expect_err("some case draws 3");
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        let seed: u64 = msg
            .strip_prefix("check: case seed ")
            .and_then(|m| m.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("the message leads with the seed");
        replay(seed, |g| assert_eq!(g.range(0u64..4), 3));
    }

    #[test]
    #[should_panic(expected = "cases rejected")]
    fn a_property_that_rejects_everything_fails() {
        cases(1, |_| assume(false));
    }
}
