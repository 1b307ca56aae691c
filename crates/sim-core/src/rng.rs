//! Deterministic, component-keyed random number streams.
//!
//! Large simulations need randomness that is (a) reproducible run-to-run and
//! (b) *independent per component*, so that adding a new random consumer does
//! not perturb every other component's stream. [`StreamRng`] derives an
//! independent ChaCha8 stream from a `(experiment seed, component label,
//! component index)` triple, following the "root seed + derivation path"
//! pattern used by SST and other large-scale simulators.
//!
//! The generator and samplers reproduce `rand_chacha` 0.3's `ChaCha8Rng`
//! and `rand` 0.8's `gen::<f64>` and `gen_range`, so every draw matches
//! the one those crates would make for the same key.

const BLOCK_WORDS: usize = 16;

/// One ChaCha block with `rounds` rounds (8 for ChaCha8, 20 for ChaCha20):
/// a 256-bit key, a 64-bit block counter and a zero 64-bit stream id.
fn block(key: &[u32; 8], counter: u64, rounds: usize) -> [u32; BLOCK_WORDS] {
    let mut init = [0u32; BLOCK_WORDS];
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = counter as u32;
    init[13] = (counter >> 32) as u32;
    let mut x = init;
    fn quarter(x: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    for _ in 0..rounds / 2 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = w.wrapping_add(i);
    }
    x
}

/// The ChaCha8 keystream read as little-endian `u32` words.
#[derive(Clone)]
struct ChaCha8 {
    key: [u32; 8],
    /// Counter of the next block to generate.
    counter: u64,
    buf: [u32; BLOCK_WORDS],
    /// Next unread word of `buf`; `BLOCK_WORDS` when exhausted.
    idx: usize,
}

impl ChaCha8 {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha8 {
            key,
            counter: 0,
            buf: [0; BLOCK_WORDS],
            idx: BLOCK_WORDS,
        }
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx == BLOCK_WORDS {
            self.buf = block(&self.key, self.counter, 8);
            self.counter = self.counter.wrapping_add(1);
            self.idx = 0;
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Two consecutive words, low first, also across a block boundary.
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

/// Uniform in `[0, 1)` from the top 53 bits of `word`.
fn unit_f64(word: u64) -> f64 {
    let scale = 1.0 / (1u64 << 53) as f64;
    scale * (word >> 11) as f64
}

/// Uniform integer in `[lo, hi)` from the words of `next`, by widening
/// multiply with rejection: the high half of `v * range` is the sample,
/// and a draw is rejected when the low half falls above `zone` (`rand`
/// 0.8's approximate zone for 64-bit types).
fn in_range(lo: u64, hi: u64, mut next: impl FnMut() -> u64) -> u64 {
    assert!(lo < hi, "cannot sample empty range");
    let range = hi - lo;
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let v = u128::from(next()) * u128::from(range);
        let (h, l) = ((v >> 64) as u64, v as u64);
        if l <= zone {
            return lo + h;
        }
    }
}

/// A reproducible random stream for one simulated component.
pub struct StreamRng {
    inner: ChaCha8,
}

impl StreamRng {
    /// Derive the stream for component `(label, index)` of the experiment
    /// identified by `seed`.
    ///
    /// Streams with distinct derivation triples are statistically
    /// independent; identical triples yield identical streams.
    pub fn for_component(seed: u64, label: &str, index: u64) -> Self {
        // FNV-1a over the label keeps the derivation allocation-free and
        // stable across platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut key = [0u8; 32];
        key[0..8].copy_from_slice(&seed.to_le_bytes());
        key[8..16].copy_from_slice(&h.to_le_bytes());
        key[16..24].copy_from_slice(&index.to_le_bytes());
        key[24..32].copy_from_slice(&(seed ^ h ^ index).to_le_bytes());
        StreamRng {
            inner: ChaCha8::from_seed(key),
        }
    }

    /// A stream derived directly from a raw seed (for tests and one-off use).
    pub fn from_seed(seed: u64) -> Self {
        Self::for_component(seed, "root", 0)
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty range");
        in_range(0, n as u64, || self.next_u64()) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        in_range(lo, hi, || self.next_u64())
    }

    /// Exponentially distributed sample with the given rate (mean `1/rate`).
    ///
    /// Used by the failure models: component lifetimes under a constant FIT
    /// rate are exponential.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let u: f64 = self.uniform();
        // 1-u is in (0,1], so ln is finite.
        -(1.0 - u).ln() / rate
    }

    /// Standard normal sample (Box–Muller).
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        let u1: f64 = 1.0 - self.uniform(); // (0, 1]
        let u2: f64 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal sample parameterized by the *target* median and a
    /// multiplicative spread sigma (of the underlying normal).
    #[inline]
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * self.normal(0.0, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Forward partial Fisher–Yates: afterwards `items[..amount]` is a
    /// uniform random sample of `items` in random order, drawn with
    /// `amount` index draws instead of the `len − 1` of [`Self::shuffle`].
    /// The rest of the slice holds the unsampled items in no useful order.
    /// Panics if `amount > items.len()`.
    pub fn partial_shuffle<T>(&mut self, items: &mut [T], amount: usize) {
        assert!(
            amount <= items.len(),
            "cannot sample {amount} of {}",
            items.len()
        );
        for i in 0..amount {
            let j = i + self.index(items.len() - i);
            items.swap(i, j);
        }
    }

    /// A uniformly random derangement-ish pairing used by mpiGraph-style
    /// benchmarks: returns a permutation of `0..n` with no fixed points
    /// (no endpoint sends to itself). Uses repeated shuffle-and-fix.
    pub fn pairing(&mut self, n: usize) -> Vec<usize> {
        assert!(n >= 2, "pairing needs at least two endpoints");
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            self.shuffle(&mut perm);
            if perm.iter().enumerate().all(|(i, &p)| i != p) {
                return perm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_block_matches_the_rfc_7539_zero_key_vector() {
        // RFC 7539 appendix A.1, test vector 1: all-zero key, nonce and
        // counter (the 96-bit and 64-bit nonce layouts agree at zero).
        let expected = [
            0xade0b876, 0x903df1a0, 0xe56a5d40, 0x28bd8653, 0xb819d2bd, 0x1aed8da0, 0xccef36a8,
            0xc70d778b, 0x7c5941da, 0x8d485751, 0x3fe02477, 0x374ad8b8, 0xf4b8436a, 0x1ca11815,
            0x69b687c3, 0x8665eeb2,
        ];
        assert_eq!(block(&[0; 8], 0, 20), expected);
    }

    #[test]
    fn chacha8_zero_seed_first_words() {
        // ChaCha8 keystream for the all-zero 256-bit key and IV
        // (3e00ef2f895f40d6...), read as little-endian words.
        let mut rng = ChaCha8::from_seed([0; 32]);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(first, [0x2fef003e, 0xd6405f89, 0xe8b85b7f, 0xa1a5091f]);
    }

    #[test]
    fn words_continue_across_blocks_and_u64_reads_low_word_first() {
        let mut a = ChaCha8::from_seed([7; 32]);
        let mut b = a.clone();
        let words: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let pairs: Vec<u64> = (0..20).map(|_| b.next_u64()).collect();
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(
                *p,
                u64::from(words[2 * i]) | u64::from(words[2 * i + 1]) << 32
            );
        }
        assert_eq!(words[16..32], block(&a.key, 1, 8));
        // One odd word first: the 8th u64 straddles the block boundary,
        // taking word 15 of block 0 low and word 0 of block 1 high.
        let mut c = ChaCha8::from_seed([7; 32]);
        c.next_u32();
        let straddle = (0..8).map(|_| c.next_u64()).last();
        assert_eq!(
            straddle,
            Some(u64::from(words[15]) | u64::from(words[16]) << 32)
        );
    }

    #[test]
    fn unit_f64_uses_the_top_53_bits() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(u64::MAX), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(unit_f64(1 << 63), 0.5);
        assert_eq!(unit_f64((1 << 11) - 1), 0.0, "the low 11 bits are dropped");
    }

    #[test]
    fn in_range_maps_the_high_product_and_rejects_above_the_zone() {
        // range 3: zone = (3 << 62) - 1. A draw of u64::MAX has low half
        // 2^64 - 3 > zone and is rejected; 2^63 maps to floor(3/2) = 1.
        let mut words = vec![u64::MAX, 1 << 63].into_iter();
        assert_eq!(in_range(10, 13, || words.next().unwrap()), 11);
        assert!(words.next().is_none(), "one rejection, one accepted draw");
        assert_eq!(in_range(5, 6, || 0), 5);
    }

    /// The first draws of one fixed stream, as `rand` 0.8 over
    /// `rand_chacha` 0.3 made them. Any change to the generator or a
    /// sampler moves every experiment's numbers, so it must fail here
    /// first.
    #[test]
    fn pinned_draws() {
        let stream = || StreamRng::for_component(0xF30, "pinned", 3);
        let mut r = stream();
        let u: Vec<u64> = (0..4).map(|_| r.uniform().to_bits()).collect();
        assert_eq!(
            u,
            [
                4604774607642340955,
                4603106857012206344,
                4603398135231859743,
                4600212392036182978
            ]
        );
        let mut r = stream();
        let idx: Vec<usize> = (0..6).map(|_| r.index(10)).collect();
        assert_eq!(idx, [7, 5, 4, 3, 7, 6]);
        let mut r = stream();
        let ints: Vec<u64> = (0..4).map(|_| r.int_range(1000, 1_000_000_007)).collect();
        assert_eq!(ints, [732679533, 547522202, 579860549, 363086429]);
        assert_eq!(stream().pairing(8), [3, 0, 5, 1, 6, 2, 7, 4]);
        let partial = |amount| {
            let mut v: Vec<u32> = (0..8).collect();
            stream().partial_shuffle(&mut v, amount);
            v
        };
        assert_eq!(partial(3), [4, 5, 0, 3, 2, 1, 6, 7]);
        assert_eq!(partial(8), [4, 5, 0, 7, 1, 3, 6, 2]);
        let mut r = StreamRng::from_seed(0);
        let words: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                2539797294412784746,
                1973130684646401218,
                6593811481433880900
            ]
        );
    }

    #[test]
    fn reproducible() {
        let mut a = StreamRng::for_component(1, "x", 0);
        let mut b = StreamRng::for_component(1, "x", 0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn independent_components_differ() {
        let a = StreamRng::for_component(1, "x", 0).next_u64();
        let b = StreamRng::for_component(1, "x", 1).next_u64();
        let c = StreamRng::for_component(1, "y", 0).next_u64();
        let d = StreamRng::for_component(2, "x", 0).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = StreamRng::from_seed(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = StreamRng::from_seed(11);
        let rate = 4.0;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "exponential mean {mean} too far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = StreamRng::from_seed(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn pairing_has_no_fixed_points_and_is_permutation() {
        let mut rng = StreamRng::from_seed(17);
        for n in [2usize, 3, 8, 129] {
            let p = rng.pairing(n);
            assert_eq!(p.len(), n);
            let mut seen = vec![false; n];
            for (i, &t) in p.iter().enumerate() {
                assert_ne!(i, t, "fixed point at {i} for n={n}");
                assert!(!seen[t]);
                seen[t] = true;
            }
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = StreamRng::from_seed(19);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn partial_shuffle_is_a_permutation_whose_prefix_follows_the_draws() {
        crate::check::cases(64, |g| {
            let len = g.range(0usize..40);
            let amount = g.range(0..len + 1);
            let seed = g.range(0u64..u64::MAX);
            let mut v: Vec<usize> = (0..len).collect();
            let mut r = StreamRng::from_seed(seed);
            r.partial_shuffle(&mut v, amount);

            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..len).collect::<Vec<_>>());

            // The prefix by hand: item i of the sample is drawn from the
            // `len - i` items not yet taken, in their current order.
            let mut rest: Vec<usize> = (0..len).collect();
            let mut by_hand = StreamRng::from_seed(seed);
            for (i, &picked) in v[..amount].iter().enumerate() {
                let j = i + by_hand.index(len - i);
                rest.swap(i, j);
                assert_eq!(picked, rest[i]);
            }
            assert_eq!(r.next_u64(), by_hand.next_u64(), "stream position");
        });
    }

    #[test]
    fn partial_shuffle_samples_each_item_at_rate_amount_over_n() {
        let (n, amount, seeds) = (10usize, 3usize, 20_000u64);
        let mut hits = vec![0u32; n];
        for seed in 0..seeds {
            let mut v: Vec<usize> = (0..n).collect();
            StreamRng::for_component(seed, "partial", 0).partial_shuffle(&mut v, amount);
            for &x in &v[..amount] {
                hits[x] += 1;
            }
        }
        let expect = seeds as f64 * amount as f64 / n as f64;
        for (x, &h) in hits.iter().enumerate() {
            let dev = (f64::from(h) - expect).abs() / expect;
            assert!(dev < 0.05, "item {x} sampled {h} times, expected {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn partial_shuffle_rejects_an_amount_past_the_end() {
        StreamRng::from_seed(1).partial_shuffle(&mut [1, 2], 3);
    }

    #[test]
    fn log_normal_median_close() {
        let mut rng = StreamRng::from_seed(23);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.log_normal(5.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median {median}");
    }
}
