//! Deterministic randomness.
//!
//! Every random choice in a simulation — latency samples, message loss,
//! workload keys — flows from a single [`SimRng`] seeded at construction.
//! [`SimRng::fork`] derives independent child streams so that, e.g., the
//! workload generator and the network can be reseeded independently without
//! perturbing each other's sequences when one of them changes.

/// "expand 32-byte k", the ChaCha constant words.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Consecutive blocks computed side by side per refill.
const LANES: usize = 4;
/// Words per refill: [`LANES`] blocks, one after another.
const BUF_WORDS: usize = BLOCK_WORDS * LANES;

/// A seeded, forkable random number generator.
///
/// A ChaCha8 block function (4 constant words, 8 key words, a 64-bit
/// block counter and a 64-bit stream id): fast, portable, and stable
/// across platforms and rustc versions. Stability matters because
/// `EXPERIMENTS.md`, the golden traces and the checked-in results record
/// concrete numbers for given seeds; `rng::tests::known_answers` pins the
/// stream.
///
/// A refill computes four consecutive blocks, counters `c … c + 3`, as
/// four lanes of one state, and the generator hands their 64 words out
/// in block order: the stream is word for word that of one block per
/// refill, only computed four blocks at a time.
#[derive(Debug, Clone)]
pub struct SimRng {
    key: [u32; 8],
    /// Block counter (words 12–13 of the ChaCha state) of the first
    /// block after `buf`.
    counter: u64,
    /// Stream id (words 14–15); [`SimRng::fork`] selects another one
    /// under the same key.
    stream: u64,
    /// The [`LANES`] blocks before `counter`, in block order.
    buf: [u32; BUF_WORDS],
    /// Next unread word in `buf`; [`BUF_WORDS`] means "buffer exhausted".
    idx: usize,
}

/// One state word of each of the [`LANES`] blocks of a refill.
type Row = [u32; LANES];

/// One ChaCha quarter round, lane by lane. LLVM keeps the rounds
/// scalar, four independent lanes interleaved on the integer units; the
/// same rounds written as whole-row operations, or unrolled in full, ran
/// slower and were not vectorised either.
#[inline(always)]
fn quarter_round(state: &mut [Row; 16], a: usize, b: usize, c: usize, d: usize) {
    let [mut ra, mut rb, mut rc, mut rd] = [state[a], state[b], state[c], state[d]];
    for (((a, b), c), d) in ra.iter_mut().zip(&mut rb).zip(&mut rc).zip(&mut rd) {
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(16);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(12);
        *a = a.wrapping_add(*b);
        *d = (*d ^ *a).rotate_left(8);
        *c = c.wrapping_add(*d);
        *b = (*b ^ *c).rotate_left(7);
    }
    [state[a], state[b], state[c], state[d]] = [ra, rb, rc, rd];
}

/// The ChaCha8 blocks `counter … counter + LANES - 1` of `stream`,
/// written to `out` one block after another.
fn chacha8_blocks(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BUF_WORDS]) {
    let mut state: [Row; 16] = [[0; LANES]; 16];
    for (row, &word) in state.iter_mut().zip(CONSTANTS.iter().chain(key)) {
        *row = [word; LANES];
    }
    let counters: [u64; LANES] = std::array::from_fn(|l| counter.wrapping_add(l as u64));
    state[12] = counters.map(|c| c as u32);
    state[13] = counters.map(|c| (c >> 32) as u32);
    state[14] = [stream as u32; LANES];
    state[15] = [(stream >> 32) as u32; LANES];
    let initial = state;
    for _ in 0..4 {
        // Column round.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    // Add the input back row by row, then write each lane out as its
    // block: the row-wise add compiles to one SSE2 `paddd` per row, which
    // adding lane by lane into the block layout did not.
    for (row, init) in state.iter_mut().zip(&initial) {
        for (word, init) in row.iter_mut().zip(init) {
            *word = word.wrapping_add(*init);
        }
    }
    for (l, block) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
        for (word, row) in block.iter_mut().zip(&state) {
            *word = row[l];
        }
    }
}

impl SimRng {
    /// Create a generator from a 64-bit seed, expanded into the 256-bit
    /// key with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u32; 8];
        let mut s = seed;
        for pair in key.chunks_exact_mut(2) {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            pair[0] = z as u32;
            pair[1] = (z >> 32) as u32;
        }
        SimRng::at_block(key, 0, 0)
    }

    /// A generator that starts at block `counter` of `stream`.
    fn at_block(key: [u32; 8], counter: u64, stream: u64) -> Self {
        SimRng { key, counter, stream, buf: [0; BUF_WORDS], idx: BUF_WORDS }
    }

    /// Derive an independent child stream.
    ///
    /// The child shares the parent's key under stream id `stream + 1`
    /// (stream 0 is the parent's) and starts at a fresh block: the first
    /// one its parent has not drawn a word from, that is the parent's
    /// starting block plus ⌈words drawn / 16⌉. Forks with distinct ids
    /// are statistically independent and reproducible, and a fork
    /// depends on how many blocks its parent has drawn from, not on where
    /// it is inside the current one, nor on how many blocks one refill
    /// computes.
    pub fn fork(&self, stream: u64) -> SimRng {
        let untouched = ((BUF_WORDS - self.idx) / BLOCK_WORDS) as u64;
        SimRng::at_block(self.key, self.counter.wrapping_sub(untouched), stream.wrapping_add(1))
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        chacha8_blocks(&self.key, self.counter, self.stream, &mut self.buf);
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// The next 64 random bits: two words of the block, low word first.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Uniform in `[0, span)` by 128-bit widening multiply, without a
    /// rejection step: each outcome's probability is off by less than
    /// 2⁻⁶⁴, and every draw takes exactly one word.
    fn uniform_below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with bound 0");
        self.uniform_below(bound)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range called with empty range");
        lo + self.uniform_below(hi - lo)
    }

    /// Uniform float in `[0, 1)`: 53 random mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Standard normal sample via the Box–Muller transform: two
    /// [`SimRng::unit`] draws, the second value discarded.
    pub fn std_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample with the given median and shape `sigma`.
    ///
    /// `median` is the 50th percentile of the resulting distribution (the
    /// underlying normal has `mu = ln(median)`).
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        self.log_normal_from_mu(Self::ln_median(median), sigma)
    }

    /// `mu = ln(median)` of the log-normal with the given median: the
    /// part of [`SimRng::log_normal`] that draws nothing, for callers
    /// that sample one distribution many times.
    pub fn ln_median(median: f64) -> f64 {
        median.max(f64::MIN_POSITIVE).ln()
    }

    /// Log-normal sample given the underlying normal's `mu` (see
    /// [`SimRng::ln_median`]) and shape `sigma`; the same two draws and
    /// the same arithmetic as [`SimRng::log_normal`].
    pub fn log_normal_from_mu(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "SimRng::index called with empty slice length");
        self.uniform_below(len as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as it was written first, one ChaCha8 block per
    /// refill: the reference the four-lane refill is held to.
    struct OneBlock {
        key: [u32; 8],
        counter: u64,
        stream: u64,
        buf: [u32; 16],
        idx: usize,
    }

    fn chacha8_block(key: &[u32; 8], counter: u64, stream: u64) -> [u32; 16] {
        fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            state[a] = state[a].wrapping_add(state[b]);
            state[d] = (state[d] ^ state[a]).rotate_left(16);
            state[c] = state[c].wrapping_add(state[d]);
            state[b] = (state[b] ^ state[c]).rotate_left(12);
            state[a] = state[a].wrapping_add(state[b]);
            state[d] = (state[d] ^ state[a]).rotate_left(8);
            state[c] = state[c].wrapping_add(state[d]);
            state[b] = (state[b] ^ state[c]).rotate_left(7);
        }
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        state[14] = stream as u32;
        state[15] = (stream >> 32) as u32;
        let initial = state;
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial.iter()) {
            *word = word.wrapping_add(*init);
        }
        state
    }

    impl OneBlock {
        /// The stream `seed` starts, at block 0 of stream 0.
        fn new(seed: u64) -> Self {
            OneBlock::at(SimRng::new(seed).key, 0, 0)
        }

        fn at(key: [u32; 8], counter: u64, stream: u64) -> Self {
            OneBlock { key, counter, stream, buf: [0; 16], idx: 16 }
        }

        fn next_u32(&mut self) -> u32 {
            if self.idx == 16 {
                self.buf = chacha8_block(&self.key, self.counter, self.stream);
                self.counter = self.counter.wrapping_add(1);
                self.idx = 0;
            }
            self.idx += 1;
            self.buf[self.idx - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32() as u64;
            (self.next_u32() as u64) << 32 | lo
        }

        fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn std_normal(&mut self) -> f64 {
            let u1 = 1.0 - self.unit();
            let u2 = self.unit();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        }
    }

    /// Every draw of the four-lane generator equals the one-block
    /// reference's, over 64 seeds and several refills of mixed draws, and
    /// a fork at every word offset of the first refill and a half starts
    /// at the reference's block ⌈words drawn / 16⌉ under stream id + 1.
    #[test]
    fn four_lane_refills_draw_the_one_block_stream() {
        for seed in 0..64u64 {
            let mut fast = SimRng::new(seed);
            let mut slow = OneBlock::new(seed);
            let mut words = 0;
            let mut op = seed;
            while words < 4 * BUF_WORDS {
                op = op.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let (a, b) = match (op >> 33) % 5 {
                    0 => (fast.next_u32() as u64, slow.next_u32() as u64),
                    1 => (fast.next_u64(), slow.next_u64()),
                    2 => (fast.below(1 + op % 1000), slow.below(1 + op % 1000)),
                    3 => (fast.unit().to_bits(), slow.unit().to_bits()),
                    _ => (fast.std_normal().to_bits(), slow.std_normal().to_bits()),
                };
                assert_eq!(a, b, "seed {seed}, after {words} words");
                words = (slow.counter as usize - 1) * 16 + slow.idx;
            }

            for drawn in 0..=96usize {
                let mut parent = SimRng::new(seed);
                for _ in 0..drawn {
                    parent.next_u32();
                }
                let mut child = parent.fork(seed);
                let key = SimRng::new(seed).key;
                let mut reference = OneBlock::at(key, drawn.div_ceil(16) as u64, seed + 1);
                for i in 0..BUF_WORDS + 16 {
                    assert_eq!(
                        child.next_u32(),
                        reference.next_u32(),
                        "seed {seed}: fork after {drawn} words, child word {i}"
                    );
                }
            }
        }
    }

    /// The stream itself, recorded before the generator moved into this
    /// file: any change to the block function, the seed expansion, the
    /// fork rule or a reduction shows here first.
    #[test]
    fn known_answers() {
        let mut r = SimRng::new(0);
        let words: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xbf94_d133_2d8e_e5e8,
                0x3a73_8775_a6da_5a01,
                0x3d46_ff10_c143_ee06,
                0x17c6_ab23_e9f6_424f,
                0x5ce2_479b_2fb6_898b,
                0x0ae8_099f_86bf_f662,
                0x5f2f_09fd_c72f_90bd,
                0x95d5_3efa_28e5_a01f,
            ]
        );

        let mut parent = SimRng::new(42);
        for _ in 0..5 {
            parent.next_u64();
        }
        let mut child = parent.fork(3);
        let words: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xbb8a_9dca_c221_8697,
                0x1d33_ca43_6442_a91b,
                0xf015_e100_3b39_5408,
                0x58e7_3db5_5606_c7c7,
                0x5a7c_a03d_943f_315b,
                0x67c4_d568_5dca_4798,
                0xefc0_fc7e_d4e7_39c0,
                0x29be_7206_fe08_1007,
            ]
        );

        let mut r = SimRng::new(7);
        let below: Vec<u64> = (0..4).map(|_| r.below(1000)).collect();
        assert_eq!(below, [400, 774, 507, 67]);
        assert_eq!([r.range(10, 20), r.range(10, 20)], [15, 12]);
        assert_eq!(r.unit().to_bits(), 0x3fe4_ea56_8ec6_a3f0);
        assert_eq!(r.std_normal().to_bits(), 0xbfd5_ac1e_4483_5127);
        let mut xs: Vec<u32> = (0..10).collect();
        r.shuffle(&mut xs);
        assert_eq!(xs, [8, 3, 7, 6, 2, 5, 9, 0, 1, 4]);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let mut c1_again = parent.fork(1);
        let s1: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        let s1_again: Vec<u64> = (0..16).map(|_| c1_again.next_u64()).collect();
        assert_eq!(s1, s1_again);
        assert_ne!(s1, s2);
    }

    /// A fork drawn from the same key and block counter never replays
    /// its parent's words.
    #[test]
    fn streams_diverge() {
        let base = SimRng::new(7);
        let mut parent = base.clone();
        let mut child = base.fork(0);
        let a: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn output_is_balanced() {
        // Cheap sanity check on the block function: bit frequency ~50%.
        let mut r = SimRng::new(3);
        let ones: u32 = (0..1000).map(|_| r.next_u64().count_ones()).sum();
        let frac = ones as f64 / (1000.0 * 64.0);
        assert!((frac - 0.5).abs() < 0.02, "bit frequency {frac}");
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = SimRng::new(13);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| r.log_normal(10.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 10.0).abs() < 0.5, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(19);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(xs, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }
}
