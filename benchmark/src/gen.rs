//! The benchmark's own input generator: a seeded xorshift, a bounded Zipf
//! sampler and the per-mutator operation stream. The program under test only
//! ever sees the generated keys; the same `(seed, stream)` pair always yields
//! the same operations.

/// xorshift64* (Vigna). The state is never zero: seeds go through one round
/// of splitmix64 first, which also decorrelates neighbouring seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-40 for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bounded Zipf over ranks `0..n` with skew `theta` in `(0, 1)`, after Gray
/// et al. (SIGMOD '94): rank `r` has probability proportional to
/// `1/(r+1)^theta`; one sample costs one `powf`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "Zipf needs n >= 2 and 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Probability of rank `r`.
    #[cfg(test)]
    pub fn mass(&self, r: u64) -> f64 {
        ((r + 1) as f64).powf(-self.theta) / self.zetan
    }

    #[inline]
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One generated operation. Scans cover `[lo, lo + width - 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Contains(u64),
    Insert(u64),
    Delete(u64),
    Move(u64, u64),
    Scan(u64),
}

impl Op {
    /// The same operation with its point keys moved into residue class
    /// `class` modulo `classes` (a power of two dividing `key_range`), so
    /// that concurrent pre-check sessions own disjoint keys. A scan keeps its
    /// range; its caller filters the result.
    pub fn confined(self, classes: u64, class: u64, key_range: u64) -> Op {
        let fit = |key: u64| (key & !(classes - 1)) | class;
        match self {
            Op::Contains(k) => Op::Contains(fit(k)),
            Op::Insert(k) => Op::Insert(fit(k)),
            Op::Delete(k) => Op::Delete(fit(k)),
            Op::Move(from, to) => {
                let (from, to) = (fit(from), fit(to));
                if from == to {
                    Op::Move(from, (to + classes) & (key_range - 1))
                } else {
                    Op::Move(from, to)
                }
            }
            Op::Scan(lo) => Op::Scan(lo),
        }
    }
}

/// The value every insert stores under `key` (moves carry it elsewhere, so
/// the oracle tracks values, not just membership).
pub fn value_for(key: u64) -> u64 {
    key ^ 0x5555_5555
}

/// The operation mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Keys are drawn from `[0, key_range)`; a power of two.
    pub key_range: u64,
    /// `Some(theta)`: point keys are scrambled-Zipf; `None`: uniform.
    pub theta: Option<f64>,
    /// Attempted updates per thousand operations.
    pub update_pm: u64,
    /// Half of the attempted updates are `move_entry` (the rest alternate
    /// insert/delete).
    pub moves: bool,
    /// Range scans per thousand operations.
    pub scan_pm: u64,
    /// Keys covered by one scan.
    pub scan_width: u64,
}

/// Which of a round's independent streams a generator produces.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Precheck,
    Warmup,
    Measured,
    Populate,
}

/// Seed of the stream `(round, mutator, phase)` of a run seeded `seed`. The
/// stream number is spread over all 64 bits before it meets the seed, so
/// neighbouring seeds (the driver's `n, n+1, ...`) never share a stream:
/// `seed + round` would give seed `s` round 1 the inputs of seed `s+1`
/// round 0.
fn stream_seed(seed: u64, round: u64, mutator: u64, phase: Phase) -> u64 {
    let stream = (round << 16) | (mutator << 4) | phase as u64;
    seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// The operation stream of one mutator in one phase of one round.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    mix: Mix,
    zipf: Option<Zipf>,
    next_is_insert: bool,
}

impl OpGen {
    pub fn new(mix: Mix, seed: u64, round: u64, mutator: u64, phase: Phase) -> OpGen {
        assert!(mix.key_range.is_power_of_two() && mix.key_range > mix.scan_width);
        OpGen {
            rng: Rng::new(stream_seed(seed, round, mutator, phase)),
            mix,
            zipf: mix.theta.map(|theta| Zipf::new(mix.key_range, theta)),
            next_is_insert: mutator.is_multiple_of(2),
        }
    }

    /// A point key: uniform, or a Zipf rank scattered over the key space by
    /// an odd multiplier (a bijection modulo a power of two), so hot keys are
    /// not neighbours in the tree.
    #[inline]
    fn key(&mut self) -> u64 {
        match &self.zipf {
            None => self.rng.below(self.mix.key_range),
            Some(zipf) => {
                zipf.rank(&mut self.rng).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    & (self.mix.key_range - 1)
            }
        }
    }

    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Op {
        let slot = self.rng.below(1000);
        if slot < self.mix.scan_pm {
            return Op::Scan(self.rng.below(self.mix.key_range - self.mix.scan_width));
        }
        if slot >= self.mix.scan_pm + self.mix.update_pm {
            return Op::Contains(self.key());
        }
        if self.mix.moves && self.rng.below(2) == 0 {
            let from = self.key();
            let to = (from + 1 + self.rng.below(self.mix.key_range - 1)) & (self.mix.key_range - 1);
            return Op::Move(from, to);
        }
        // Inserts and deletes alternate with independently drawn keys, so the
        // expected set size stays at the initial size.
        self.next_is_insert = !self.next_is_insert;
        if self.next_is_insert {
            Op::Insert(self.key())
        } else {
            Op::Delete(self.key())
        }
    }
}

/// `count` distinct keys drawn uniformly from `[0, key_range)`, in draw
/// order: the initial contents of the fresh instance of round `round`.
pub fn initial_keys(seed: u64, round: u64, key_range: u64, count: u64) -> Vec<u64> {
    assert!(count <= key_range);
    let mut rng = Rng::new(stream_seed(seed, round, 0, Phase::Populate));
    let mut taken = vec![false; key_range as usize];
    let mut keys = Vec::with_capacity(count as usize);
    while (keys.len() as u64) < count {
        let key = rng.below(key_range);
        if !std::mem::replace(&mut taken[key as usize], true) {
            keys.push(key);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    const SKEW: Mix = Mix {
        key_range: 1 << 13,
        theta: Some(0.99),
        update_pm: 200,
        moves: true,
        scan_pm: 10,
        scan_width: 100,
    };

    fn stream_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut gen = OpGen::new(SKEW, seed, 3, 1, Phase::Measured);
        (0..n)
            .flat_map(|_| format!("{:?};", gen.next()).into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_another_seed_does_not() {
        assert_eq!(stream_bytes(42, 20_000), stream_bytes(42, 20_000));
        assert_ne!(stream_bytes(42, 20_000), stream_bytes(43, 20_000));
        assert_eq!(
            initial_keys(7, 0, 1 << 12, 2048),
            initial_keys(7, 0, 1 << 12, 2048)
        );
        assert_ne!(
            initial_keys(7, 0, 1 << 12, 2048),
            initial_keys(8, 0, 1 << 12, 2048)
        );
    }

    /// The rounds of neighbouring seeds are independent samples: no
    /// `(seed, round)` pair of a set of runs repeats another's initial keys.
    #[test]
    fn neighbouring_seeds_share_no_round() {
        let mut seen = std::collections::HashSet::new();
        for seed in 100..110 {
            for round in 0..5 {
                assert!(seen.insert(initial_keys(seed, round, 1 << 10, 64)));
            }
        }
    }

    #[test]
    fn zipf_head_mass_matches_the_closed_form() {
        let zipf = Zipf::new(1 << 13, 0.99);
        let mut rng = Rng::new(1);
        let draws = 400_000;
        let mut head = [0u64; 8];
        for _ in 0..draws {
            let r = zipf.rank(&mut rng);
            assert!(r < 1 << 13);
            if r < 8 {
                head[r as usize] += 1;
            }
        }
        // Ranks 0 and 1 are exact in Gray's method; the tail formula is an
        // approximation, so the head as a whole gets a looser tolerance.
        for (r, &count) in head.iter().enumerate().take(2) {
            let seen = count as f64 / draws as f64;
            assert!(
                (seen / zipf.mass(r as u64) - 1.0).abs() < 0.03,
                "rank {r}: {seen}"
            );
        }
        let seen: f64 = head.iter().sum::<u64>() as f64 / draws as f64;
        let expected: f64 = (0..8).map(|r| zipf.mass(r)).sum();
        assert!(
            (seen / expected - 1.0).abs() < 0.10,
            "head mass {seen} vs {expected}"
        );
        assert!(
            expected > 0.25,
            "theta 0.99 over 2^13 keys puts over a quarter of the mass on 8 keys"
        );
    }

    #[test]
    fn confined_operations_stay_in_their_class() {
        let mut gen = OpGen::new(SKEW, 3, 0, 0, Phase::Precheck);
        for _ in 0..50_000 {
            let op = gen.next();
            match op.confined(8, 5, SKEW.key_range) {
                Op::Contains(k) | Op::Insert(k) | Op::Delete(k) => {
                    assert!(k % 8 == 5 && k < SKEW.key_range);
                }
                Op::Move(from, to) => {
                    assert!(from % 8 == 5 && to % 8 == 5 && from != to);
                    assert!(from < SKEW.key_range && to < SKEW.key_range);
                }
                scan => assert_eq!(scan, op),
            }
            assert_eq!(
                op.confined(1, 0, SKEW.key_range),
                op,
                "one class is everything"
            );
        }
    }

    #[test]
    fn mix_shares_and_key_bounds_hold() {
        let mut gen = OpGen::new(SKEW, 9, 0, 0, Phase::Measured);
        let (mut scans, mut updates, mut moves) = (0, 0, 0);
        let n = 200_000;
        for _ in 0..n {
            match gen.next() {
                Op::Scan(lo) => {
                    assert!(lo + SKEW.scan_width <= SKEW.key_range);
                    scans += 1;
                }
                Op::Move(from, to) => {
                    assert!(from != to && from < SKEW.key_range && to < SKEW.key_range);
                    updates += 1;
                    moves += 1;
                }
                Op::Insert(k) | Op::Delete(k) => {
                    assert!(k < SKEW.key_range);
                    updates += 1;
                }
                Op::Contains(k) => assert!(k < SKEW.key_range),
            }
        }
        let share = |count: i32| count as f64 / n as f64;
        assert!((share(scans) - 0.01).abs() < 0.002);
        assert!((share(updates) - 0.20).abs() < 0.005);
        assert!((share(moves) - 0.10).abs() < 0.005);
    }
}
