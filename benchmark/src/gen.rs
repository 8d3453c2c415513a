//! Inputs, all a pure function of `--seed`: corpora, query pools, zipf
//! draws, arrival schedules and committee views. The program under test
//! sees only what is generated here.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// Bell-shaped noise in `(-2·scale, 2·scale)`: the sum of four uniforms.
fn bell(rng: &mut StdRng, scale: f32) -> f32 {
    (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum::<f32>() * 0.5 * scale
}

/// Points around `clusters` centres: row `i` sits near centre
/// `i % clusters`. `centre_scale` against `noise` sets how far the
/// clusters overlap.
pub struct Clustered {
    pub dim: usize,
    clusters: usize,
    noise: f32,
    centres: Vec<f32>,
}

impl Clustered {
    pub fn new(
        dim: usize,
        clusters: usize,
        centre_scale: f32,
        noise: f32,
        rng: &mut StdRng,
    ) -> Self {
        let centres =
            (0..clusters * dim).map(|_| rng.gen_range(-1.0f32..1.0) * centre_scale).collect();
        Clustered { dim, clusters, noise, centres }
    }

    /// `n` packed rows.
    pub fn draw(&self, n: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut out = Vec::with_capacity(n * self.dim);
        for i in 0..n {
            let c = (i % self.clusters) * self.dim;
            out.extend(self.centres[c..c + self.dim].iter().map(|&x| x + bell(rng, self.noise)));
        }
        out
    }
}

/// `rows` with every component moved by bell noise of `scale`.
pub fn jitter(rows: &[f32], scale: f32, rng: &mut StdRng) -> Vec<f32> {
    rows.iter().map(|&x| x + bell(rng, scale)).collect()
}

/// The serving corpus and query pool: queries land near corpus clusters,
/// so every request has near neighbours worth finding. Pool entries are
/// `Arc<[f32]>`, so a repeated query submits the same allocation.
pub fn corpus_and_pool(
    n: usize,
    pool: usize,
    dim: usize,
    seed: u64,
) -> (Vec<f32>, Vec<Arc<[f32]>>) {
    let mut r = rng(seed, 0xC0);
    let shape = Clustered::new(dim, 64, 1.0, 0.05, &mut r);
    let base = shape.draw(n, &mut r);
    let queries = shape.draw(pool, &mut r).chunks(dim).map(Arc::from).collect();
    (base, queries)
}

/// Zipf(s) over `0..n` by inverse CDF: rank `i` is drawn with
/// probability proportional to `1/(i+1)^s`.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        self.cum.partition_point(|&c| c < r).min(self.cum.len() - 1)
    }
}

/// Which pool entry each request asks for.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KeyOrder {
    /// Every entry in turn: no key repeats within `pool` requests.
    Cycle,
    /// Zipf(1.0) draws: a few hot keys dominate.
    Zipf,
}

/// The keys of `count` requests, fixed before the clock starts. `sent`
/// is how many requests earlier phases sent: a cycle resumes where they
/// left off, so no phase re-asks what the one before it just cached.
pub fn keys(
    order: KeyOrder,
    pool: usize,
    count: usize,
    seed: u64,
    stream: u64,
    sent: u64,
) -> Vec<u32> {
    match order {
        KeyOrder::Cycle => (0..count).map(|i| ((sent as usize + i) % pool) as u32).collect(),
        KeyOrder::Zipf => {
            let z = Zipf::new(pool, 1.0);
            let mut r = rng(seed, stream);
            (0..count).map(|_| z.sample(&mut r) as u32).collect()
        }
    }
}

/// Due times, in ns from the phase start, of an open loop at a constant
/// `rate` for `seconds`: request `i` is due at `i / rate`.
pub fn schedule(rate: f64, seconds: f64) -> Vec<u64> {
    let count = (rate * seconds).floor() as usize;
    (0..count).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// One committee member's view of a list: half of the components kept,
/// the others zeroed, as the blocker's random masks do.
pub fn mask(dim: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut m: Vec<f32> = (0..dim).map(|d| if d < dim / 2 { 1.0 } else { 0.0 }).collect();
    m.shuffle(rng);
    m
}

pub fn masked(rows: &[f32], mask: &[f32]) -> Vec<f32> {
    rows.chunks(mask.len()).flat_map(|r| r.iter().zip(mask).map(|(x, w)| x * w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, qa) = corpus_and_pool(100, 8, 16, 3);
        let (b, qb) = corpus_and_pool(100, 8, 16, 3);
        let (c, _) = corpus_and_pool(100, 8, 16, 4);
        assert_eq!(a, b);
        assert!(qa.iter().zip(&qb).all(|(x, y)| x[..] == y[..]));
        assert_ne!(a, c);
        assert_eq!(keys(KeyOrder::Zipf, 64, 500, 3, 1, 0), keys(KeyOrder::Zipf, 64, 500, 3, 1, 9));
        assert_ne!(keys(KeyOrder::Zipf, 64, 500, 3, 1, 0), keys(KeyOrder::Zipf, 64, 500, 4, 1, 0));
    }

    #[test]
    fn zipf_is_skewed_in_range_and_hits_the_expected_head_share() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng(7, 0);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // P(rank 0) = 1/H_100 = 0.1928.
        let head = counts[0] as f64 / 20_000.0;
        assert!((head - 0.1928).abs() < 0.015, "head share {head}");
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn cycle_never_repeats_within_the_pool() {
        let k = keys(KeyOrder::Cycle, 8, 20, 0, 0, 0);
        assert_eq!(&k[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        // The next phase resumes the cycle after the 20 already sent.
        assert_eq!(&keys(KeyOrder::Cycle, 8, 3, 0, 0, 20), &[4, 5, 6]);
    }

    #[test]
    fn schedule_is_evenly_spaced_at_the_rate() {
        let s = schedule(2000.0, 1.5);
        assert_eq!(s.len(), 3000);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 500_000);
        assert_eq!(s[2999], 2999 * 500_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(schedule(10.0, 0.0).is_empty());
    }

    #[test]
    fn masks_keep_exactly_half() {
        let m = mask(64, &mut rng(1, 2));
        assert_eq!(m.iter().filter(|&&x| x == 1.0).count(), 32);
        assert_eq!(masked(&[1.0, 2.0, 3.0, 4.0], &[1.0, 0.0]), vec![1.0, 0.0, 3.0, 0.0]);
    }
}
