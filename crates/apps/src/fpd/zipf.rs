//! Synthetic microblog transaction generator.
//!
//! The paper evaluates FPD on a proprietary crawl of 28.7M tweets. We
//! substitute a Zipf-distributed item generator: word frequencies in
//! microblog text are famously heavy-tailed, and the Zipf exponent controls
//! exactly the property that stresses the miner — how often the same
//! itemsets co-occur, and therefore how many candidates turn frequent.

use rand::Rng;

use super::mfp::{Item, Itemset};

/// Zipf-distributed item sampler over the universe `0..universe`.
///
/// Sampling uses the inverse-CDF over precomputed cumulative weights
/// (`O(log n)` per draw).
///
/// # Examples
///
/// ```
/// use drs_apps::fpd::zipf::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let z = ZipfSampler::new(1000, 1.2);
/// let mut rng = StdRng::seed_from_u64(5);
/// let item = z.sample(&mut rng);
/// assert!(item < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `universe` items with the given exponent
    /// (`s = 1.0` is classic Zipf; larger is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or `exponent` is not finite and positive.
    pub fn new(universe: u32, exponent: f64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "exponent must be positive"
        );
        let mut cumulative = Vec::with_capacity(universe as usize);
        let mut acc = 0.0;
        for rank in 1..=universe {
            acc += 1.0 / f64::from(rank).powf(exponent);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    /// Draws one item; item `0` is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Item {
        let total = *self.cumulative.last().expect("non-empty universe");
        let u: f64 = rng.gen::<f64>() * total;
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite weights"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1) as Item,
        }
    }
}

/// Generates tweet-like transactions: item counts uniform in
/// `[min_items, max_items]`, items Zipf-distributed (duplicates collapse via
/// canonicalisation, mirroring repeated words in a tweet).
#[derive(Debug, Clone)]
pub struct TransactionGenerator {
    sampler: ZipfSampler,
    min_items: usize,
    max_items: usize,
}

impl TransactionGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `min_items == 0` or `min_items > max_items`.
    pub fn new(sampler: ZipfSampler, min_items: usize, max_items: usize) -> Self {
        assert!(min_items > 0, "transactions need at least one item");
        assert!(min_items <= max_items, "min_items must be <= max_items");
        TransactionGenerator {
            sampler,
            min_items,
            max_items,
        }
    }

    /// Draws one transaction.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Itemset {
        let n = rng.gen_range(self.min_items..=self.max_items);
        (0..n).map(|_| self.sampler.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_universe() {
        let z = ZipfSampler::new(50, 1.1);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn zipf_is_head_heavy() {
        let z = ZipfSampler::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1.2 over 1000 items, the top-10 mass is large (> 40%).
        assert!(head > n * 2 / 5, "head mass {head}/{n}");
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let head_mass = |s: f64, rng: &mut StdRng| {
            let z = ZipfSampler::new(200, s);
            (0..50_000).filter(|_| z.sample(rng) == 0).count()
        };
        let mild = head_mass(0.8, &mut rng);
        let steep = head_mass(2.0, &mut rng);
        assert!(steep > mild, "steep {steep} <= mild {mild}");
    }

    #[test]
    fn transactions_have_bounded_size() {
        let g = TransactionGenerator::new(ZipfSampler::new(100, 1.0), 2, 5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let t = g.generate(&mut rng);
            // Canonicalisation may deduplicate below min_items, never above
            // max.
            assert!(!t.is_empty() && t.len() <= 5, "{t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "universe must be non-empty")]
    fn zero_universe_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "min_items")]
    fn bad_bounds_panic() {
        let _ = TransactionGenerator::new(ZipfSampler::new(10, 1.0), 3, 2);
    }
}
