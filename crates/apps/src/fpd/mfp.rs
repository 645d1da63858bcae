//! Maximal frequent pattern (MFP) mining over a sliding window.
//!
//! The paper's FPD application maintains, over a sliding window of
//! microblog "transactions" (tweets reduced to item sets), the set of
//! *maximal frequent patterns*: itemsets whose occurrence count meets a
//! threshold while no strict superset does (paper §V-A, citing MAFIA,
//! Burdick et al., ICDE 2001).
//!
//! This module implements the real data structure:
//!
//! * a bounded sliding window of transactions, producing `+` (enter) and
//!   `−` (leave) events;
//! * occurrence counts for every non-empty subset of each transaction
//!   (transactions are short — tweets have few distinct terms — so subset
//!   enumeration is the honest cost model the paper describes as
//!   "an exponential number of possible non-empty combinations");
//! * incremental maximal-frequent bookkeeping with *state-change
//!   notifications*, the events the paper feeds back through the detector's
//!   loop edge.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

/// An item identifier (e.g. an interned word of a tweet).
pub(crate) type Item = u32;

/// A canonical itemset: sorted, deduplicated items.
///
/// # Examples
///
/// ```
/// use drs_apps::fpd::mfp::Itemset;
///
/// let a = Itemset::new(vec![3, 1, 2, 1]);
/// assert_eq!(a.items(), &[1, 2, 3]);
/// assert!(a.is_subset_of(&Itemset::new(vec![0, 1, 2, 3])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Itemset {
    items: Vec<Item>,
}

impl Itemset {
    /// Creates a canonical itemset from arbitrary items (sorted, deduped).
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        Itemset { items }
    }

    /// The items in ascending order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `self ⊆ other` (both canonical, so a linear merge suffices).
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        let mut it = other.items.iter();
        'outer: for x in &self.items {
            for y in it.by_ref() {
                match y.cmp(x) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// All non-empty subsets of this itemset. The count is `2^n − 1`;
    /// callers must keep transactions short (see
    /// [`MinerConfig::max_transaction_items`]).
    pub(crate) fn non_empty_subsets(&self) -> Vec<Itemset> {
        let n = self.items.len();
        let mut out = Vec::with_capacity((1usize << n) - 1);
        for mask in 1u32..(1u32 << n) {
            let subset: Vec<Item> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| self.items[i])
                .collect();
            out.push(Itemset { items: subset });
        }
        out
    }

    /// The immediate subsets (each obtained by removing exactly one item).
    pub(crate) fn immediate_subsets(&self) -> Vec<Itemset> {
        (0..self.items.len())
            .map(|skip| {
                let items = self
                    .items
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &x)| (i != skip).then_some(x))
                    .collect();
                Itemset { items }
            })
            .collect()
    }
}

impl FromIterator<Item> for Itemset {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Itemset::new(iter.into_iter().collect())
    }
}

/// A change of maximal-frequent status, produced when window updates flip an
/// itemset's state. These are the notifications the FPD detector sends to
/// the reporter and loops back to its own instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateChange {
    /// The itemset became a maximal frequent pattern.
    BecameMaximal(Itemset),
    /// The itemset stopped being a maximal frequent pattern.
    NoLongerMaximal(Itemset),
}

impl StateChange {
    /// The itemset whose state changed.
    pub(crate) fn itemset(&self) -> &Itemset {
        match self {
            StateChange::BecameMaximal(s) | StateChange::NoLongerMaximal(s) => s,
        }
    }
}

/// Configuration of the miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinerConfig {
    /// Window capacity in transactions (the paper uses 50 000 tweets).
    pub window_size: usize,
    /// Frequency threshold: an itemset is frequent when its occurrence
    /// count is `>= threshold`.
    pub threshold: u32,
    /// Transactions are truncated to this many items before subset
    /// enumeration, bounding the `2^n` candidate blow-up.
    pub max_transaction_items: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            window_size: 50_000,
            threshold: 50,
            max_transaction_items: 8,
        }
    }
}

/// Sliding-window maximal-frequent-pattern miner.
///
/// # Examples
///
/// ```
/// use drs_apps::fpd::mfp::{Itemset, MinerConfig, SlidingWindowMiner};
///
/// let mut miner = SlidingWindowMiner::new(MinerConfig {
///     window_size: 100,
///     threshold: 2,
///     max_transaction_items: 4,
/// });
/// miner.insert(Itemset::new(vec![1, 2]));
/// miner.insert(Itemset::new(vec![1, 2, 3]));
/// // {1,2} occurs twice => frequent; {1,2,3} occurs once.
/// let mfps = miner.maximal_frequent();
/// assert_eq!(mfps, vec![Itemset::new(vec![1, 2])]);
/// ```
#[derive(Debug)]
pub struct SlidingWindowMiner {
    config: MinerConfig,
    window: VecDeque<Itemset>,
    counts: HashMap<Itemset, u32>,
    /// Current frequent itemsets (count >= threshold).
    frequent: HashSet<Itemset>,
    /// Current maximal frequent itemsets.
    maximal: HashSet<Itemset>,
    /// Total candidate (subset) updates processed — the workload measure
    /// that drives the pattern-generator operator's cost.
    candidate_updates: u64,
}

impl SlidingWindowMiner {
    /// Creates an empty miner.
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`, `threshold == 0`, or
    /// `max_transaction_items` is 0 or above 16 (subset enumeration would
    /// exceed 65 535 candidates per transaction).
    pub fn new(config: MinerConfig) -> Self {
        assert!(config.window_size > 0, "window size must be positive");
        assert!(config.threshold > 0, "threshold must be positive");
        assert!(
            (1..=16).contains(&config.max_transaction_items),
            "max_transaction_items must be in 1..=16"
        );
        SlidingWindowMiner {
            config,
            window: VecDeque::with_capacity(config.window_size),
            counts: HashMap::new(),
            frequent: HashSet::new(),
            maximal: HashSet::new(),
            candidate_updates: 0,
        }
    }

    /// Transactions currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Number of distinct candidate itemsets currently counted.
    pub fn candidate_count(&self) -> usize {
        self.counts.len()
    }

    /// Cumulative subset-count updates performed (workload proxy).
    pub fn candidate_updates(&self) -> u64 {
        self.candidate_updates
    }

    /// Occurrence count of an itemset in the current window.
    pub fn occurrence_count(&self, itemset: &Itemset) -> u32 {
        self.counts.get(itemset).copied().unwrap_or(0)
    }

    /// Whether the itemset is currently frequent.
    #[cfg(test)]
    pub(crate) fn is_frequent(&self, itemset: &Itemset) -> bool {
        self.frequent.contains(itemset)
    }

    /// The current maximal frequent patterns, sorted for determinism.
    pub fn maximal_frequent(&self) -> Vec<Itemset> {
        let mut v: Vec<Itemset> = self.maximal.iter().cloned().collect();
        v.sort();
        v
    }

    /// Inserts a transaction; if the window is full the oldest transaction
    /// leaves first (one `+` event may therefore imply one `−` event, like
    /// the paper's paired spouts). Returns all state-change notifications.
    pub fn insert(&mut self, transaction: Itemset) -> Vec<StateChange> {
        let mut changes = Vec::new();
        if self.window.len() == self.config.window_size {
            let oldest = self.window.pop_front().expect("window is full");
            changes.extend(self.apply(&oldest, -1));
        }
        let truncated = self.truncate(transaction);
        changes.extend(self.apply(&truncated, 1));
        self.window.push_back(truncated);
        changes
    }

    /// Removes the oldest transaction explicitly (an isolated `−` event).
    /// Returns notifications, or an empty vector when the window is empty.
    pub fn evict_oldest(&mut self) -> Vec<StateChange> {
        match self.window.pop_front() {
            Some(oldest) => self.apply(&oldest, -1),
            None => Vec::new(),
        }
    }

    fn truncate(&self, transaction: Itemset) -> Itemset {
        if transaction.len() <= self.config.max_transaction_items {
            transaction
        } else {
            Itemset {
                items: transaction.items[..self.config.max_transaction_items].to_vec(),
            }
        }
    }

    /// Applies a +1/−1 count delta for every subset of `transaction`, then
    /// refreshes frequent/maximal state for the affected itemsets.
    fn apply(&mut self, transaction: &Itemset, delta: i32) -> Vec<StateChange> {
        let subsets = transaction.non_empty_subsets();
        self.candidate_updates += subsets.len() as u64;

        // Update counts and collect frequency flips.
        let mut flipped: Vec<(Itemset, bool)> = Vec::new(); // (itemset, now_frequent)
        for subset in subsets {
            let was = self.frequent.contains(&subset);
            let count = match self.counts.entry(subset.clone()) {
                Entry::Occupied(mut e) => {
                    let c = e.get_mut();
                    *c = c.saturating_add_signed(delta);
                    let now = *c;
                    if now == 0 {
                        e.remove();
                    }
                    now
                }
                Entry::Vacant(e) => {
                    if delta > 0 {
                        e.insert(1);
                        1
                    } else {
                        0
                    }
                }
            };
            let now = count >= self.config.threshold;
            if now != was {
                if now {
                    self.frequent.insert(subset.clone());
                } else {
                    self.frequent.remove(&subset);
                }
                flipped.push((subset, now));
            }
        }

        if flipped.is_empty() {
            return Vec::new();
        }

        // Maximality can change for the flipped itemsets and their immediate
        // subsets (a new frequent superset demotes them; a vanished one may
        // promote them).
        let mut affected: HashSet<Itemset> = HashSet::new();
        for (itemset, _) in &flipped {
            affected.insert(itemset.clone());
            for sub in itemset.immediate_subsets() {
                if !sub.is_empty() {
                    affected.insert(sub);
                }
            }
        }

        let mut changes = Vec::new();
        for itemset in affected {
            let should_be_maximal =
                self.frequent.contains(&itemset) && !self.has_frequent_strict_superset(&itemset);
            let was_maximal = self.maximal.contains(&itemset);
            if should_be_maximal && !was_maximal {
                self.maximal.insert(itemset.clone());
                changes.push(StateChange::BecameMaximal(itemset));
            } else if !should_be_maximal && was_maximal {
                self.maximal.remove(&itemset);
                changes.push(StateChange::NoLongerMaximal(itemset));
            }
        }
        changes.sort_by(|a, b| a.itemset().cmp(b.itemset()));
        changes
    }

    /// Whether some *frequent* itemset strictly contains `itemset`.
    ///
    /// Every frequent itemset arises as a subset of windowed transactions,
    /// so scanning the frequent set is exact. Frequent sets are small
    /// relative to the candidate universe, keeping this affordable, and the
    /// brute-force reference in tests pins down correctness.
    fn has_frequent_strict_superset(&self, itemset: &Itemset) -> bool {
        self.frequent
            .iter()
            .any(|f| f.len() > itemset.len() && itemset.is_subset_of(f))
    }

    /// Recomputes the maximal set from scratch (reference implementation for
    /// tests and recovery; `O(|frequent|²)` in the worst case).
    pub fn recompute_maximal_reference(&self) -> Vec<Itemset> {
        let mut out: Vec<Itemset> = self
            .frequent
            .iter()
            .filter(|f| !self.has_frequent_strict_superset(f))
            .cloned()
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[Item]) -> Itemset {
        Itemset::new(items.to_vec())
    }

    fn miner(window: usize, threshold: u32) -> SlidingWindowMiner {
        SlidingWindowMiner::new(MinerConfig {
            window_size: window,
            threshold,
            max_transaction_items: 6,
        })
    }

    #[test]
    fn itemset_canonicalization() {
        let s = Itemset::new(vec![5, 1, 3, 1, 5]);
        assert_eq!(s.items(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn subset_relation() {
        assert!(set(&[1, 3]).is_subset_of(&set(&[1, 2, 3])));
        assert!(!set(&[1, 4]).is_subset_of(&set(&[1, 2, 3])));
        assert!(set(&[]).is_subset_of(&set(&[1])));
        assert!(set(&[2]).is_subset_of(&set(&[2])));
        assert!(!set(&[1, 2, 3]).is_subset_of(&set(&[1, 2])));
    }

    #[test]
    fn subset_enumeration() {
        let subs = set(&[1, 2, 3]).non_empty_subsets();
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&set(&[1])));
        assert!(subs.contains(&set(&[1, 3])));
        assert!(subs.contains(&set(&[1, 2, 3])));
    }

    #[test]
    fn immediate_subsets() {
        let subs = set(&[1, 2, 3]).immediate_subsets();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&set(&[2, 3])));
        assert!(subs.contains(&set(&[1, 3])));
        assert!(subs.contains(&set(&[1, 2])));
    }

    #[test]
    fn counting_and_frequency() {
        let mut m = miner(100, 2);
        m.insert(set(&[1, 2]));
        assert_eq!(m.occurrence_count(&set(&[1])), 1);
        assert!(!m.is_frequent(&set(&[1])));
        m.insert(set(&[1, 2]));
        assert_eq!(m.occurrence_count(&set(&[1, 2])), 2);
        assert!(m.is_frequent(&set(&[1, 2])));
        assert!(m.is_frequent(&set(&[1])));
    }

    #[test]
    fn maximality_basic() {
        let mut m = miner(100, 2);
        m.insert(set(&[1, 2]));
        m.insert(set(&[1, 2, 3]));
        // {1,2} frequent (2 occurrences); {1,2,3} not (1).
        assert_eq!(m.maximal_frequent(), vec![set(&[1, 2])]);
        // Non-maximal subsets are frequent but excluded.
        assert!(m.is_frequent(&set(&[1])));
        m.insert(set(&[1, 2, 3]));
        // Now {1,2,3} is frequent and demotes {1,2}.
        assert_eq!(m.maximal_frequent(), vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn notifications_fire_on_state_changes() {
        let mut m = miner(100, 2);
        assert!(m.insert(set(&[1, 2])).is_empty());
        let changes = m.insert(set(&[1, 2]));
        // {1,2} became maximal; its subsets became frequent but are not
        // maximal, so exactly one promotion fires.
        assert_eq!(changes, vec![StateChange::BecameMaximal(set(&[1, 2]))]);

        let changes = m.insert(set(&[1, 2, 3]));
        assert!(changes.is_empty(), "{changes:?}"); // nothing flips yet

        let changes = m.insert(set(&[1, 2, 3]));
        assert!(changes.contains(&StateChange::BecameMaximal(set(&[1, 2, 3]))));
        assert!(changes.contains(&StateChange::NoLongerMaximal(set(&[1, 2]))));
    }

    #[test]
    fn window_eviction_decrements_counts() {
        let mut m = miner(2, 2);
        m.insert(set(&[7]));
        m.insert(set(&[7]));
        assert!(m.is_frequent(&set(&[7])));
        // Third insert evicts the first {7}: count drops back to 2 - 1 + 1.
        m.insert(set(&[7]));
        assert_eq!(m.occurrence_count(&set(&[7])), 2);
        // Inserting unrelated transactions now pushes {7} out entirely.
        let mut all_changes = Vec::new();
        all_changes.extend(m.insert(set(&[8])));
        all_changes.extend(m.insert(set(&[9])));
        assert_eq!(m.occurrence_count(&set(&[7])), 0);
        assert!(all_changes.contains(&StateChange::NoLongerMaximal(set(&[7]))));
        assert_eq!(m.window_len(), 2);
    }

    #[test]
    fn evict_oldest_explicitly() {
        let mut m = miner(10, 1);
        m.insert(set(&[1]));
        m.insert(set(&[2]));
        let changes = m.evict_oldest();
        assert!(changes.contains(&StateChange::NoLongerMaximal(set(&[1]))));
        assert_eq!(m.window_len(), 1);
        assert_eq!(m.occurrence_count(&set(&[1])), 0);
        // Empty window: eviction is a no-op.
        m.evict_oldest();
        let none = m.evict_oldest();
        assert!(none.is_empty());
    }

    #[test]
    fn long_transactions_are_truncated() {
        let mut m = SlidingWindowMiner::new(MinerConfig {
            window_size: 10,
            threshold: 1,
            max_transaction_items: 3,
        });
        m.insert(set(&[1, 2, 3, 4, 5, 6, 7, 8]));
        // Only the first 3 items survive: 2^3 - 1 = 7 candidates.
        assert_eq!(m.candidate_count(), 7);
        assert_eq!(m.candidate_updates(), 7);
    }

    #[test]
    fn incremental_matches_reference_on_random_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut m = miner(30, 3);
        for step in 0..400 {
            let len = rng.gen_range(1..=5);
            let tx: Vec<Item> = (0..len).map(|_| rng.gen_range(0..12)).collect();
            m.insert(Itemset::new(tx));
            if step % 25 == 0 {
                assert_eq!(
                    m.maximal_frequent(),
                    m.recompute_maximal_reference(),
                    "divergence at step {step}"
                );
            }
        }
        assert_eq!(m.maximal_frequent(), m.recompute_maximal_reference());
    }

    #[test]
    fn maximal_sets_are_mutually_incomparable() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = miner(50, 2);
        for _ in 0..300 {
            let len = rng.gen_range(1..=4);
            let tx: Vec<Item> = (0..len).map(|_| rng.gen_range(0..8)).collect();
            m.insert(Itemset::new(tx));
        }
        let mfps = m.maximal_frequent();
        for a in &mfps {
            for b in &mfps {
                if a != b {
                    assert!(!a.is_subset_of(b), "{a:?} ⊂ {b:?} violates maximality");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = SlidingWindowMiner::new(MinerConfig {
            window_size: 0,
            threshold: 1,
            max_transaction_items: 4,
        });
    }

    #[test]
    #[should_panic(expected = "max_transaction_items")]
    fn oversized_transaction_cap_panics() {
        let _ = SlidingWindowMiner::new(MinerConfig {
            window_size: 1,
            threshold: 1,
            max_transaction_items: 20,
        });
    }
}
