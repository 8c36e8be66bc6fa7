//! Replacement policies as explicit per-set automata.
//!
//! Each policy exposes its per-set state as a value type with
//! `Eq + Ord + Hash`. These automata drive the concrete cache simulator
//! ([`crate::cache`]) and are the single source of policy semantics:
//! the packed transitions of the evict/fill exploration
//! ([`crate::metrics`]) are tested against them state by state. Keeping
//! the state explicit is what makes the "optimal analysis" computable —
//! the central demand of the paper's inherence requirement.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::hash::Hash;

/// A cached block identifier (an address already stripped of offset and
/// set bits; within one set, blocks are just tags).
pub type BlockId = u64;

/// The outcome of accessing one block in one set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome<S> {
    /// Whether the access hit.
    pub hit: bool,
    /// The successor set state.
    pub next: S,
    /// The block evicted by a miss, if the set was full.
    pub evicted: Option<BlockId>,
}

/// A replacement policy for one cache set.
///
/// Implementations must be deterministic ([`RandomPolicy`] achieves this
/// by carrying its RNG seed *in the state*). States must faithfully
/// capture everything the policy's future decisions depend on.
pub trait Policy: Clone + fmt::Debug {
    /// The per-set policy state (contents + replacement metadata).
    type State: Clone + Eq + Ord + Hash + fmt::Debug;

    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// The empty set state for the given associativity.
    fn empty(&self, assoc: usize) -> Self::State;

    /// Performs one access.
    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State>;

    /// The blocks currently cached in the state.
    fn contents(&self, state: &Self::State) -> Vec<BlockId>;
}

// ---------------------------------------------------------------------
// LRU

/// Least-recently-used replacement. State: blocks ordered most-recent
/// first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lru;

impl Policy for Lru {
    type State = Vec<BlockId>;

    fn name(&self) -> &'static str {
        "LRU"
    }

    fn empty(&self, _assoc: usize) -> Self::State {
        Vec::new()
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        let mut next = state.clone();
        if let Some(pos) = next.iter().position(|&b| b == block) {
            next.remove(pos);
            next.insert(0, block);
            AccessOutcome {
                hit: true,
                next,
                evicted: None,
            }
        } else {
            // Raw list policies never evict; [`Bounded`] enforces the
            // associativity. This keeps partially filled sets correct.
            next.insert(0, block);
            AccessOutcome {
                hit: false,
                next,
                evicted: None,
            }
        }
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        state.clone()
    }
}

/// Wraps a list-based policy ([`Lru`], [`Fifo`]) to enforce a fixed
/// associativity: any growth past `assoc` evicts the back of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounded<P> {
    /// The underlying policy.
    pub inner: P,
    /// The enforced associativity.
    pub assoc: usize,
}

impl<P: Policy<State = Vec<BlockId>>> Policy for Bounded<P> {
    type State = Vec<BlockId>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn empty(&self, assoc: usize) -> Self::State {
        self.inner.empty(assoc)
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        let mut out = self.inner.access(state, block);
        if out.next.len() > self.assoc {
            out.evicted = out.next.pop();
        }
        out
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        self.inner.contents(state)
    }
}

// ---------------------------------------------------------------------
// FIFO

/// First-in first-out replacement. State: blocks in insertion order,
/// newest first. Hits do not change the state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl Policy for Fifo {
    type State = Vec<BlockId>;

    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn empty(&self, _assoc: usize) -> Self::State {
        Vec::new()
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        if state.contains(&block) {
            AccessOutcome {
                hit: true,
                next: state.clone(),
                evicted: None,
            }
        } else {
            let mut next = state.clone();
            next.insert(0, block);
            AccessOutcome {
                hit: false,
                next,
                evicted: None,
            }
        }
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        state.clone()
    }
}

// ---------------------------------------------------------------------
// PLRU (tree-based pseudo-LRU)

/// The state of a tree-PLRU set: fixed ways plus the tree bits.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlruState {
    /// Way contents; `None` is an invalid (empty) line.
    pub ways: Vec<Option<BlockId>>,
    /// Tree bits, heap-ordered (`bits[0]` is the root); `false` points
    /// left. Length `assoc - 1`.
    pub bits: Vec<bool>,
}

/// Tree-based pseudo-LRU replacement (associativity must be a power of
/// two). The policy used by many real L1 caches; famously less
/// predictable than LRU (higher evict/fill).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plru;

impl Plru {
    /// Walks the tree bits to the way they currently point at.
    fn victim_way(bits: &[bool], assoc: usize) -> usize {
        let mut node = 0usize; // heap index
        let levels = assoc.trailing_zeros() as usize;
        let mut way = 0usize;
        for level in 0..levels {
            let go_right = bits[node];
            way = (way << 1) | usize::from(go_right);
            node = 2 * node + 1 + usize::from(go_right);
            let _ = level;
        }
        way
    }

    /// Flips the bits along the path to `way` so they point *away* from
    /// it (the touched way becomes protected).
    fn touch(bits: &mut [bool], assoc: usize, way: usize) {
        let levels = assoc.trailing_zeros() as usize;
        let mut node = 0usize;
        for level in (0..levels).rev() {
            let went_right = (way >> level) & 1 == 1;
            bits[node] = !went_right;
            node = 2 * node + 1 + usize::from(went_right);
        }
    }
}

impl Policy for Plru {
    type State = PlruState;

    fn name(&self) -> &'static str {
        "PLRU"
    }

    fn empty(&self, assoc: usize) -> Self::State {
        assert!(assoc.is_power_of_two(), "PLRU needs power-of-two ways");
        PlruState {
            ways: vec![None; assoc],
            bits: vec![false; assoc - 1],
        }
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        let assoc = state.ways.len();
        let mut next = state.clone();
        if let Some(way) = state.ways.iter().position(|&w| w == Some(block)) {
            Plru::touch(&mut next.bits, assoc, way);
            return AccessOutcome {
                hit: true,
                next,
                evicted: None,
            };
        }
        // Prefer an invalid way; otherwise follow the tree.
        let way = state
            .ways
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| Plru::victim_way(&state.bits, assoc));
        let evicted = next.ways[way];
        next.ways[way] = Some(block);
        Plru::touch(&mut next.bits, assoc, way);
        AccessOutcome {
            hit: false,
            next,
            evicted,
        }
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        state.ways.iter().flatten().copied().collect()
    }
}

// ---------------------------------------------------------------------
// MRU (bit-PLRU / "most-recently-used" marking)

/// The state of an MRU set: ways plus one recently-used bit per way.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MruState {
    /// Way contents.
    pub ways: Vec<Option<BlockId>>,
    /// MRU bit per way; set on access, all-but-current cleared when all
    /// would become set.
    pub bits: Vec<bool>,
}

/// Bit-PLRU ("MRU") replacement: each way has a use bit; the victim is
/// the first way with a clear bit. Known to have unbounded `fill`
/// (its state never becomes fully known from accesses alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mru;

impl Mru {
    fn mark(bits: &mut [bool], way: usize) {
        bits[way] = true;
        if bits.iter().all(|&b| b) {
            for (i, b) in bits.iter_mut().enumerate() {
                *b = i == way;
            }
        }
    }
}

impl Policy for Mru {
    type State = MruState;

    fn name(&self) -> &'static str {
        "MRU"
    }

    fn empty(&self, assoc: usize) -> Self::State {
        MruState {
            ways: vec![None; assoc],
            bits: vec![false; assoc],
        }
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        let mut next = state.clone();
        if let Some(way) = state.ways.iter().position(|&w| w == Some(block)) {
            Mru::mark(&mut next.bits, way);
            return AccessOutcome {
                hit: true,
                next,
                evicted: None,
            };
        }
        let way = state
            .ways
            .iter()
            .position(Option::is_none)
            .or_else(|| state.bits.iter().position(|&b| !b))
            .unwrap_or(0);
        let evicted = next.ways[way];
        next.ways[way] = Some(block);
        Mru::mark(&mut next.bits, way);
        AccessOutcome {
            hit: false,
            next,
            evicted,
        }
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        state.ways.iter().flatten().copied().collect()
    }
}

// ---------------------------------------------------------------------
// Random (deterministically seeded)

/// The state of a seeded-random set: contents plus the RNG counter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RandomState {
    /// Way contents.
    pub ways: Vec<Option<BlockId>>,
    /// Number of evictions performed so far (drives the PRNG stream).
    pub draws: u64,
}

/// Random replacement with a deterministic per-cache seed; the "least
/// predictable" end of the policy spectrum, included as a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomPolicy {
    /// Seed for the eviction stream.
    pub seed: u64,
}

impl Default for RandomPolicy {
    fn default() -> Self {
        RandomPolicy { seed: 0xDEC0DE }
    }
}

impl Policy for RandomPolicy {
    type State = RandomState;

    fn name(&self) -> &'static str {
        "RANDOM"
    }

    fn empty(&self, assoc: usize) -> Self::State {
        RandomState {
            ways: vec![None; assoc],
            draws: 0,
        }
    }

    fn access(&self, state: &Self::State, block: BlockId) -> AccessOutcome<Self::State> {
        let mut next = state.clone();
        if state.ways.contains(&Some(block)) {
            return AccessOutcome {
                hit: true,
                next,
                evicted: None,
            };
        }
        let way = match state.ways.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(state.draws));
                rng.random_range(0..state.ways.len())
            }
        };
        let evicted = next.ways[way];
        next.ways[way] = Some(block);
        next.draws += 1;
        AccessOutcome {
            hit: false,
            next,
            evicted,
        }
    }

    fn contents(&self, state: &Self::State) -> Vec<BlockId> {
        state.ways.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<P: Policy>(p: &P, assoc: usize, accesses: &[BlockId]) -> (P::State, Vec<bool>) {
        let mut s = p.empty(assoc);
        let mut hits = Vec::new();
        for &b in accesses {
            let out = p.access(&s, b);
            hits.push(out.hit);
            s = out.next;
        }
        (s, hits)
    }

    #[test]
    fn lru_stack_property() {
        let p = Bounded {
            inner: Lru,
            assoc: 4,
        };
        let (s, hits) = drive(&p, 4, &[1, 2, 3, 4, 1, 5, 2]);
        // 1,2,3,4 miss; 1 hits; 5 misses evicting 2 (LRU order after
        // "1,4,3,2" access history); then 2 misses again.
        assert_eq!(hits, vec![false, false, false, false, true, false, false]);
        assert_eq!(s[0], 2); // most recent
    }

    #[test]
    fn lru_hit_moves_to_front() {
        let p = Lru;
        let s = vec![3, 2, 1];
        let out = p.access(&s, 1);
        assert!(out.hit);
        assert_eq!(out.next, vec![1, 3, 2]);
    }

    #[test]
    fn fifo_hits_do_not_reorder() {
        let p = Bounded {
            inner: Fifo,
            assoc: 3,
        };
        let s = vec![3, 2, 1];
        let out = p.access(&s, 1);
        assert!(out.hit);
        assert_eq!(out.next, s);
        // A miss evicts the oldest (back).
        let out = p.access(&s, 9);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(1));
        assert_eq!(out.next, vec![9, 3, 2]);
    }

    #[test]
    fn bounded_fills_before_evicting() {
        let p = Bounded {
            inner: Lru,
            assoc: 4,
        };
        let mut s = p.empty(4);
        for b in 1..=4u64 {
            let out = p.access(&s, b);
            assert!(!out.hit);
            assert_eq!(out.evicted, None, "no eviction while filling");
            s = out.next;
        }
        let out = p.access(&s, 5);
        assert_eq!(out.evicted, Some(1));
    }

    #[test]
    fn plru_tree_victims() {
        let p = Plru;
        // Fill 4 ways: 1,2,3,4 go to ways 0..3 (invalid-first).
        let (s, hits) = drive(&p, 4, &[1, 2, 3, 4]);
        assert!(hits.iter().all(|&h| !h));
        assert_eq!(p.contents(&s).len(), 4);
        // Access way0 block (1): bits protect way 0; victim must not be way 0.
        let out = p.access(&s, 1);
        assert!(out.hit);
        let miss = p.access(&out.next, 99);
        assert!(!miss.hit);
        assert_ne!(miss.evicted, Some(1));
    }

    #[test]
    fn plru_needs_power_of_two() {
        let result = std::panic::catch_unwind(|| Plru.empty(3));
        assert!(result.is_err());
    }

    #[test]
    fn mru_never_evicts_most_recent() {
        let p = Mru;
        let (mut s, _) = drive(&p, 4, &[1, 2, 3, 4]);
        for probe in [10u64, 11, 12, 13, 14, 15] {
            let out = p.access(&s, probe);
            assert!(!out.hit);
            assert_ne!(out.evicted, Some(probe));
            // The just-inserted block must survive the next access.
            let peek = p.access(&out.next, probe);
            assert!(peek.hit);
            s = out.next;
        }
    }

    #[test]
    fn random_is_deterministic_given_state() {
        let p = RandomPolicy { seed: 7 };
        let (s, _) = drive(&p, 4, &[1, 2, 3, 4]);
        let a = p.access(&s, 9);
        let b = p.access(&s, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn contents_after_fill() {
        for assoc in [2usize, 4] {
            let p = Plru;
            let blocks: Vec<BlockId> = (1..=assoc as u64).collect();
            let (s, _) = drive(&p, assoc, &blocks);
            let mut c = p.contents(&s);
            c.sort_unstable();
            assert_eq!(c, blocks);
        }
    }
}
