//! The evict/fill predictability metrics of Reineke, Grund, Berg and
//! Wilhelm ("Timing predictability of cache replacement policies",
//! Real-Time Systems 37(2), 2007), cited in Section 4 of the paper as
//! the exemplar of *inherent* predictability metrics: they bound what
//! **any** cache analysis can achieve, independent of a concrete
//! analysis.
//!
//! * `evict(k)` — the minimal number of accesses to pairwise-distinct
//!   blocks after which, from **any** unknown initial state, the cache
//!   provably contains only blocks from the accessed sequence (nothing
//!   stale can survive — the basis of sound *may* information).
//! * `fill(k)` — the minimal number after which the **entire** cache
//!   state (contents *and* replacement metadata) is uniquely
//!   determined (the basis of complete *must* information).
//!
//! This module computes both by exhaustive *uncertainty-set
//! exploration*: start from the set of all possible full initial states
//! (including states that already contain blocks the sequence is about
//! to access — that is what makes FIFO need `2k-1`, not `k`), apply the
//! access sequence `1, 2, …, m` to every member, and watch when the
//! conditions trigger. Partially filled caches are strictly easier
//! (invalid lines fill before any eviction), so only full ones are
//! explored. On the small associativities of interest this is exactly
//! the "optimal analysis" of the paper's Proposition 1.
//!
//! **Packed states.** The universe is relabelled so the accessed blocks
//! are `1..=m` and the `k` unknown initial blocks are `m+1..=m+k`; every
//! id fits 6 bits. A state is one `u64`: way `i` in bits `6i..6i+6`
//! (at most [`MAX_ASSOC`] ways, 48 bits) and the policy metadata above
//! them. LRU and FIFO need none (the way order is the list order). MRU
//! stores its use bits. PLRU stores nothing: a state is kept in the
//! canonical form whose tree bits are all false, because mirroring a
//! subtree and flipping its bit is an automorphism of the automaton.
//! Each access maps every state in place through its policy's packed
//! transition, then deduplicates with `sort_unstable` + `dedup`.
//!
//! **The unknown-relabelling quotient.** No access ever touches an
//! unknown block, so renaming the unknowns maps runs to runs. After
//! every step the unknowns are relabelled `m+1, m+2, …` in order of
//! first appearance over the ways, and the explored set holds one
//! representative per orbit. The quotient is exact for all three
//! reported numbers:
//!
//! * `evict` asks whether any way still holds a block not yet accessed,
//!   which ignores labels.
//! * `fill` asks whether the unreduced set is a single state: one
//!   representative whose orbit has size 1.
//! * `initial_states` is the size of the unreduced set, the disjoint
//!   union of the orbits. A state holding `j` distinct unknowns has
//!   orbit size `k·(k−1)·…·(k−j+1)` (the injective renamings of its
//!   unknowns into the `k` labels), so the count is the orbit sum over
//!   the representatives.
//!
//! Tests pin every packed transition against the [`crate::policy`]
//! automata on each state the exploration visits, and the orbit sum
//! (with evict and fill) against a brute-force unreduced exploration.
//!
//! Closed forms, all checked in tests: LRU: evict = fill = `k`. FIFO:
//! evict = `2k−1`, fill = `3k−1`. MRU: evict = `2k−2`; fill does not
//! exist (reported as `None`). PLRU (k=4): evict = 5 = `(k/2)·log2(k) +
//! 1`, fill = 7 = `(k/2)·log2(k) + k − 1` — both worse than LRU's 4,
//! which is the formal core of the recommendation in the paper's
//! Table 1 row on future architectures [29] to prefer LRU.
//!
//! The packing admits `k ≤ 8`, but enumeration does not: at `k = 8` the
//! unreduced initial set of the `3k+2` budget has `C(34,8)·8! ≈ 7.8·10¹¹`
//! states, and the quotient divides that by at most `8!`.

use std::fmt;
use std::str::FromStr;

/// Largest associativity a packed state holds (8 ways × 6 bits).
pub const MAX_ASSOC: usize = 8;

/// Bits per way field; block ids `1..=63` fit.
const WAY_BITS: usize = 6;
const WAY_MASK: u64 = (1 << WAY_BITS) - 1;
/// Where the policy metadata starts, above the ways.
const META_SHIFT: usize = WAY_BITS * MAX_ASSOC;

/// The two metrics; `None` means "not reached within the exploration
/// budget", which for MRU's `fill` is a genuine "does not exist".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictabilityMetrics {
    /// Accesses needed to provably evict all unknown initial content.
    pub evict: Option<u32>,
    /// Accesses needed to reach a completely known state.
    pub fill: Option<u32>,
    /// Number of initial states explored.
    pub initial_states: usize,
}

/// A replacement policy the exploration has a packed transition for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`crate::policy::Lru`] bounded to the associativity.
    Lru,
    /// [`crate::policy::Fifo`] bounded to the associativity.
    Fifo,
    /// [`crate::policy::Plru`] (power-of-two associativity only).
    Plru,
    /// [`crate::policy::Mru`].
    Mru,
}

impl FromStr for PolicyKind {
    type Err = MetricsError;

    /// Parses `"lru"`, `"fifo"`, `"plru"` or `"mru"`, case-insensitive.
    fn from_str(name: &str) -> Result<PolicyKind, MetricsError> {
        match name.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "fifo" => Ok(PolicyKind::Fifo),
            "plru" => Ok(PolicyKind::Plru),
            "mru" => Ok(PolicyKind::Mru),
            _ => Err(MetricsError::UnknownPolicy(name.to_string())),
        }
    }
}

/// Why an exploration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// The policy name is none of `lru`, `fifo`, `plru`, `mru`.
    UnknownPolicy(String),
    /// The associativity is 0, above [`MAX_ASSOC`], or not a power of
    /// two for PLRU.
    BadAssoc {
        /// The policy asked for.
        policy: PolicyKind,
        /// The refused associativity.
        assoc: usize,
    },
    /// The access budget is 0, or the `max_accesses + assoc` block ids
    /// do not fit a 6-bit way.
    BadBudget {
        /// The associativity asked for.
        assoc: usize,
        /// The refused budget.
        max_accesses: u32,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::UnknownPolicy(name) => write!(f, "unknown replacement policy `{name}`"),
            MetricsError::BadAssoc { policy, assoc } => write!(
                f,
                "associativity {assoc} unsupported for {policy:?} (1..={MAX_ASSOC}, PLRU powers of two)"
            ),
            MetricsError::BadBudget {
                assoc,
                max_accesses,
            } => write!(
                f,
                "budget of {max_accesses} accesses unsupported at associativity {assoc} \
                 (1..=63 block ids in all)"
            ),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Orbit size of a state holding `j` distinct unknowns out of `k`:
/// `k·(k−1)·…·(k−j+1)`.
fn orbit(k: usize, j: usize) -> usize {
    (k - j + 1..=k).product()
}

/// One exploration: the policy, `k` ways and `m` accesses (so known
/// blocks are `1..=m` and unknowns `m+1..=m+k`).
struct Explorer {
    policy: PolicyKind,
    k: usize,
    m: u8,
}

impl Explorer {
    fn new(policy: PolicyKind, assoc: usize, max_accesses: u32) -> Result<Explorer, MetricsError> {
        if !(1..=MAX_ASSOC).contains(&assoc)
            || (policy == PolicyKind::Plru && !assoc.is_power_of_two())
        {
            return Err(MetricsError::BadAssoc { policy, assoc });
        }
        match u8::try_from(max_accesses) {
            Ok(m) if m > 0 && usize::from(m) + assoc <= WAY_MASK as usize => Ok(Explorer {
                policy,
                k: assoc,
                m,
            }),
            _ => Err(MetricsError::BadBudget {
                assoc,
                max_accesses,
            }),
        }
    }

    /// The block ids in the ways of `s`, way 0 first.
    fn ways(&self, s: u64) -> impl Iterator<Item = u8> {
        (0..self.k).map(move |i| ((s >> (WAY_BITS * i)) & WAY_MASK) as u8)
    }

    /// Distinct unknowns in `s`.
    fn unknowns(&self, s: u64) -> usize {
        self.ways(s).filter(|&b| b > self.m).count()
    }

    /// Metadata patterns of a full initial state: MRU's use bits except
    /// all set (marking normalises that away); one (none) otherwise.
    fn meta_patterns(&self) -> u64 {
        match self.policy {
            PolicyKind::Mru => (1 << self.k) - 1,
            _ => 1,
        }
    }

    /// Every full initial state, one per orbit, and the unreduced count
    /// (the orbit sum).
    fn initial(&self) -> (Vec<u64>, usize) {
        let mut states = Vec::new();
        let mut count = 0;
        self.arrange(&mut [0; MAX_ASSOC], 0, 0, 0, &mut states, &mut count);
        (states, count)
    }

    /// Fills way `pos` and on with each unused known block or the next
    /// fresh unknown, so unknowns appear in canonical order and every
    /// representative is generated exactly once.
    fn arrange(
        &self,
        ways: &mut [u8; MAX_ASSOC],
        pos: usize,
        used: u64,
        unknowns: u8,
        states: &mut Vec<u64>,
        count: &mut usize,
    ) {
        if pos == self.k {
            let packed = self.canonical(*ways, 0);
            let patterns = self.meta_patterns();
            states.extend((0..patterns).map(|meta| packed | meta << META_SHIFT));
            *count += patterns as usize * orbit(self.k, usize::from(unknowns));
            return;
        }
        for b in 1..=self.m {
            if used & (1 << b) == 0 {
                ways[pos] = b;
                self.arrange(ways, pos + 1, used | 1 << b, unknowns, states, count);
            }
        }
        ways[pos] = self.m + 1 + unknowns;
        self.arrange(ways, pos + 1, used, unknowns + 1, states, count);
    }

    /// Relabels the unknowns `m+1, m+2, …` in order of first appearance
    /// over the ways and packs the state.
    fn canonical(&self, ways: [u8; MAX_ASSOC], meta: u64) -> u64 {
        let mut relabel = [0u8; MAX_ASSOC];
        let mut fresh = self.m;
        let mut s = meta << META_SHIFT;
        for (i, &b) in ways[..self.k].iter().enumerate() {
            let b = if b > self.m {
                let label = &mut relabel[usize::from(b - self.m - 1)];
                if *label == 0 {
                    fresh += 1;
                    *label = fresh;
                }
                *label
            } else {
                b
            };
            s |= u64::from(b) << (WAY_BITS * i);
        }
        s
    }

    /// The canonical successor of `s` on an access to `block`.
    fn step(&self, s: u64, block: u8) -> u64 {
        let k = self.k;
        let mut ways = [0u8; MAX_ASSOC];
        for (way, b) in ways.iter_mut().zip(self.ways(s)) {
            *way = b;
        }
        let mut meta = s >> META_SHIFT;
        let hit = ways[..k].iter().position(|&b| b == block);
        match self.policy {
            // Most recent first: a hit moves to the front, a miss drops
            // the back.
            PolicyKind::Lru => {
                let pos = hit.unwrap_or(k - 1);
                ways.copy_within(0..pos, 1);
                ways[0] = block;
            }
            // Newest first; a hit changes nothing.
            PolicyKind::Fifo => {
                if hit.is_none() {
                    ways.copy_within(0..k - 1, 1);
                    ways[0] = block;
                }
            }
            // The canonical tree's victim is way 0.
            PolicyKind::Plru => {
                let way = hit.unwrap_or(0);
                ways[way] = block;
                ways = plru_touch(ways, k, way);
            }
            // The victim is the first way with a clear use bit; setting
            // the last clear bit clears all the others.
            PolicyKind::Mru => {
                let way = hit
                    .or_else(|| (0..k).find(|&i| meta & (1 << i) == 0))
                    .unwrap_or(0);
                ways[way] = block;
                meta |= 1 << way;
                if meta == (1 << k) - 1 {
                    meta = 1 << way;
                }
            }
        }
        self.canonical(ways, meta)
    }
}

/// Re-canonicalises a PLRU tree after touching way `w` of a canonical
/// (all bits false) state. The touch points each bit on `w`'s path away
/// from `w`, so it reads true where `w` lies left (its index bit is 0).
/// Swapping the two subtrees under each such bit makes all bits false
/// again: leaf `i` moves by flipping those index bits at the levels
/// from the root down to where `i` leaves `w`'s path. Leaf `w` lands
/// last; subtrees off the path keep their order.
fn plru_touch(ways: [u8; MAX_ASSOC], k: usize, w: usize) -> [u8; MAX_ASSOC] {
    let flip = !w & (k - 1);
    let mut out = [0; MAX_ASSOC];
    for (i, &b) in ways[..k].iter().enumerate() {
        let shared = match (i ^ w).checked_ilog2() {
            Some(level) => !((1 << level) - 1),
            None => k - 1,
        };
        out[i ^ (flip & shared)] = b;
    }
    out
}

/// Computes evict/fill for `policy` at associativity `assoc`, exploring
/// access sequences up to `max_accesses` distinct blocks.
///
/// The initial uncertainty set contains, for every choice of `assoc`
/// distinct blocks from the universe (future accesses `1..=max_accesses`
/// plus `assoc` unknowns), every policy state with those contents.
///
/// # Errors
///
/// [`MetricsError::BadAssoc`] unless `1 ≤ assoc ≤ MAX_ASSOC` (and a
/// power of two for PLRU); [`MetricsError::BadBudget`] unless
/// `max_accesses ≥ 1` and `max_accesses + assoc ≤ 63`.
pub fn compute_metrics(
    policy: PolicyKind,
    assoc: usize,
    max_accesses: u32,
) -> Result<PredictabilityMetrics, MetricsError> {
    let x = Explorer::new(policy, assoc, max_accesses)?;
    let (mut states, initial_states) = x.initial();
    let mut evict = None;
    let mut fill = None;
    for block in 1..=x.m {
        for s in states.iter_mut() {
            *s = x.step(*s, block);
        }
        states.sort_unstable();
        states.dedup();

        // Every surviving block must be one accessed so far; anything
        // else is stale initial content (including blocks the sequence
        // only accesses later).
        if evict.is_none() && states.iter().all(|&s| x.ways(s).all(|b| b <= block)) {
            evict = Some(u32::from(block));
        }
        if fill.is_none() && states.len() == 1 && orbit(x.k, x.unknowns(states[0])) == 1 {
            fill = Some(u32::from(block));
        }
        if evict.is_some() && fill.is_some() {
            break;
        }
    }
    Ok(PredictabilityMetrics {
        evict,
        fill,
        initial_states,
    })
}

/// Computes evict/fill for a policy named at runtime (`"lru"`,
/// `"fifo"`, `"plru"`, `"mru"`, case-insensitive). This is the entry
/// point used by registry-driven callers (the scenario harness, CLIs)
/// that carry the policy as data.
///
/// # Errors
///
/// [`MetricsError::UnknownPolicy`] for any other name, otherwise as
/// [`compute_metrics`].
pub fn compute_metrics_by_name(
    policy: &str,
    assoc: usize,
    max_accesses: u32,
) -> Result<PredictabilityMetrics, MetricsError> {
    compute_metrics(policy.parse()?, assoc, max_accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BlockId, Bounded, Fifo, Lru, Mru, MruState, Plru, PlruState, Policy};
    use std::collections::BTreeSet;

    fn metrics(policy: PolicyKind, k: usize, m: u32) -> PredictabilityMetrics {
        compute_metrics(policy, k, m).unwrap()
    }

    #[test]
    fn lru_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = metrics(PolicyKind::Lru, k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(k as u32), "evict(LRU, {k})");
            assert_eq!(m.fill, Some(k as u32), "fill(LRU, {k})");
        }
    }

    #[test]
    fn fifo_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = metrics(PolicyKind::Fifo, k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(2 * k as u32 - 1), "evict(FIFO, {k})");
            assert_eq!(m.fill, Some(3 * k as u32 - 1), "fill(FIFO, {k})");
        }
    }

    #[test]
    fn plru_is_less_predictable_than_lru() {
        // k = 4: evict(PLRU) = 5 > 4 = evict(LRU); fill(PLRU) =
        // (k/2)·log2(k) + k − 1 = 7 > 4 = fill(LRU).
        let m = metrics(PolicyKind::Plru, 4, 12);
        let l = metrics(PolicyKind::Lru, 4, 12);
        assert_eq!(m.evict, Some(5));
        assert_eq!(m.fill, Some(7));
        assert!(m.evict.unwrap() > l.evict.unwrap());
        assert!(m.fill.unwrap() > l.fill.unwrap());
    }

    #[test]
    fn plru2_equals_lru2() {
        // A 2-way PLRU tree is exactly LRU.
        let p = metrics(PolicyKind::Plru, 2, 8);
        let l = metrics(PolicyKind::Lru, 2, 8);
        assert_eq!(p.evict, l.evict);
        assert_eq!(p.fill, l.fill);
    }

    #[test]
    fn mru_fill_does_not_exist() {
        let m = metrics(PolicyKind::Mru, 4, 16);
        assert!(m.evict.is_some());
        assert_eq!(m.fill, None, "MRU state never becomes fully known");
    }

    #[test]
    fn mru_evict_matches_closed_form() {
        for k in [2usize, 3, 4] {
            let m = metrics(PolicyKind::Mru, k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(2 * k as u32 - 2), "evict(MRU, {k})");
        }
    }

    #[test]
    fn evict_never_exceeds_fill() {
        // A fully known state implies all unknown content is gone.
        for k in [2usize, 4] {
            for policy in [PolicyKind::Lru, PolicyKind::Fifo] {
                let m = metrics(policy, k, 3 * k as u32 + 2);
                if let (Some(e), Some(f)) = (m.evict, m.fill) {
                    assert!(e <= f);
                }
            }
        }
    }

    #[test]
    fn initial_state_counts_are_factorial_like() {
        let m = metrics(PolicyKind::Lru, 2, 4);
        // Universe: 4 accesses + 2 unknowns = 6 blocks; C(6,2)*2! = 30.
        assert_eq!(m.initial_states, 30);
    }

    #[test]
    fn unsupported_inputs_are_rejected_not_panics() {
        assert_eq!(
            compute_metrics_by_name("plru", 3, 11),
            Err(MetricsError::BadAssoc {
                policy: PolicyKind::Plru,
                assoc: 3
            })
        );
        assert_eq!(
            compute_metrics_by_name("belady", 2, 8),
            Err(MetricsError::UnknownPolicy("belady".into()))
        );
        for assoc in [0, MAX_ASSOC + 1] {
            assert!(matches!(
                compute_metrics(PolicyKind::Lru, assoc, 8),
                Err(MetricsError::BadAssoc { .. })
            ));
        }
        for budget in [0, 60, 256, u32::MAX] {
            assert!(matches!(
                compute_metrics(PolicyKind::Lru, 4, budget),
                Err(MetricsError::BadBudget { .. })
            ));
        }
        assert!(compute_metrics(PolicyKind::Lru, 1, 62).is_ok());
        assert!(matches!(
            compute_metrics(PolicyKind::Lru, 1, 63),
            Err(MetricsError::BadBudget { .. })
        ));
        assert_eq!(
            compute_metrics_by_name("MRU", 2, 6),
            compute_metrics(PolicyKind::Mru, 2, 6)
        );
    }

    /// The [`Policy`] automaton behind each packed transition: the
    /// reference the kernel is checked against.
    trait Reference: Policy {
        /// Metadata patterns of an unreduced initial state.
        fn patterns(k: usize) -> u64;
        /// The state with `ways` (way 0 first) and metadata `meta`.
        fn build(&self, ways: &[BlockId], meta: u64) -> Self::State;
        /// The state's behavioural fingerprint as ways + metadata.
        fn fingerprint(&self, s: &Self::State) -> (Vec<BlockId>, u64);
        /// The packed policy with this automaton's semantics.
        fn kind(&self) -> PolicyKind {
            self.name().parse().unwrap()
        }
    }

    /// LRU and FIFO: the list is the way order, with no metadata.
    impl<P: Policy<State = Vec<BlockId>>> Reference for Bounded<P> {
        fn patterns(_: usize) -> u64 {
            1
        }
        fn build(&self, ways: &[BlockId], _: u64) -> Vec<BlockId> {
            ways.to_vec()
        }
        fn fingerprint(&self, s: &Vec<BlockId>) -> (Vec<BlockId>, u64) {
            (s.clone(), 0)
        }
    }

    fn bits(meta: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| meta & (1 << i) != 0).collect()
    }

    /// Canonical PLRU way order: recursively swap subtrees so every bit
    /// becomes false.
    fn plru_canonical(s: &PlruState, node: usize, lo: usize, hi: usize, out: &mut Vec<BlockId>) {
        if hi - lo == 1 {
            out.push(s.ways[lo].expect("full cache"));
            return;
        }
        let mid = (lo + hi) / 2;
        let (first, second) = if s.bits[node] {
            ((2 * node + 2, mid, hi), (2 * node + 1, lo, mid))
        } else {
            ((2 * node + 1, lo, mid), (2 * node + 2, mid, hi))
        };
        plru_canonical(s, first.0, first.1, first.2, out);
        plru_canonical(s, second.0, second.1, second.2, out);
    }

    impl Reference for Plru {
        fn patterns(k: usize) -> u64 {
            1 << (k - 1)
        }
        fn build(&self, ways: &[BlockId], meta: u64) -> PlruState {
            PlruState {
                ways: ways.iter().map(|&b| Some(b)).collect(),
                bits: bits(meta, ways.len() - 1),
            }
        }
        fn fingerprint(&self, s: &PlruState) -> (Vec<BlockId>, u64) {
            let mut ways = Vec::new();
            plru_canonical(s, 0, 0, s.ways.len(), &mut ways);
            (ways, 0)
        }
    }

    impl Reference for Mru {
        fn patterns(k: usize) -> u64 {
            (1 << k) - 1
        }
        fn build(&self, ways: &[BlockId], meta: u64) -> MruState {
            MruState {
                ways: ways.iter().map(|&b| Some(b)).collect(),
                bits: bits(meta, ways.len()),
            }
        }
        fn fingerprint(&self, s: &MruState) -> (Vec<BlockId>, u64) {
            let ways = s.ways.iter().map(|w| w.expect("full cache")).collect();
            let meta = (0..s.bits.len()).filter(|&i| s.bits[i]).map(|i| 1 << i);
            (ways, meta.sum())
        }
    }

    /// The reference successor of packed `s`:
    /// `pack(canonical(Policy::access(unpack(s), block).next))`.
    fn reference_step<P: Reference>(p: &P, x: &Explorer, s: u64, block: u8) -> u64 {
        let ways: Vec<BlockId> = x.ways(s).map(BlockId::from).collect();
        let next = p.access(&p.build(&ways, s >> META_SHIFT), BlockId::from(block));
        let (ways, meta) = p.fingerprint(&next.next);
        let mut packed = [0; MAX_ASSOC];
        for (w, b) in packed.iter_mut().zip(ways) {
            *w = u8::try_from(b).unwrap();
        }
        x.canonical(packed, meta)
    }

    fn check_steps<P: Reference>(p: &P, k: usize) {
        let x = Explorer::new(p.kind(), k, 3 * k as u32 + 2).unwrap();
        let (mut states, _) = x.initial();
        for block in 1..=x.m {
            for s in states.iter_mut() {
                let next = x.step(*s, block);
                assert_eq!(
                    next,
                    reference_step(p, &x, *s, block),
                    "{:?} k={k}: state {:?} meta {:#b}, access {block}",
                    p.kind(),
                    x.ways(*s).collect::<Vec<_>>(),
                    *s >> META_SHIFT
                );
                *s = next;
            }
            states.sort_unstable();
            states.dedup();
        }
    }

    #[test]
    fn packed_steps_match_policy_automata() {
        for k in [2, 4] {
            check_steps(
                &Bounded {
                    inner: Lru,
                    assoc: k,
                },
                k,
            );
            check_steps(
                &Bounded {
                    inner: Fifo,
                    assoc: k,
                },
                k,
            );
            check_steps(&Plru, k);
            check_steps(&Mru, k);
        }
    }

    /// The unreduced exploration over the [`Policy`] automata: every
    /// arrangement of `k` distinct blocks from `1..=m+k` with every
    /// metadata pattern, fingerprinted into a `BTreeSet`.
    fn brute_force<P: Reference>(p: &P, k: usize, m: u32) -> PredictabilityMetrics {
        fn arrangements(
            universe: u64,
            k: usize,
            cur: &mut Vec<BlockId>,
            out: &mut Vec<Vec<BlockId>>,
        ) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            for b in 1..=universe {
                if !cur.contains(&b) {
                    cur.push(b);
                    arrangements(universe, k, cur, out);
                    cur.pop();
                }
            }
        }
        let mut all = Vec::new();
        arrangements(u64::from(m) + k as u64, k, &mut Vec::new(), &mut all);
        let mut states: BTreeSet<(Vec<BlockId>, u64)> = BTreeSet::new();
        for ways in &all {
            for meta in 0..P::patterns(k) {
                states.insert(p.fingerprint(&p.build(ways, meta)));
            }
        }
        let initial_states = states.len();
        let (mut evict, mut fill) = (None, None);
        for block in 1..=u64::from(m) {
            states = states
                .iter()
                .map(|(ways, meta)| p.fingerprint(&p.access(&p.build(ways, *meta), block).next))
                .collect();
            if evict.is_none()
                && states
                    .iter()
                    .all(|(ways, _)| ways.iter().all(|&b| b <= block))
            {
                evict = Some(block as u32);
            }
            if fill.is_none() && states.len() == 1 {
                fill = Some(block as u32);
            }
        }
        PredictabilityMetrics {
            evict,
            fill,
            initial_states,
        }
    }

    #[test]
    fn quotient_matches_brute_force_exploration() {
        fn check<P: Reference>(p: &P, k: usize) {
            let m = 3 * k as u32 + 2;
            assert_eq!(
                metrics(p.kind(), k, m),
                brute_force(p, k, m),
                "{:?} k={k}",
                p.kind()
            );
        }
        for k in [1usize, 2, 3] {
            check(
                &Bounded {
                    inner: Lru,
                    assoc: k,
                },
                k,
            );
            check(
                &Bounded {
                    inner: Fifo,
                    assoc: k,
                },
                k,
            );
            check(&Mru, k);
            if k.is_power_of_two() {
                check(&Plru, k);
            }
        }
    }
}
