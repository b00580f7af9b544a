//! Content-addressed memoisation of planning decisions.
//!
//! Every hot-spot entry runs the same pure pipeline: Molecule selection
//! ([`GreedySelector`](crate::GreedySelector)) followed by Atom scheduling
//! (FSFR/ASF/SJF/HEF). Its output — the selected variants, the Atom
//! loading sequence and the plan's supremum — is a deterministic function
//! of the scheduler kind, the demand profile, the usable-container count,
//! the available-Atom multiset, the foreign-pressure vector and the SI
//! library. Encoder traces re-enter the same hot spots with recurring
//! fabric states frame after frame, and sweeps / the job server re-derive
//! identical plans across thousands of near-identical jobs, so the
//! [`PlanCache`] memoises the full decision under a canonical [`PlanKey`]:
//! a hit replays *exactly* the plan the planner would have produced —
//! bit-identity by construction, because the cache stores and verifies the
//! complete key material (a 64-bit collision degrades to a miss, never to
//! a wrong plan).
//!
//! # Key derivation
//!
//! The [`PlanKey`] is FNV-1a over little-endian `u64` words covering, in
//! order: the cache namespace (config hash XOR library fingerprint), the
//! scheduler kind, the fabric **epoch**, the tenant count and application
//! index, the explain flag, the usable/total container counts (the
//! quantized time-budget class of the plan), the demand suprema
//! `(SiId, expected)` pairs, the available-Atom multiset, the
//! contention-pressure vector, and a fabric-state fingerprint of every
//! container (state tag, loaded/loading/faulty atom, owner tag) — so the
//! loaded *and in-flight* atom multiset, owner tags and quarantine set all
//! separate keys.
//!
//! # Epoch-based invalidation
//!
//! Structural fabric changes — a container quarantine, a permanent tile
//! failure — bump the fabric's epoch counter, which is embedded in every
//! key derived afterwards, so a plan computed before the change can never
//! be replayed after it. (Tenant count and per-container owner tags are
//! key words too, so tenant join/leave and repartitioning separate keys by
//! construction even without an explicit bump.) Epochs only need to be
//! monotonic per arbiter; they are compared for key equality, never
//! ordered.
//!
//! # Sharding & determinism
//!
//! The cache is a fixed power-of-two array of `Mutex<HashMap>` shards
//! selected by the high key bits, so concurrent sweep workers rarely
//! contend. Sharing a cache across threads cannot perturb results: a
//! lookup only ever returns a plan whose *entire* key material matches,
//! and that plan is bit-identical to what the planner would recompute, so
//! run outcomes are independent of which worker inserted first. Only the
//! hit/miss counters are racy under sharing; per-run private caches (the
//! default) keep even those deterministic. Eviction clears a whole shard
//! when it reaches capacity — deterministic for a private cache, and
//! never observable in results either way.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rispp_model::{AtomTypeId, Molecule, SiLibrary};

use crate::explain::{ScheduleExplain, SelectionExplain};
use crate::types::SelectedMolecule;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Number of independent `Mutex<HashMap>` shards (power of two).
const SHARDS: usize = 16;

/// Entries per shard before the shard is cleared. The working set of a
/// fig7-shaped run is a handful of plans per (scheduler, container-count)
/// point, so 1024 per shard (16 Ki entries total) is far above steady
/// state while bounding memory for adversarial key churn.
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// FNV-1a over the little-endian bytes of `words` — the canonical
/// [`PlanKey`] digest.
#[must_use]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Canonical identity of one planning decision: the FNV-1a digest plus
/// the full key material it was computed over (kept so a digest collision
/// degrades to a cache miss instead of a wrong plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    hash: u64,
    words: Box<[u64]>,
}

impl PlanKey {
    /// Digests `words` into a key. The word layout is produced by the
    /// arbiter (see the module docs); any canonical encoding works as
    /// long as producers agree.
    #[must_use]
    pub fn from_words(words: &[u64]) -> Self {
        PlanKey {
            hash: fnv1a_words(words),
            words: words.into(),
        }
    }

    /// The 64-bit FNV-1a digest.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// A memoised planning decision: everything `plan_app` derives from its
/// inputs — the selected Molecule variants, the Atom loading sequence the
/// scheduler produced (FSFR/ASF/SJF/**HEF ordering** preserved verbatim)
/// and the plan's supremum, plus the captured explain records when the
/// inserting context had decision capture on.
#[derive(Debug)]
pub struct PlannedDecision {
    pub(crate) key: Box<[u64]>,
    pub(crate) selected: Vec<SelectedMolecule>,
    pub(crate) atoms: Vec<AtomTypeId>,
    pub(crate) supremum: Molecule,
    /// Present iff the key's explain flag was set: the explain records are
    /// themselves pure functions of the key material, so replaying them on
    /// a hit is bit-identical to recomputing them.
    pub(crate) explain: Option<Box<(SelectionExplain, ScheduleExplain)>>,
}

impl PlannedDecision {
    /// The selected Molecule variants.
    #[must_use]
    pub fn selected(&self) -> &[SelectedMolecule] {
        &self.selected
    }

    /// The Atom loading sequence, in scheduler order.
    #[must_use]
    pub fn atoms(&self) -> &[AtomTypeId] {
        &self.atoms
    }

    /// `sup(M)` of the selected Molecules.
    #[must_use]
    pub fn supremum(&self) -> &Molecule {
        &self.supremum
    }
}

/// Deterministic per-run plan-cache counters, surfaced through
/// `RunTimeManager::plan_cache_stats` / `FabricArbiter::plan_cache_stats`
/// and fed to the telemetry layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that replayed a memoised decision.
    pub hits: u64,
    /// Lookups that fell through to the planner.
    pub misses: u64,
    /// Decisions inserted after a miss.
    pub insertions: u64,
    /// Entries dropped by shard-capacity eviction, as observed by this
    /// run's insertions.
    pub evictions: u64,
    /// Fabric-epoch bumps (quarantine / permanent failure) that
    /// invalidated every previously cached plan for that fabric.
    pub epoch_bumps: u64,
}

impl PlanCacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Whether every counter is zero (cache disabled or never consulted).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == PlanCacheStats::default()
    }

    /// Accumulates `other` into `self` (telemetry merges).
    pub fn merge(&mut self, other: &PlanCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.epoch_bumps += other.epoch_bumps;
    }
}

/// Sharded, read-mostly, content-addressed cache of [`PlannedDecision`]s.
///
/// One instance may be private to a run (the default — deterministic
/// counters at any thread count), shared across the jobs of a
/// `SweepRunner`, or shared across the requests of a `rispp-serve` daemon
/// (namespaced by config hash via [`PlanCacheHandle::with_namespace`]).
/// See the module docs for the determinism argument.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<u64, Arc<PlannedDecision>>>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(SHARDS * DEFAULT_SHARD_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding up to roughly `capacity` decisions
    /// (rounded up to a whole number of shards, minimum one per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<HashMap<u64, Arc<PlannedDecision>>> {
        // High bits pick the shard; the HashMap mixes the rest.
        &self.shards[(hash >> 60) as usize & (SHARDS - 1)]
    }

    /// Looks up the decision memoised under `key`, verifying the *full*
    /// key material so a digest collision degrades to a miss. Alloc-free.
    #[must_use]
    pub fn lookup(&self, key_words: &[u64], hash: u64) -> Option<Arc<PlannedDecision>> {
        let shard = self.shard(hash).lock().unwrap_or_else(|e| e.into_inner());
        match shard.get(&hash) {
            Some(entry) if entry.key.as_ref() == key_words => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(entry))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoises `decision` under `hash`, returning the number of entries
    /// evicted to make room (a whole shard is cleared when it reaches
    /// capacity — deterministic for a private cache).
    pub fn insert(&self, hash: u64, decision: PlannedDecision) -> u64 {
        let mut shard = self.shard(hash).lock().unwrap_or_else(|e| e.into_inner());
        let mut evicted = 0u64;
        if shard.len() >= self.shard_capacity && !shard.contains_key(&hash) {
            evicted = shard.len() as u64;
            shard.clear();
        }
        shard.insert(hash, Arc::new(decision));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Number of memoised decisions across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache holds no decisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoised decision (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Lifetime totals across every user of this cache instance —
    /// **racy under sharing** (gauges for the serve metrics endpoint);
    /// use the per-run [`PlanCacheStats`] for deterministic numbers.
    /// `epoch_bumps` is always 0 here: a bump happens in one run's
    /// arbiter, and only that run's stats count it.
    #[must_use]
    pub fn totals(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_bumps: 0,
        }
    }
}

/// A reference to a (possibly shared) [`PlanCache`] plus the namespace
/// word folded into every key derived through it. Namespacing keeps
/// different configurations (serve: different config hashes; sweeps:
/// different jobs only where their planning inputs genuinely differ)
/// from colliding while letting identical configurations share plans.
#[derive(Debug, Clone)]
pub struct PlanCacheHandle {
    cache: Arc<PlanCache>,
    namespace: u64,
}

impl Default for PlanCacheHandle {
    fn default() -> Self {
        PlanCacheHandle::new(Arc::new(PlanCache::default()))
    }
}

impl PlanCacheHandle {
    /// Wraps `cache` with the default (zero) namespace.
    #[must_use]
    pub fn new(cache: Arc<PlanCache>) -> Self {
        PlanCacheHandle {
            cache,
            namespace: 0,
        }
    }

    /// A handle over a fresh private cache — the intra-run default.
    #[must_use]
    pub fn private() -> Self {
        PlanCacheHandle::default()
    }

    /// Returns the handle with `namespace` folded into every key
    /// (`rispp-serve` uses the request's config hash).
    #[must_use]
    pub fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// The namespace word.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The underlying cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }
}

/// FNV-1a fingerprint of the structural content of `library` — folded
/// into the key namespace so two libraries with identical shapes but
/// different latencies/atom mixes can never share plans through a shared
/// cache.
#[must_use]
pub fn library_fingerprint(library: &SiLibrary) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    mix(library.arity() as u64);
    mix(library.len() as u64);
    for i in 0..library.len() {
        let def = library
            .si(rispp_model::SiId(i as u16))
            .expect("index within library");
        mix(u64::from(def.software_latency()));
        mix(def.variants().len() as u64);
        for variant in def.variants() {
            mix(u64::from(variant.latency));
            for &count in variant.atoms.counts() {
                mix(u64::from(count));
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(key: &[u64]) -> PlannedDecision {
        PlannedDecision {
            key: key.into(),
            selected: Vec::new(),
            atoms: vec![AtomTypeId(1), AtomTypeId(0)],
            supremum: Molecule::zero(2),
            explain: None,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // FNV-1a of the empty input is the offset basis; of a single zero
        // byte it is offset ^ 0 then * prime, eight times for one word.
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
        let mut expect = FNV_OFFSET;
        for _ in 0..8 {
            expect = expect.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a_words(&[0]), expect);
        assert_ne!(fnv1a_words(&[1]), fnv1a_words(&[2]));
    }

    #[test]
    fn lookup_verifies_full_key_material() {
        let cache = PlanCache::new(64);
        let key = [1u64, 2, 3];
        let hash = fnv1a_words(&key);
        cache.insert(hash, decision(&key));
        assert!(cache.lookup(&key, hash).is_some());
        // Same digest, different material (simulated collision): miss.
        let other = [9u64, 9, 9];
        assert!(cache.lookup(&other, hash).is_none());
        let totals = cache.totals();
        assert_eq!((totals.hits, totals.misses), (1, 1));
    }

    #[test]
    fn shard_eviction_clears_and_counts() {
        let cache = PlanCache::new(SHARDS); // one entry per shard
        let mut evicted_total = 0;
        for word in 0..64u64 {
            let key = [word];
            evicted_total += cache.insert(fnv1a_words(&key), decision(&key));
        }
        assert!(evicted_total > 0, "capacity-1 shards must evict");
        assert!(cache.len() <= SHARDS);
        assert_eq!(cache.totals().evictions, evicted_total);
    }

    #[test]
    fn namespaces_separate_keys() {
        let a = PlanKey::from_words(&[7, 1, 2]);
        let b = PlanKey::from_words(&[8, 1, 2]);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a, b);
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = PlanCacheStats {
            hits: 7,
            misses: 3,
            ..PlanCacheStats::default()
        };
        let b = PlanCacheStats {
            hits: 3,
            misses: 7,
            insertions: 7,
            evictions: 1,
            epoch_bumps: 2,
        };
        a.merge(&b);
        assert_eq!(a.lookups(), 20);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert!(!a.is_zero());
        assert!(PlanCacheStats::default().is_zero());
    }
}
