//! In-process artifact cache: compile once, run (and sweep) many.
//!
//! `rv-nvdla run` used to recompile its model on every invocation, and a
//! configuration sweep recompiled once per swept point. Compilation is
//! deterministic in `(network, CompileOptions)`, so its results are
//! perfectly cacheable: [`ArtifactCache`] memoizes [`compile`] outputs
//! behind [`Arc`]s that sweeps can share across threads without cloning
//! megabytes of weights.
//!
//! The cache is in-memory only; the key type is stable and printable
//! so a disk layer can slot in underneath later.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rvnv_nn::graph::Network;

use crate::compile::{compile, Artifacts, CompileError, CompileOptions};

/// Cache key: model identity plus the full compile-options fingerprint.
///
/// Model identity is the display name **and**
/// [`Network::content_fingerprint`] — structure and weight values — so
/// two networks sharing a name (the same zoo model built from different
/// seeds) never alias. `CompileOptions` does not implement `Hash`/`Eq`
/// (it holds floats via `HwConfig`), but its `Debug` rendering covers
/// every field, is stable within a build, and is cheap to produce
/// relative to a compile — so it serves as the options fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Model (network) name.
    pub model: String,
    /// Content fingerprint of the network (structure + weights).
    pub network: u64,
    /// `Debug` rendering of the [`CompileOptions`].
    pub options: String,
}

impl CacheKey {
    /// Build the key for a `(network, options)` pair.
    #[must_use]
    pub fn of(net: &Network, options: &CompileOptions) -> Self {
        CacheKey {
            model: net.name().to_string(),
            network: net.content_fingerprint(),
            options: format!("{options:?}"),
        }
    }
}

/// A thread-safe memo table in front of [`compile`].
///
/// Hits return a shared [`Arc<Artifacts>`] without copying the weight
/// image; misses compile outside the lock, so a slow compilation never
/// blocks hits on other keys. Two threads racing on the *same* cold key
/// may both compile; the results are identical (compilation is
/// deterministic) and one wins the insert.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    entries: Mutex<HashMap<CacheKey, Arc<Artifacts>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl ArtifactCache {
    /// Create an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile `net` with `options`, or return the cached artifacts for
    /// an identical earlier compilation.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] from the underlying compilation (errors
    /// are not cached; a failing key retries on every call).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking compile on
    /// another thread.
    pub fn get_or_compile(
        &self,
        net: &Network,
        options: &CompileOptions,
    ) -> Result<Arc<Artifacts>, CompileError> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = CacheKey::of(net, options);
        if let Some(hit) = self.entries.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return Ok(hit.clone());
        }
        // Compile outside the lock; last writer wins on a racing key.
        let artifacts = Arc::new(compile(net, options)?);
        self.misses.fetch_add(1, Relaxed);
        let mut entries = self.entries.lock().expect("cache lock");
        Ok(entries.entry(key).or_insert(artifacts).clone())
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cache misses (actual compilations) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of cached compilations.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvnv_nn::zoo;

    fn int8_quick() -> CompileOptions {
        let mut o = CompileOptions::int8();
        o.calib_inputs = 1;
        o
    }

    #[test]
    fn second_compile_hits_and_shares_the_artifacts() {
        let cache = ArtifactCache::new();
        let net = zoo::lenet5(1);
        let a = cache.get_or_compile(&net, &int8_quick()).unwrap();
        let b = cache.get_or_compile(&net, &int8_quick()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same allocation");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let cache = ArtifactCache::new();
        let net = zoo::lenet5(1);
        let fused = cache.get_or_compile(&net, &int8_quick()).unwrap();
        let unfused = cache.get_or_compile(&net, &int8_quick().unfused()).unwrap();
        assert!(!Arc::ptr_eq(&fused, &unfused));
        assert_eq!(cache.misses(), 2);
        assert!(
            unfused.ops.len() > fused.ops.len(),
            "unfused lowers more ops"
        );
    }

    #[test]
    fn same_name_different_weights_are_distinct_entries() {
        // zoo::lenet5(seed) always names the network "LeNet-5"; the key
        // must see the weight content, not just the name.
        let cache = ArtifactCache::new();
        let a = cache
            .get_or_compile(&zoo::lenet5(1), &int8_quick())
            .unwrap();
        let b = cache
            .get_or_compile(&zoo::lenet5(2), &int8_quick())
            .unwrap();
        assert_eq!(cache.misses(), 2, "different seeds must both compile");
        assert_ne!(
            a.weights.fingerprint(),
            b.weights.fingerprint(),
            "distinct weight images"
        );
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let net = zoo::lenet5(1);
        let mut bad = int8_quick();
        bad.dram_bytes = 1 << 12;
        assert!(cache.get_or_compile(&net, &bad).is_err());
        assert!(cache.is_empty());
        // Same model with workable options still compiles.
        assert!(cache.get_or_compile(&net, &int8_quick()).is_ok());
    }

    #[test]
    fn threads_share_one_compilation_per_key() {
        let cache = ArtifactCache::new();
        let net = zoo::lenet5(1);
        // Warm the key first so the racing-miss path is not in play.
        let first = cache.get_or_compile(&net, &int8_quick()).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let a = cache.get_or_compile(&net, &int8_quick()).unwrap();
                    assert!(Arc::ptr_eq(&a, &first));
                });
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
    }
}
