//! Memoized compilation: a per-model cache of compiled (and optimized)
//! programs keyed on evaluation mode and input geometry.
//!
//! Before this cache existed, every `logits`/`predict` call re-walked
//! the model, re-emitted the operator graph and deep-copied all weights
//! into `Program::consts`. With [`CompileCache`] the compile happens
//! once per `(mode, geometry)` and every subsequent request clones a
//! cheap [`Program`]: a clone shares the op list, the constants and the
//! execution plan, so it copies no op and no weight. `onesa-nn`'s models
//! each own one (cleared by `fit`, which
//! invalidates the baked-in weights).
//!
//! # Example
//!
//! ```
//! use onesa_plan::{CompileCache, EvalMode, Op, Program};
//! use onesa_tensor::Tensor;
//!
//! let cache = CompileCache::new();
//! let build = || {
//!     let mut b = Program::builder("mlp", EvalMode::Exact);
//!     let x = b.input(&[2, 4]);
//!     let w = b.constant(Tensor::zeros(&[4, 3]));
//!     b.push(Op::Gemm { bias: None, sparsity: None }, &[x, w]);
//!     b.finish()
//! };
//! let a = cache.get_or_compile(EvalMode::Exact, &[2, 4], 0, build)?;
//! let b2 = cache.get_or_compile(EvalMode::Exact, &[2, 4], 0, build)?;
//! assert!(std::sync::Arc::ptr_eq(&a, &b2)); // compiled once
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::program::{EvalMode, Program};
use onesa_tensor::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cache key: evaluation mode, input geometry and a caller-chosen
/// salt (a causal LM uses it to separate its prefill and decode
/// programs). An entry stored by
/// [`CompileCache::get_or_compile_matching`] has no salt: only its own
/// `same` test finds it.
#[derive(Debug, Clone)]
struct Key {
    mode: EvalMode,
    geometry: Vec<usize>,
    salt: Option<u64>,
}

/// A thread-safe memo of compiled programs. See the module docs above.
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: Mutex<Vec<(Key, Arc<Program>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for CompileCache {
    /// Clones the cached entries (cheap — programs are `Arc`-shared) and
    /// resets the hit/miss counters.
    fn clone(&self) -> Self {
        CompileCache {
            entries: Mutex::new(self.entries.lock().expect("cache lock").clone()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// Returns the cached program for `(mode, geometry, salt)`, or runs
    /// `build` once, caches its result and returns it. A geometry (or
    /// mode, or salt) change is simply a different key — old entries
    /// stay valid, so a model serving several input shapes compiles
    /// each shape once.
    ///
    /// # Errors
    ///
    /// Whatever `build` reports; failed builds are not cached.
    pub fn get_or_compile(
        &self,
        mode: EvalMode,
        geometry: &[usize],
        salt: u64,
        build: impl FnOnce() -> Result<Program>,
    ) -> Result<Arc<Program>> {
        let salt = Some(salt);
        self.lookup(mode, geometry, |cached, _| cached == salt, salt, build)
    }

    /// [`CompileCache::get_or_compile`] for a program that bakes in a
    /// tensor too large to hash on every call (a GCN's 420 × 420 `Â`
    /// costs [`crate::tensor_fingerprint`] ~23 µs even at its 64 lanes'
    /// memory speed, where shared storage is recognised in O(1)): an entry
    /// for `(mode, geometry)` is a hit when `same(program)` confirms it — an
    /// exact compare against the constant the program already holds, O(1)
    /// when that constant shares the caller's tensor's storage (it was
    /// compiled from a clone of it; see [`crate::same_tensor`]), an
    /// early-exit compare otherwise. Nothing is hashed; the new
    /// entry of a miss is stored without a salt, so only a matching lookup
    /// ever finds it.
    ///
    /// # Errors
    ///
    /// Whatever `build` reports; failed builds are not cached.
    pub fn get_or_compile_matching(
        &self,
        mode: EvalMode,
        geometry: &[usize],
        same: impl Fn(&Program) -> bool,
        build: impl FnOnce() -> Result<Program>,
    ) -> Result<Arc<Program>> {
        let hit = |salt: Option<u64>, program: &Program| salt.is_none() && same(program);
        self.lookup(mode, geometry, hit, None, build)
    }

    /// The one lookup: the first `(mode, geometry)` entry that `hit`
    /// accepts (given its salt and program), else `build`'s result, stored
    /// under `salt`.
    fn lookup(
        &self,
        mode: EvalMode,
        geometry: &[usize],
        hit: impl Fn(Option<u64>, &Program) -> bool,
        salt: Option<u64>,
        build: impl FnOnce() -> Result<Program>,
    ) -> Result<Arc<Program>> {
        let mut entries = self.entries.lock().expect("cache lock");
        if let Some((_, program)) = entries
            .iter()
            .find(|(k, program)| k.mode == mode && k.geometry == geometry && hit(k.salt, program))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(program));
        }
        // Build under the lock: concurrent first requests for one
        // geometry compile once, not racily twice.
        let program = Arc::new(build()?);
        let key = Key {
            mode,
            geometry: geometry.to_vec(),
            salt,
        };
        entries.push((key, Arc::clone(&program)));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(program)
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since construction (or [`CompileCache::clear`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= compiles performed) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every entry and resets the counters. Model `fit` methods
    /// call this: training rewrites the weights baked into cached
    /// programs.
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;
    use onesa_tensor::Tensor;

    fn build(m: usize) -> Result<Program> {
        let mut b = Program::builder("t", EvalMode::Exact);
        let x = b.input(&[m, 4]);
        let w = b.constant(Tensor::zeros(&[4, 3]));
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w],
        );
        b.finish()
    }

    #[test]
    fn hits_reuse_the_same_arc_with_a_stable_fingerprint() {
        let cache = CompileCache::new();
        let a = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        let b = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn geometry_mode_and_salt_changes_invalidate() {
        let cache = CompileCache::new();
        let a = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        let g = cache
            .get_or_compile(EvalMode::Exact, &[3, 4], 0, || build(3))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &g));
        let cpwl = EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        };
        let unq = EvalMode::Cpwl {
            granularity: 0.25,
            quantize: false,
        };
        let m1 = cache.get_or_compile(cpwl, &[2, 4], 0, || build(2)).unwrap();
        let m2 = cache.get_or_compile(unq, &[2, 4], 0, || build(2)).unwrap();
        assert!(!Arc::ptr_eq(&m1, &m2), "quantize flag must split the key");
        let s = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 7, || build(2))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &s));
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn matching_lookup_confirms_by_program_alone() {
        let cache = CompileCache::new();
        let get = |rows: usize| {
            cache
                .get_or_compile_matching(
                    EvalMode::Exact,
                    &[2, 4],
                    |p| p.input_shapes()[0][0] == rows,
                    || build(rows),
                )
                .unwrap()
        };
        let a = get(2);
        let b = get(3); // same key geometry, rejected by `same`
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &get(2)));
        assert!(Arc::ptr_eq(&b, &get(3)));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // A matching entry has no salt, so no salted lookup meets it, and
        // a salted entry is invisible to a matching lookup.
        let salted = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 3, || build(3))
            .unwrap();
        assert!(!Arc::ptr_eq(&b, &salted));
        assert!(Arc::ptr_eq(&b, &get(3)));
        let fresh = CompileCache::new();
        let _ = fresh.get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2));
        let matched =
            fresh.get_or_compile_matching(EvalMode::Exact, &[2, 4], |_| true, || build(2));
        assert_eq!((fresh.hits(), fresh.misses(), fresh.len()), (0, 2, 2));
        assert!(matched.is_ok());
    }

    #[test]
    fn clear_drops_entries_and_failed_builds_are_not_cached() {
        let cache = CompileCache::new();
        assert!(cache.is_empty());
        let err = cache.get_or_compile(EvalMode::Exact, &[2, 4], 0, || {
            Err(onesa_tensor::TensorError::InvalidArgument("nope"))
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
        let _ = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn clone_keeps_entries_but_resets_counters() {
        let cache = CompileCache::new();
        let a = cache
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        let c = cache.clone();
        assert_eq!(c.len(), 1);
        assert_eq!((c.hits(), c.misses()), (0, 0));
        let b = c
            .get_or_compile(EvalMode::Exact, &[2, 4], 0, || build(2))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
