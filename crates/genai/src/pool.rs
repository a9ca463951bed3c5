//! Reusable scratch-buffer pools for the generation hot path.
//!
//! Every denoise job needs three `GRID²` f64 fields (target, latent,
//! per-step noise scratch) and every decode needs a `width×height` f64
//! noise plane. Allocating those per job is what made the pre-PR-6 kernel
//! "allocation-happy": a server at steady state churned megabytes of
//! short-lived heap per second. A [`BufferPool`] keeps returned buffers on
//! a bounded shelf and hands them back out, so after warmup the hot path
//! performs **zero large allocations** — a property the metrics below let
//! tests and dashboards assert rather than assume.
//!
//! # Metrics
//!
//! * `sww_pool_acquired_total{pool,outcome}` — acquisitions, split into
//!   `reuse` (served from the shelf) and `alloc` (fresh heap).
//! * `sww_pool_recycled_total{pool}` — buffers returned to the shelf on
//!   [`PooledF64`] drop.
//! * `sww_alloc_bytes_total{pool}` — bytes of fresh heap the pool had to
//!   allocate. Flat across a time window ⇔ no large allocations occurred.
//!
//! Pooling never changes pixels: a pooled buffer is fully overwritten
//! before use (the kernel writes every cell), so reuse is invisible to
//! the bit-identity suites.
//!
//! # Example
//!
//! ```
//! let mut buf = sww_genai::decode_pool().acquire(16);
//! buf.iter_mut().for_each(|v| *v = 1.0);
//! assert_eq!(buf.len(), 16);
//! drop(buf); // recycled onto the shelf, not freed
//! let again = sww_genai::decode_pool().acquire(16);
//! assert_eq!(again.len(), 16);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// Upper bound on shelved buffers per pool: enough for the largest batch
/// a server realistically denoises at once, small enough to bound idle
/// memory (256 × GRID² × 8 B = 2 MiB for the latent pool).
const MAX_SHELVED: usize = 256;

/// A bounded shelf of reusable `f64` scratch buffers.
///
/// Buffers of any length share one shelf; [`BufferPool::acquire`] picks
/// the first shelved buffer whose capacity fits and resizes it (a
/// capacity-preserving operation when it fits — no heap traffic).
#[derive(Debug)]
pub struct BufferPool {
    name: &'static str,
    shelf: Mutex<Vec<Vec<f64>>>,
}

impl BufferPool {
    /// An empty pool named `name` (the `pool` metric label).
    pub(crate) const fn new(name: &'static str) -> BufferPool {
        BufferPool {
            name,
            shelf: Mutex::new(Vec::new()),
        }
    }

    /// Check out a zero-filled buffer of exactly `len` elements.
    ///
    /// Serves from the shelf when a shelved buffer's capacity fits
    /// (outcome `reuse`); otherwise allocates (outcome `alloc`, counted
    /// in `sww_alloc_bytes_total`). Dropping the handle recycles the
    /// buffer back onto this shelf.
    pub fn acquire(&'static self, len: usize) -> PooledF64 {
        let reused = {
            let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
            shelf
                .iter()
                .position(|b| b.capacity() >= len)
                .map(|i| shelf.swap_remove(i))
        };
        let buf = match reused {
            Some(mut buf) => {
                sww_obs::counter(
                    "sww_pool_acquired_total",
                    &[("pool", self.name), ("outcome", "reuse")],
                )
                .inc();
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                sww_obs::counter(
                    "sww_pool_acquired_total",
                    &[("pool", self.name), ("outcome", "alloc")],
                )
                .inc();
                sww_obs::counter("sww_alloc_bytes_total", &[("pool", self.name)])
                    .add((len * std::mem::size_of::<f64>()) as u64);
                vec![0.0; len]
            }
        };
        PooledF64 { buf, pool: self }
    }

    /// Deterministically grow the shelf until `count` buffers of at least
    /// `len` cells are available.
    ///
    /// Organic warmup (just running the workload) only shelves as many
    /// buffers as were ever live *at once*, which for concurrent kernel
    /// tiles depends on thread scheduling — a warmed run can still
    /// allocate when the measured phase first reaches peak concurrency.
    /// Prewarming `count` = the worst-case concurrency makes the
    /// steady-state zero-allocation property exact rather than probable.
    pub fn prewarm(&'static self, count: usize, len: usize) {
        // Holding all `count` handles at once forces the shelf to cover
        // the full working set before any are returned.
        let held: Vec<PooledF64> = (0..count).map(|_| self.acquire(len)).collect();
        drop(held);
    }

    fn recycle(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
        if shelf.len() < MAX_SHELVED {
            sww_obs::counter("sww_pool_recycled_total", &[("pool", self.name)]).inc();
            shelf.push(buf);
        }
        // Over MAX_SHELVED the buffer simply drops: the shelf bounds idle
        // memory, and a burst larger than the shelf degrades to plain
        // allocation instead of hoarding.
    }
}

/// A checked-out pool buffer; derefs to `[f64]` and recycles on drop.
pub struct PooledF64 {
    buf: Vec<f64>,
    pool: &'static BufferPool,
}

impl Deref for PooledF64 {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl DerefMut for PooledF64 {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for PooledF64 {
    fn drop(&mut self) {
        self.pool.recycle(std::mem::take(&mut self.buf));
    }
}

impl Clone for PooledF64 {
    fn clone(&self) -> PooledF64 {
        let mut out = self.pool.acquire(self.buf.len());
        out.copy_from_slice(&self.buf);
        out
    }
}

impl std::fmt::Debug for PooledF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PooledF64(pool={}, len={})",
            self.pool.name,
            self.buf.len()
        )
    }
}

static LATENT_POOL: BufferPool = BufferPool::new("latent");
static DECODE_POOL: BufferPool = BufferPool::new("decode_noise");

/// The shared pool for `GRID²` latent-space fields (latent, target, and
/// per-step noise scratch).
pub fn latent_pool() -> &'static BufferPool {
    &LATENT_POOL
}

/// The shared pool for `width × height` decode-time noise planes.
pub fn decode_pool() -> &'static BufferPool {
    &DECODE_POOL
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BufferPool {
        /// Number of buffers currently shelved.
        fn shelved(&self) -> usize {
            self.shelf.lock().unwrap_or_else(|e| e.into_inner()).len()
        }
    }

    // One private pool per test: the global latent/decode pools are shared
    // with every other test in the binary, so assertions on shelf contents
    // use a dedicated static.

    #[test]
    fn acquire_is_zeroed_even_after_reuse() {
        static POOL: BufferPool = BufferPool::new("test_zeroed");
        let mut a = POOL.acquire(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        drop(a);
        let b = POOL.acquire(8);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be zeroed");
    }

    #[test]
    fn drop_recycles_and_reuses_capacity() {
        static POOL: BufferPool = BufferPool::new("test_recycle");
        let a = POOL.acquire(32);
        let ptr = a.as_ptr();
        drop(a);
        assert_eq!(POOL.shelved(), 1);
        let b = POOL.acquire(32);
        assert_eq!(POOL.shelved(), 0);
        assert_eq!(b.as_ptr(), ptr, "same heap block must come back");
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        static POOL: BufferPool = BufferPool::new("test_shrink");
        drop(POOL.acquire(64));
        let b = POOL.acquire(16);
        assert_eq!(b.len(), 16);
        assert_eq!(POOL.shelved(), 0, "the 64-cap buffer was reused");
    }

    #[test]
    fn larger_request_allocates_fresh() {
        static POOL: BufferPool = BufferPool::new("test_grow");
        drop(POOL.acquire(8));
        let b = POOL.acquire(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(POOL.shelved(), 1, "the small buffer stays shelved");
    }

    #[test]
    fn clone_is_a_distinct_pooled_buffer() {
        static POOL: BufferPool = BufferPool::new("test_clone");
        let mut a = POOL.acquire(4);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = a.clone();
        assert_eq!(&*a, &*b);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn prewarm_covers_the_working_set_once() {
        static POOL: BufferPool = BufferPool::new("test_prewarm");
        POOL.prewarm(4, 16);
        assert_eq!(POOL.shelved(), 4);
        let bytes = || sww_obs::counter("sww_alloc_bytes_total", &[("pool", "test_prewarm")]).get();
        let after_first = bytes();
        // A second prewarm of the same working set is pure reuse.
        POOL.prewarm(4, 16);
        assert_eq!(POOL.shelved(), 4);
        assert_eq!(bytes(), after_first);
    }

    #[test]
    fn alloc_bytes_counter_tracks_fresh_heap_only() {
        static POOL: BufferPool = BufferPool::new("test_bytes");
        let bytes = || sww_obs::counter("sww_alloc_bytes_total", &[("pool", "test_bytes")]).get();
        let before = bytes();
        drop(POOL.acquire(100));
        let after_alloc = bytes();
        assert_eq!(after_alloc - before, 800);
        drop(POOL.acquire(100)); // reuse: no new bytes
        assert_eq!(bytes(), after_alloc);
    }
}
