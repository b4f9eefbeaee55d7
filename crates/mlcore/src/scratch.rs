//! Per-worker scratch arenas for hot training loops.
//!
//! With the study grid flattened to per-evaluation work units, thousands
//! of short-lived model fits run on a handful of study worker threads,
//! each alive for a whole study. The big temporaries (GBDT gradient/score vectors, tree row
//! partitions, kNN neighbour candidates) used to be allocated fresh per fit
//! or per prediction; these thread-local pools let each worker reuse the
//! same buffers across units instead.
//!
//! Usage: [`take_f64`] / [`take_usize`] / [`take_pairs`] hand out a
//! cleared buffer (recycled when one is pooled, freshly allocated
//! otherwise) behind a guard that dereferences to `Vec<_>` and returns
//! the buffer to the *current* thread's pool on drop. Buffers therefore
//! migrate harmlessly if a guard crosses threads, and nothing here
//! affects results — only allocation traffic.

use std::cell::RefCell;

/// Buffers kept per pool and type; beyond this, dropped buffers are
/// simply freed.
const MAX_POOLED: usize = 16;

macro_rules! scratch_pool {
    ($(#[$doc:meta])* $pool:ident, $take:ident, $guard:ident, $ty:ty) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
        }

        $(#[$doc])*
        pub struct $guard {
            buf: Vec<$ty>,
        }

        impl std::ops::Deref for $guard {
            type Target = Vec<$ty>;

            fn deref(&self) -> &Vec<$ty> {
                &self.buf
            }
        }

        impl std::ops::DerefMut for $guard {
            fn deref_mut(&mut self) -> &mut Vec<$ty> {
                &mut self.buf
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                let buf = std::mem::take(&mut self.buf);
                // try_with: during thread teardown the TLS pool may be
                // gone already — then the buffer just drops.
                let _ = $pool.try_with(|pool| {
                    let mut pool = pool.borrow_mut();
                    if pool.len() < MAX_POOLED {
                        pool.push(buf);
                    }
                });
            }
        }

        /// Takes an empty pooled buffer (capacity retained from earlier
        /// uses on this thread).
        pub fn $take() -> $guard {
            let mut buf = $pool
                .try_with(|pool| pool.borrow_mut().pop())
                .ok()
                .flatten()
                .unwrap_or_default();
            buf.clear();
            $guard { buf }
        }
    };
}

scratch_pool!(
    /// A pooled `Vec<f64>` (GBDT scores, gradients, hessians).
    F64_POOL, take_f64, F64Scratch, f64
);
scratch_pool!(
    /// A pooled `Vec<usize>` (tree row-index partitions).
    USIZE_POOL, take_usize, UsizeScratch, usize
);
scratch_pool!(
    /// A pooled `Vec<(f64, usize)>` (kNN (distance, index) candidates, tree
    /// leaf (value, row-group end) lists).
    PAIRS_POOL, take_pairs, PairsScratch, (f64, usize)
);
scratch_pool!(
    /// A pooled `Vec<f32>` (histogram quad buffers).
    F32_POOL, take_f32, F32Scratch, f32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_cleared_buffer_and_recycles_capacity() {
        let ptr;
        {
            let mut buf = take_f64();
            assert!(buf.is_empty());
            buf.extend([1.0, 2.0, 3.0]);
            buf.reserve(100);
            ptr = buf.as_ptr();
        }
        // Same thread, nothing else pooled in between: the recycled
        // buffer comes back cleared but with its allocation intact.
        let again = take_f64();
        assert!(again.is_empty());
        assert!(again.capacity() >= 100);
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn pools_are_per_type() {
        let mut a = take_usize();
        a.push(7);
        let b = take_pairs();
        assert!(b.is_empty());
    }

    #[test]
    fn nested_takes_hand_out_distinct_buffers() {
        let mut a = take_f64();
        let mut b = take_f64();
        a.push(1.0);
        b.push(2.0);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn guard_dropped_on_other_thread_is_harmless() {
        let buf = take_usize();
        std::thread::spawn(move || drop(buf)).join().unwrap();
        let _ = take_usize();
    }
}
