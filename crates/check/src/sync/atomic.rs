//! Checked atomics.
//!
//! Each type wraps the real `std` atomic: outside a checker run every
//! method is a plain passthrough with the caller's ordering. Inside a
//! run, every access is a scheduling point; the value operation executes
//! with `SeqCst` on the real atomic (the scheduler owns interleaving —
//! value-level weak-memory reordering is *not* modeled), while the
//! happens-before effect applied to the vector clocks follows the
//! ordering the call site **claims**. A too-weak claimed ordering
//! therefore shows up as a missing happens-before edge — caught by the
//! `RaceCell` race detector or the acquire/relaxed pairing check.

pub use std::sync::atomic::Ordering;

use crate::engine::with_ctx;

macro_rules! checked_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty, [$($int_ops:tt)*]) => {
        $(#[$doc])*
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new checked atomic (usable in statics).
            #[must_use]
            pub const fn new(v: $prim) -> Self {
                $name { inner: std::sync::atomic::$std::new(v) }
            }

            fn addr(&self) -> usize {
                std::ptr::from_ref(self) as usize
            }

            /// Loads the value.
            #[track_caller]
            pub fn load(&self, ord: Ordering) -> $prim {
                let loc = std::panic::Location::caller();
                match with_ctx(Clone::clone) {
                    Some(ctx) => {
                        ctx.engine.op_yield(ctx.tid, loc);
                        let v = self.inner.load(Ordering::SeqCst);
                        ctx.engine.note_load(ctx.tid, self.addr(), ord, loc);
                        v
                    }
                    None => self.inner.load(ord),
                }
            }

            /// Stores a value.
            #[track_caller]
            pub fn store(&self, v: $prim, ord: Ordering) {
                let loc = std::panic::Location::caller();
                match with_ctx(Clone::clone) {
                    Some(ctx) => {
                        ctx.engine.op_yield(ctx.tid, loc);
                        self.inner.store(v, Ordering::SeqCst);
                        ctx.engine.note_store(ctx.tid, self.addr(), ord, loc);
                    }
                    None => self.inner.store(v, ord),
                }
            }

            /// Swaps the value, returning the previous one.
            #[track_caller]
            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                let loc = std::panic::Location::caller();
                match with_ctx(Clone::clone) {
                    Some(ctx) => {
                        ctx.engine.op_yield(ctx.tid, loc);
                        let prev = self.inner.swap(v, Ordering::SeqCst);
                        ctx.engine.note_rmw(ctx.tid, self.addr(), ord, loc);
                        prev
                    }
                    None => self.inner.swap(v, ord),
                }
            }

            /// Compare-and-exchange.
            ///
            /// # Errors
            /// Returns the actual value when it did not match `current`.
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let loc = std::panic::Location::caller();
                match with_ctx(Clone::clone) {
                    Some(ctx) => {
                        ctx.engine.op_yield(ctx.tid, loc);
                        let r = self
                            .inner
                            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                        ctx.engine
                            .note_cas(ctx.tid, self.addr(), success, failure, r.is_ok(), loc);
                        r
                    }
                    None => self.inner.compare_exchange(current, new, success, failure),
                }
            }

            /// Weak compare-and-exchange (modeled without spurious
            /// failures: the controlled scheduler owns all
            /// nondeterminism).
            ///
            /// # Errors
            /// Returns the actual value when it did not match `current`.
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            checked_atomic!(@int $prim, $($int_ops)*);
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Raw read: diagnostics must not perturb the schedule.
                f.debug_tuple(stringify!($name))
                    .field(&self.inner.load(Ordering::Relaxed))
                    .finish()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new(Default::default())
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                $name::new(v)
            }
        }
    };

    (@int $prim:ty, int) => {
        /// Adds to the value, returning the previous one.
        #[track_caller]
        pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
            let loc = std::panic::Location::caller();
            match with_ctx(Clone::clone) {
                Some(ctx) => {
                    ctx.engine.op_yield(ctx.tid, loc);
                    let prev = self.inner.fetch_add(v, Ordering::SeqCst);
                    ctx.engine.note_rmw(ctx.tid, self.addr(), ord, loc);
                    prev
                }
                None => self.inner.fetch_add(v, ord),
            }
        }

        /// Subtracts from the value, returning the previous one.
        #[track_caller]
        pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
            let loc = std::panic::Location::caller();
            match with_ctx(Clone::clone) {
                Some(ctx) => {
                    ctx.engine.op_yield(ctx.tid, loc);
                    let prev = self.inner.fetch_sub(v, Ordering::SeqCst);
                    ctx.engine.note_rmw(ctx.tid, self.addr(), ord, loc);
                    prev
                }
                None => self.inner.fetch_sub(v, ord),
            }
        }

        /// Maximum of the value and `v`, returning the previous value.
        #[track_caller]
        pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
            let loc = std::panic::Location::caller();
            match with_ctx(Clone::clone) {
                Some(ctx) => {
                    ctx.engine.op_yield(ctx.tid, loc);
                    let prev = self.inner.fetch_max(v, Ordering::SeqCst);
                    ctx.engine.note_rmw(ctx.tid, self.addr(), ord, loc);
                    prev
                }
                None => self.inner.fetch_max(v, ord),
            }
        }
    };
    (@int $prim:ty,) => {};
}

checked_atomic!(
    /// Checked `AtomicBool`.
    AtomicBool, AtomicBool, bool, []
);
checked_atomic!(
    /// Checked `AtomicU32`.
    AtomicU32, AtomicU32, u32, [int]
);
checked_atomic!(
    /// Checked `AtomicU64`.
    AtomicU64, AtomicU64, u64, [int]
);
checked_atomic!(
    /// Checked `AtomicUsize`.
    AtomicUsize, AtomicUsize, usize, [int]
);
checked_atomic!(
    /// Checked `AtomicI64`.
    AtomicI64, AtomicI64, i64, [int]
);
