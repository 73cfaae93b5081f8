//! `@ThreadLocalField` and `@Reduce` — per-thread copies of object fields.
//!
//! The paper (§III-C): object fields can be instantiated *per thread* to
//! avoid synchronisation. Each thread-local copy is initialised **with the
//! value of the field outside the thread-local context if the first
//! access is a read**; if the first access is a write the copy is *not*
//! initialised from the global value. `@Reduce` later merges the
//! thread-local copies back into the single global value using a reducer
//! (the annotation style requires the value type to implement the reducer
//! interface; the pointcut style supplies a merge method) — typically when
//! the value is requested outside the thread-local context.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// Merges thread-local copies into an accumulated value — the paper's
/// reducer interface.
pub trait Reducer<T> {
    /// Fold `v` into `acc`.
    fn merge(&self, acc: &mut T, v: T);
}

struct LocalCell<T> {
    value: Option<T>,
    /// Creation sequence number, for deterministic reduce order.
    seq: u64,
}

/// A field with one copy per accessing thread (`@ThreadLocalField`).
///
/// Outside any access the field has a *global* value; each thread that
/// touches the field gets a private copy following the paper's
/// initialisation rule, and [`reduce`](Self::reduce) merges the copies
/// back (`@Reduce`).
pub struct ThreadLocalField<T> {
    global: Mutex<T>,
    locals: Mutex<HashMap<ThreadId, Arc<Mutex<LocalCell<T>>>>>,
    next_seq: AtomicU64,
}

impl<T: std::fmt::Debug> std::fmt::Debug for ThreadLocalField<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLocalField")
            .field("global", &*self.global.lock())
            .field("locals", &self.locals.lock().len())
            .finish()
    }
}

impl<T> ThreadLocalField<T> {
    /// A field whose global value is `v`.
    pub fn new(v: T) -> Self {
        Self {
            global: Mutex::new(v),
            locals: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(0),
        }
    }

    fn cell(&self) -> Arc<Mutex<LocalCell<T>>> {
        let id = std::thread::current().id();
        let mut locals = self.locals.lock();
        if let Some(c) = locals.get(&id) {
            return Arc::clone(c);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let c = Arc::new(Mutex::new(LocalCell { value: None, seq }));
        locals.insert(id, Arc::clone(&c));
        c
    }

    /// Whether the calling thread already owns a local copy.
    pub fn has_local(&self) -> bool {
        let id = std::thread::current().id();
        self.locals
            .lock()
            .get(&id)
            .map(|c| c.lock().value.is_some())
            .unwrap_or(false)
    }

    /// Number of live thread-local copies.
    pub fn local_count(&self) -> usize {
        self.locals
            .lock()
            .values()
            .filter(|c| c.lock().value.is_some())
            .count()
    }

    /// Write the calling thread's copy (`threadLocalFieldWrite` with the
    /// first access being a write: the copy is **not** initialised from
    /// the global value).
    pub fn set(&self, v: T) {
        let cell = self.cell();
        cell.lock().value = Some(v);
    }

    /// Mutate the calling thread's copy, creating it with `init` if this
    /// thread has no copy yet — the first-access-is-a-write rule with an
    /// explicit initial value (e.g. a zeroed accumulator).
    pub fn update_or_init<R>(&self, init: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let cell = self.cell();
        let mut g = cell.lock();
        let slot = g.value.get_or_insert_with(init);
        f(slot)
    }

    /// Replace the global value, returning the old one.
    pub fn replace_global(&self, v: T) -> T {
        std::mem::replace(&mut *self.global.lock(), v)
    }

    /// Remove and return all thread-local copies, in creation order.
    pub fn drain_locals(&self) -> Vec<T> {
        let mut locals = self.locals.lock();
        let mut cells: Vec<(u64, T)> = locals
            .drain()
            .filter_map(|(_, c)| {
                let mut g = c.lock();
                let seq = g.seq;
                g.value.take().map(|v| (seq, v))
            })
            .collect();
        cells.sort_by_key(|(seq, _)| *seq);
        cells.into_iter().map(|(_, v)| v).collect()
    }

    /// `@Reduce`: merge every thread-local copy into the global value and
    /// discard the copies. Returns the number of copies merged.
    pub fn reduce(&self, reducer: &impl Reducer<T>) -> usize {
        let copies = self.drain_locals();
        let n = copies.len();
        let mut global = self.global.lock();
        for v in copies {
            reducer.merge(&mut global, v);
        }
        n
    }
}

impl<T: Clone> ThreadLocalField<T> {
    /// Read the calling thread's copy (`threadLocalFieldRead`):
    /// initialised from the global value if this is the thread's first
    /// access — the paper's read-initialisation rule.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let cell = self.cell();
        let mut g = cell.lock();
        if g.value.is_none() {
            g.value = Some(self.global.lock().clone());
        }
        f(g.value.as_ref().expect("just initialised"))
    }

    /// Copy out the calling thread's value (read-initialising if needed).
    pub fn get(&self) -> T {
        self.read(|v| v.clone())
    }

    /// Mutate the calling thread's copy, read-initialising it from the
    /// global value first if absent (a read-modify-write access).
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let cell = self.cell();
        let mut g = cell.lock();
        if g.value.is_none() {
            g.value = Some(self.global.lock().clone());
        }
        f(g.value.as_mut().expect("just initialised"))
    }

    /// Copy of the global value.
    pub fn get_global(&self) -> T {
        self.global.lock().clone()
    }
}

impl<T: Default> Default for ThreadLocalField<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::SumReducer;
    use crate::region::{parallel_with, RegionConfig};

    #[test]
    fn first_read_initialises_from_global() {
        let f = ThreadLocalField::new(10i64);
        assert_eq!(f.get(), 10);
        f.update(|v| *v += 5);
        assert_eq!(f.get(), 15);
        // Global unchanged until reduce.
        assert_eq!(f.get_global(), 10);
    }

    #[test]
    fn first_write_does_not_copy_global() {
        let f = ThreadLocalField::new(10i64);
        f.set(100);
        assert_eq!(f.get(), 100);
        assert_eq!(f.get_global(), 10);
    }

    #[test]
    fn update_or_init_uses_init_not_global() {
        let f = ThreadLocalField::new(999i64);
        f.update_or_init(|| 0, |v| *v += 1);
        f.update_or_init(|| 0, |v| *v += 1);
        assert_eq!(
            f.get(),
            2,
            "second access must reuse the local, not re-init"
        );
    }

    #[test]
    fn each_team_thread_gets_own_copy() {
        let f = ThreadLocalField::new(0i64);
        parallel_with(RegionConfig::new().threads(4), || {
            let tid = crate::ctx::thread_id() as i64;
            f.set(tid + 1);
            assert_eq!(f.get(), tid + 1);
        });
        assert_eq!(f.local_count(), 4);
    }

    #[test]
    fn reduce_merges_all_copies_into_global() {
        let f = ThreadLocalField::new(0i64);
        parallel_with(RegionConfig::new().threads(4), || {
            f.update_or_init(|| 0, |v| *v = crate::ctx::thread_id() as i64 + 1);
        });
        let merged = f.reduce(&SumReducer);
        assert_eq!(merged, 4);
        assert_eq!(f.get_global(), 1 + 2 + 3 + 4);
        assert_eq!(f.local_count(), 0);
    }

    #[test]
    fn reduce_is_repeatable_per_region() {
        let f = ThreadLocalField::new(0i64);
        for _ in 0..3 {
            parallel_with(RegionConfig::new().threads(2), || {
                f.update_or_init(|| 0, |v| *v += 1);
            });
            f.reduce(&SumReducer);
        }
        assert_eq!(f.get_global(), 6);
    }

    #[test]
    fn drain_locals_in_creation_order_is_complete() {
        let f = ThreadLocalField::new(0u64);
        parallel_with(RegionConfig::new().threads(3), || {
            f.set(crate::ctx::thread_id() as u64 * 10);
        });
        let mut vals = f.drain_locals();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 10, 20]);
    }

    #[test]
    fn replace_global_returns_old() {
        let f = ThreadLocalField::new(5i32);
        assert_eq!(f.replace_global(9), 5);
        assert_eq!(f.get_global(), 9);
    }
}
