//! Schedule-disciplined shared arrays: [`SyncSlice`] (borrowed) and
//! [`SyncVec`] (owned).
//!
//! OpenMP-style kernels share arrays between team threads under
//! schedules that guarantee disjoint writes (each thread owns a
//! row/column/element subset). Java expresses this with plain shared
//! arrays; safe Rust needs either locks (which would distort performance
//! comparisons) or a narrowly-scoped unsafe wrapper. These are those
//! wrappers: unguarded shared storage whose users must uphold the
//! schedule's disjointness contract, documented at every call site.
//!
//! # Tracked mode
//!
//! The disjointness contract is checkable: build the wrapper with
//! [`SyncSlice::tracked`] / [`SyncVec::tracked`] (a name plus the data)
//! while a race checker is armed, and every element access additionally
//! reports a `{addr, index, is_write, thread}` shadow event to the
//! [`check`](crate::check) layer, where aomp-check's vector-clock race
//! detector judges it against the happens-before relation built from
//! hook events. Cost discipline: a tracked wrapper decides once, when it
//! is built. Built with no checker armed it keeps no label and is the
//! [`SyncSlice::new`] wrapper — no atomic is touched per access, so a
//! woven hot loop compiles like its hand-threaded twin. Built while
//! armed, it reports every access until the checker is disarmed.

use std::cell::UnsafeCell;

use crate::check;

/// A shared, unguarded slice. Cloneable handles alias the same storage.
///
/// # Safety contract
///
/// Callers of [`get_mut`](Self::get_mut) / [`set`](Self::set) must ensure
/// no two threads concurrently touch the same index with at least one
/// writer — exactly the guarantee a disjoint loop schedule (static block,
/// static cyclic, dynamic chunks) provides for index-owned data.
pub struct SyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
    /// `Some(label)` puts the wrapper in tracked mode (see module docs).
    name: Option<&'static str>,
}

// SAFETY: access discipline is delegated to the schedule (see type docs).
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}

impl<T> Clone for SyncSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wrap a uniquely-borrowed slice for shared use.
    pub fn new(data: &'a mut [T]) -> Self {
        // SAFETY: &mut [T] -> &[UnsafeCell<T>] is sound (UnsafeCell<T> has
        // the same layout as T) and the unique borrow is surrendered for
        // the wrapper's lifetime.
        let ptr = data.as_mut_ptr() as *const UnsafeCell<T>;
        Self {
            data: unsafe { std::slice::from_raw_parts(ptr, data.len()) },
            name: None,
        }
    }

    /// Like [`new`](Self::new), but if a race checker is armed now,
    /// every access reports to it under `name` (see module docs).
    pub fn tracked(data: &'a mut [T], name: &'static str) -> Self {
        Self {
            name: check::armed().then_some(name),
            ..Self::new(data)
        }
    }

    /// Report one element access if built and still armed.
    #[inline]
    fn note(&self, i: usize, is_write: bool) {
        if let Some(name) = self.name {
            check::report(name, self.data[i].get() as usize, i, is_write);
        }
    }

    /// Report a range access (`as_slice`/`as_mut_slice`), element-wise so
    /// the detector sees the same per-location granularity as `get`/`set`.
    #[inline]
    fn note_range(&self, lo: usize, len: usize, is_write: bool) {
        if self.name.is_some() {
            (lo..lo + len).for_each(|i| self.note(i, is_write));
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No concurrent writer to index `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &'a T {
        self.note(i, false);
        &*self.data[i].get()
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    /// This thread is the sole accessor of index `i` for the borrow's
    /// duration (schedule-owned index).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &'a mut T {
        self.note(i, true);
        &mut *self.data[i].get()
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// As for [`get_mut`](Self::get_mut).
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        self.note(i, true);
        *self.data[i].get() = v;
    }
}

impl<T> SyncSlice<'_, T> {
    /// Borrow `len` elements starting at `lo` as a plain shared slice.
    ///
    /// The empty borrow `(lo == self.len(), len == 0)` is valid — it is
    /// what a block schedule hands the tail thread of an undersized loop.
    ///
    /// # Safety
    /// No concurrent writer to any index in `lo..lo+len` for the
    /// borrow's duration (e.g. the range was written in a previous,
    /// barrier-separated phase or by this thread).
    #[inline]
    pub unsafe fn as_slice(&self, lo: usize, len: usize) -> &[T] {
        assert!(
            lo + len <= self.data.len(),
            "as_slice range {lo}..{} out of bounds (len {})",
            lo + len,
            self.data.len()
        );
        self.note_range(lo, len, false);
        // Pointer arithmetic, not `self.data[lo]`: indexing would reject
        // the valid empty borrow at `lo == len()`.
        std::slice::from_raw_parts(self.data.as_ptr().add(lo) as *const T, len)
    }

    /// Borrow `len` elements starting at `lo` as an exclusive slice.
    ///
    /// As with [`as_slice`](Self::as_slice), the empty borrow at
    /// `lo == self.len()` is valid.
    ///
    /// # Safety
    /// This thread is the sole accessor of `lo..lo+len` for the borrow's
    /// duration (schedule-owned block).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice(&self, lo: usize, len: usize) -> &mut [T] {
        assert!(
            lo + len <= self.data.len(),
            "as_mut_slice range {lo}..{} out of bounds (len {})",
            lo + len,
            self.data.len()
        );
        self.note_range(lo, len, true);
        std::slice::from_raw_parts_mut(
            self.data.as_ptr().add(lo) as *mut UnsafeCell<T> as *mut T,
            len,
        )
    }
}

impl<T: Copy> SyncSlice<'_, T> {
    /// Copy element `i` out.
    ///
    /// # Safety
    /// No concurrent writer to index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T {
        self.note(i, false);
        *self.data[i].get()
    }
}

/// An owned, unguarded shared vector — the owned counterpart of
/// [`SyncSlice`], for state that must live inside `Arc`-shared structures
/// (e.g. the MolDyn particle arrays, which aspect modules need to reach
/// with a `'static` lifetime).
///
/// # Safety contract
/// Same as [`SyncSlice`]: concurrent accesses to one index must follow a
/// disjoint-writer discipline established by the loop schedule or by
/// barrier-separated phases. [`tracked`](Self::tracked), built inside
/// an aomp-check exploration, makes that contract machine-checked.
pub struct SyncVec<T> {
    data: Vec<UnsafeCell<T>>,
    name: Option<&'static str>,
}

// SAFETY: access discipline is delegated to the schedule (see type docs).
unsafe impl<T: Send> Sync for SyncVec<T> {}
unsafe impl<T: Send> Send for SyncVec<T> {}

impl<T> SyncVec<T> {
    /// Take ownership of `data` for shared use.
    pub fn new(data: Vec<T>) -> Self {
        Self {
            data: data.into_iter().map(UnsafeCell::new).collect(),
            name: None,
        }
    }

    /// Like [`new`](Self::new), but if a race checker is armed now,
    /// every access reports to it under `name` (see module docs).
    pub fn tracked(data: Vec<T>, name: &'static str) -> Self {
        Self {
            name: check::armed().then_some(name),
            ..Self::new(data)
        }
    }

    /// The borrowed view every accessor goes through.
    #[inline]
    fn view(&self) -> SyncSlice<'_, T> {
        SyncSlice {
            data: &self.data,
            name: self.name,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No concurrent writer to index `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &T {
        self.view().get(i)
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    /// This thread is the sole accessor of index `i` for the borrow.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        self.view().get_mut(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// As for [`get_mut`](Self::get_mut).
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        self.view().set(i, v)
    }
}

impl<T: Copy> SyncVec<T> {
    /// Copy element `i` out.
    ///
    /// # Safety
    /// No concurrent writer to index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T {
        self.view().read(i)
    }

    /// Copy the whole vector out.
    ///
    /// # Safety
    /// No concurrent writers anywhere in the vector.
    pub unsafe fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.read(i)).collect()
    }
}

impl<T: Copy + Default> SyncVec<T> {
    /// Zero-filled vector of length `n`.
    pub fn zeroed(n: usize) -> Self {
        Self::new(vec![T::default(); n])
    }

    /// Zero-filled tracked vector of length `n` (see [`tracked`](Self::tracked)).
    pub fn zeroed_tracked(n: usize, name: &'static str) -> Self {
        Self::tracked(vec![T::default(); n], name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut data = vec![0i64; 1000];
        {
            let s = SyncSlice::new(&mut data);
            let for_c = ForConstruct::new(Schedule::StaticBlock);
            crate::region::parallel_with(RegionConfig::new().threads(4), || {
                for_c.execute(LoopRange::upto(0, 1000), |lo, hi, step| {
                    let mut i = lo;
                    while i < hi {
                        // SAFETY: static block gives disjoint indices.
                        unsafe { s.set(i as usize, i * 3) };
                        i += step;
                    }
                });
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as i64 * 3));
    }

    #[test]
    fn sync_vec_round_trips() {
        let v = SyncVec::new(vec![1i64, 2, 3]);
        unsafe {
            v.set(1, 20);
            assert_eq!(v.read(1), 20);
            *v.get_mut(2) += 5;
            assert_eq!(*v.get(2), 8);
            assert_eq!(v.snapshot(), vec![1, 20, 8]);
        }
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        let z: SyncVec<f64> = SyncVec::zeroed(4);
        assert_eq!(unsafe { z.snapshot() }, vec![0.0; 4]);
    }

    #[test]
    fn copies_alias_same_storage() {
        let mut data = vec![1u32, 2, 3];
        let a = SyncSlice::new(&mut data);
        let b = a;
        unsafe {
            b.set(0, 9);
            assert_eq!(a.read(0), 9);
        }
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_borrow_at_end_is_valid() {
        // Regression: `as_slice(len, 0)` / `as_mut_slice(len, 0)` used to
        // index `self.data[lo]` and panic, but a zero-length borrow one
        // past the end is exactly what a block schedule hands the tail
        // thread of an undersized loop.
        let mut data = vec![1u8, 2, 3];
        let s = SyncSlice::new(&mut data);
        unsafe {
            assert_eq!(s.as_slice(3, 0), &[] as &[u8]);
            assert_eq!(s.as_mut_slice(3, 0), &mut [] as &mut [u8]);
            assert_eq!(s.as_slice(1, 2), &[2, 3]);
            let empty_mid: &[u8] = s.as_slice(1, 0);
            assert!(empty_mid.is_empty());
        }
        let mut none: Vec<u8> = Vec::new();
        let e = SyncSlice::new(&mut none);
        unsafe {
            assert!(e.as_slice(0, 0).is_empty());
            assert!(e.as_mut_slice(0, 0).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn as_slice_past_end_panics() {
        let mut data = vec![0u8; 4];
        let s = SyncSlice::new(&mut data);
        let _ = unsafe { s.as_slice(3, 2) };
    }

    #[test]
    fn tracked_wrappers_behave_like_untracked_when_unarmed() {
        let mut data = vec![0u32; 8];
        {
            let s = SyncSlice::tracked(&mut data, "test.slice");
            unsafe {
                s.set(2, 5);
                assert_eq!(s.read(2), 5);
                assert_eq!(s.as_slice(0, 8)[2], 5);
            }
        }
        let v = SyncVec::<f64>::zeroed_tracked(4, "test.vec");
        unsafe {
            v.set(1, 2.5);
            assert_eq!(v.snapshot(), vec![0.0, 2.5, 0.0, 0.0]);
        }
    }
}
