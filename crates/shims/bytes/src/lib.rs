//! Local stand-in for the subset of the `bytes` crate this workspace
//! uses: the shared, sliceable `Bytes` buffer trace artifacts live in.

#![forbid(unsafe_code)]

use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, reference-counted view of a byte buffer. Like the real
/// crate, `clone` and [`Bytes::slice`] are O(1) and share the underlying
/// storage, and `Bytes::from(Vec<u8>)` takes the vector over without
/// copying it — trace artifacts held by many campaign cells never copy
/// their payload, not even when they are frozen.
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Bytes {
    /// Copies the viewed bytes into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// True when two handles share the same underlying storage (a
    /// zero-copy clone or slice rather than an equal-content copy).
    pub fn shares_storage_with(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// A view of `range` (relative to this view) sharing this buffer's
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or runs past the end of the view,
    /// as slicing a `[u8]` would.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        let _ = &self[range.clone()]; // bounds check with slice semantics
        Bytes {
            data: Arc::clone(&self.data),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let range = 0..v.len();
        Bytes {
            data: Arc::new(v),
            range,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_zero_copy() {
        let a = Bytes::from(vec![1, 2, 3]);
        let c = a.clone();
        assert!(a.shares_storage_with(&c), "clone must share storage");
        let d = Bytes::from(vec![1, 2, 3]);
        assert_eq!(a, d);
        assert!(
            !a.shares_storage_with(&d),
            "equal content, distinct storage"
        );
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn from_vec_takes_the_buffer_over_without_copying() {
        let v = vec![7u8; 1 << 16];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "freezing must not copy the buffer");
        assert_eq!(b.len(), 1 << 16);
    }

    #[test]
    fn slices_share_storage_and_compare_by_content() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let s = b.slice(2..6);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        assert!(s.shares_storage_with(&b));
        let inner = s.slice(1..3);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner, Bytes::from(vec![3, 4]));
        assert_eq!(s.slice(4..4).len(), 0);
    }

    #[test]
    #[should_panic]
    fn slice_past_the_end_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..4);
    }
}
