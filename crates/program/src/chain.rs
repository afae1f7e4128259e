//! A persistent singly linked list whose clones share their nodes.

use std::fmt;
use std::sync::Arc;

/// A stack of items, newest first. Pushing allocates one node; cloning
/// copies one reference-counted pointer, so every clone shares the items
/// pushed before it.
pub(crate) struct Chain<T> {
    head: Option<Arc<Link<T>>>,
}

struct Link<T> {
    item: T,
    next: Option<Arc<Link<T>>>,
}

impl<T> Chain<T> {
    /// Pushes `item` on top of the chain.
    pub(crate) fn push(&mut self, item: T) {
        let next = self.head.take();
        self.head = Some(Arc::new(Link { item, next }));
    }

    /// The items, newest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::successors(self.head.as_deref(), |link| link.next.as_deref())
            .map(|link| &link.item)
    }

    /// Whether nothing was pushed.
    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }
}

impl<T> Clone for Chain<T> {
    fn clone(&self) -> Self {
        Chain {
            head: self.head.clone(),
        }
    }
}

impl<T> Default for Chain<T> {
    fn default() -> Self {
        Chain { head: None }
    }
}

impl<T: PartialEq> PartialEq for Chain<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Chain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_what_was_pushed_before_them() {
        let mut a = Chain::default();
        assert!(a.is_empty());
        a.push(1);
        a.push(2);
        let mut b = a.clone();
        b.push(3);
        a.push(4);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), [4, 2, 1]);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), [3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(format!("{b:?}"), "[3, 2, 1]");
    }
}
