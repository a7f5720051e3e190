//! String interner for schema-later property keys.
//!
//! Property keys (`P` in Definition 1) repeat heavily across vertices
//! (`filename`, `command`, `acc`, ...). The store interns them once to
//! [`PropKeyId`] so property maps compare/hash by `u32`.

use crate::graph::rank_u32;
use crate::hash::FxHashMap;
use prov_model::PropKeyId;
use std::sync::Arc;

/// Bidirectional map `&str ⇄ PropKeyId`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct KeyInterner {
    by_name: FxHashMap<Arc<str>, PropKeyId>,
    names: Vec<Arc<str>>,
}

impl KeyInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> PropKeyId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = PropKeyId::new(
            u32::try_from(self.names.len()).expect("more than u32::MAX distinct property keys"),
        );
        let arc: Arc<str> = Arc::from(name);
        self.names.push(arc.clone());
        self.by_name.insert(arc, id);
        id
    }

    /// Look up an already-interned key without creating it.
    pub fn get(&self, name: &str) -> Option<PropKeyId> {
        self.by_name.get(name).copied()
    }

    /// Resolve an id back to its name.
    pub fn resolve(&self, id: PropKeyId) -> Option<&str> {
        self.names.get(id.index()).map(|s| s.as_ref())
    }

    /// Number of distinct interned keys.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PropKeyId, &str)> {
        self.names.iter().enumerate().map(|(i, s)| (PropKeyId::new(rank_u32(i)), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = KeyInterner::new();
        let a = it.intern("command");
        let b = it.intern("command");
        let c = it.intern("filename");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = KeyInterner::new();
        let id = it.intern("acc");
        assert_eq!(it.resolve(id), Some("acc"));
        assert_eq!(it.get("acc"), Some(id));
        assert_eq!(it.get("missing"), None);
        assert_eq!(it.resolve(PropKeyId::new(99)), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut it = KeyInterner::new();
        it.intern("a");
        it.intern("b");
        let pairs: Vec<(u32, &str)> = it.iter().map(|(k, n)| (k.raw(), n)).collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }
}
