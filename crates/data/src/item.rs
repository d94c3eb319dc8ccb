//! Item identifiers and the item symbol table.

use gogreen_util::{FxHashMap, HeapSize};
use std::fmt;

/// An item (attribute value) in a transaction database.
///
/// Items are dense `u32` identifiers. The paper's `I = {i1, …, in}` is the
/// set of distinct `Item` values appearing in a [`crate::TransactionDb`];
/// human-readable names are kept out-of-band in an [`ItemCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(pub u32);

impl Item {
    /// The raw identifier.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// Index form, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Item {
    #[inline]
    fn from(v: u32) -> Self {
        Item(v)
    }
}

impl From<Item> for u32 {
    #[inline]
    fn from(item: Item) -> Self {
        item.0
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl HeapSize for Item {
    #[inline]
    fn heap_size(&self) -> usize {
        0
    }
}

/// Bidirectional mapping between item ids and external names.
///
/// Mining works purely on ids; the catalog exists so that applications (and
/// the examples in this repository) can present results with meaningful
/// labels such as `"milk"` or `"outlook=sunny"`.
#[derive(Debug, Default, Clone)]
pub struct ItemCatalog {
    names: Vec<String>,
    by_name: FxHashMap<String, Item>,
}

impl ItemCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its item id. Repeated calls with the same
    /// name return the same id.
    pub fn intern(&mut self, name: &str) -> Item {
        if let Some(&item) = self.by_name.get(name) {
            return item;
        }
        let item = Item(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), item);
        item
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Item> {
        self.by_name.get(name).copied()
    }

    /// The name of `item`, if it was interned here.
    pub fn name(&self, item: Item) -> Option<&str> {
        self.names.get(item.index()).map(String::as_str)
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Renders an itemset as `{a, b, c}` using catalog names, falling back
    /// to `iN` for unknown ids.
    pub fn render(&self, items: &[Item]) -> String {
        let mut out = String::from("{");
        for (k, &it) in items.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            match self.name(it) {
                Some(name) => out.push_str(name),
                None => out.push_str(&it.to_string()),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut c = ItemCatalog::new();
        let a = c.intern("beer");
        let b = c.intern("beer");
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut c = ItemCatalog::new();
        assert_eq!(c.intern("a"), Item(0));
        assert_eq!(c.intern("b"), Item(1));
        assert_eq!(c.intern("c"), Item(2));
    }

    #[test]
    fn name_round_trip() {
        let mut c = ItemCatalog::new();
        let it = c.intern("diapers");
        assert_eq!(c.name(it), Some("diapers"));
        assert_eq!(c.get("diapers"), Some(it));
        assert_eq!(c.get("unknown"), None);
        assert_eq!(c.name(Item(99)), None);
    }

    #[test]
    fn render_uses_names_with_fallback() {
        let mut c = ItemCatalog::new();
        let a = c.intern("a");
        assert_eq!(c.render(&[a, Item(42)]), "{a, i42}");
        assert_eq!(c.render(&[]), "{}");
    }

    #[test]
    fn item_display_and_order() {
        assert_eq!(Item(5).to_string(), "i5");
        assert!(Item(1) < Item(2));
    }
}
