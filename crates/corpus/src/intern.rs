//! String interning.
//!
//! Every distinct cell string in the corpus is mapped to a compact
//! 32-bit [`Sym`]. Interning makes value equality O(1), lets the
//! inverted indexes key on integers, and keeps per-table memory small —
//! essential when a corpus holds hundreds of thousands of tables whose
//! cells repeat heavily (the same country name appears in thousands of
//! columns).

use std::collections::HashMap;
use std::fmt;

/// Interned string id. `Sym`s are only meaningful relative to the
/// [`Interner`] (and thus the [`Corpus`](crate::Corpus)) that produced
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// An append-only string interner.
///
/// Strings are stored once in an arena vector; a hash map resolves
/// string → [`Sym`]. Lookups by symbol are a plain vector index. The
/// one exception to append-only is [`truncate`](Self::truncate): a
/// transactional rollback drops the strings a rejected edit interned,
/// once no [`Sym`] past the mark is held anywhere.
#[derive(Clone, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    map: HashMap<Box<str>, Sym>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            strings: Vec::with_capacity(n),
            map: HashMap::with_capacity(n),
        }
    }

    /// Intern `s`, returning its symbol. Re-interning the same string
    /// returns the same symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("interner overflow: >4B strings"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Look up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Forget every string interned after the first `len`, so the
    /// interner is exactly as it was when it held `len` strings. Only
    /// sound when no [`Sym`] `>= len` survives anywhere: a later
    /// [`intern`](Self::intern) hands those symbols out again, for
    /// other strings.
    pub fn truncate(&mut self, len: usize) {
        while self.strings.len() > len {
            let s = self.strings.pop().expect("len checked above");
            self.map.remove(&s);
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_ref()))
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.strings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let mut i = Interner::new();
        let a = i.intern("United States");
        let b = i.intern("Canada");
        let a2 = i.intern("United States");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "United States");
        assert_eq!(i.resolve(b), "Canada");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_without_interning() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
    }

    #[test]
    fn truncate_forgets_later_strings() {
        let mut i = Interner::new();
        let a = i.intern("a");
        i.intern("b");
        i.intern("c");
        i.truncate(1);
        assert_eq!(i.len(), 1);
        assert_eq!(i.get("a"), Some(a));
        assert_eq!(i.get("b"), None);
        assert_eq!(i.get("c"), None);
        assert_eq!(i.intern("c"), Sym(1), "freed symbols are handed out again");
        i.truncate(5);
        assert_eq!(i.len(), 2, "truncating past the end is a no-op");
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let collected: Vec<(Sym, &str)> = i.iter().collect();
        assert_eq!(collected.len(), 3);
        for (k, (sym, s)) in collected.iter().enumerate() {
            assert_eq!(*sym, syms[k]);
            assert_eq!(*s, ["a", "b", "c"][k]);
        }
    }
}
