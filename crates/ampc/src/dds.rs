//! Distributed data stores: the key-value storage AMPC machines communicate
//! through.

use std::collections::hash_map::{self, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Maximum number of `u64` words a [`Key`] or [`Value`] may hold.
///
/// The AMPC model requires keys and values to consist of a *constant* number
/// of words (Section 3.1); fixing the constant at 3 is enough for every use
/// in this repository (e.g. `(tag, node, index)` keys).
pub const MAX_WORDS: usize = 3;

/// A key of at most [`MAX_WORDS`] machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key {
    words: [u64; MAX_WORDS],
    len: u8,
}

/// A value of at most [`MAX_WORDS`] machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Value {
    words: [u64; MAX_WORDS],
    len: u8,
}

macro_rules! impl_word_tuple {
    ($name:ident) => {
        impl $name {
            /// Constructs from a single word.
            #[inline]
            pub fn single(word: u64) -> Self {
                Self::from_words(&[word])
            }

            /// Constructs from a pair of words.
            #[inline]
            pub fn pair(a: u64, b: u64) -> Self {
                Self::from_words(&[a, b])
            }

            /// Constructs from a triple of words.
            #[inline]
            pub fn triple(a: u64, b: u64, c: u64) -> Self {
                Self::from_words(&[a, b, c])
            }

            /// Constructs from a slice of at most [`MAX_WORDS`] words.
            ///
            /// # Panics
            ///
            /// Panics if `words.len() > MAX_WORDS`.
            #[inline]
            pub fn from_words(words: &[u64]) -> Self {
                assert!(
                    words.len() <= MAX_WORDS,
                    "at most {MAX_WORDS} words allowed, got {}",
                    words.len()
                );
                let mut storage = [0u64; MAX_WORDS];
                storage[..words.len()].copy_from_slice(words);
                Self {
                    words: storage,
                    len: words.len() as u8,
                }
            }

            /// The stored words.
            pub fn words(&self) -> &[u64] {
                &self.words[..self.len as usize]
            }

            /// Number of words stored.
            pub fn len(&self) -> usize {
                self.len as usize
            }

            /// Returns `true` if no words are stored.
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }
        }
    };
}

impl_word_tuple!(Key);
impl_word_tuple!(Value);

/// Read access to a keyed store.
///
/// Abstracts over the plain [`DataStore`] and the dense `node → layer`
/// array of the `ampc-runtime` round engine, so that a
/// [`crate::MachineContext`] can serve reads from either. Implementations
/// must be safe to read from many machines concurrently (`Sync`), which is
/// what makes lock-free parallel round execution possible.
pub trait StoreRead: Sync {
    /// Looks up a key; `None` is the model's "empty response".
    fn read(&self, key: Key) -> Option<Value>;
}

impl StoreRead for DataStore {
    fn read(&self, key: Key) -> Option<Value> {
        self.get(key)
    }
}

/// A deterministic multiply-rotate hasher over machine words, for
/// [`DataStore`] keys.
///
/// Keys are at most three words and, in every algorithm here, dense node
/// ids below the input's node cap, so there is nothing adversarial to
/// defend against: a keyed SipHash would only cost time on every probe.
/// The hash is a fixed function of the key, so a store's layout (and
/// iteration order) is the same in every run.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    /// An odd multiplier with well-spread bits (the Fx hash constant).
    const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A distributed key-value data store (`D_i` in the paper).
///
/// The store itself is a plain hash map with a deterministic word hasher;
/// the *access restrictions* (which round may read or write it, and with
/// what budget) are enforced by [`crate::AmpcExecutor`] /
/// [`crate::MachineContext`], not by the store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataStore {
    entries: HashMap<Key, Value, BuildHasherDefault<WordHasher>>,
}

impl DataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Number of key-value pairs stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the store holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    /// Looks up a key. A missing key yields `None` ("empty response" in the
    /// paper's terminology).
    pub fn get(&self, key: Key) -> Option<Value> {
        self.entries.get(&key).copied()
    }

    /// The entry of `key`, for single-probe merges.
    pub(crate) fn entry(&mut self, key: Key) -> hash_map::Entry<'_, Key, Value> {
        self.entries.entry(key)
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: Key) -> bool {
        self.entries.contains_key(&key)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        self.entries.remove(&key)
    }

    /// Iterates over all key-value pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.entries.iter()
    }

    /// Total space used, in words (keys plus values), for space accounting.
    pub fn space_in_words(&self) -> usize {
        self.entries.iter().map(|(k, v)| k.len() + v.len()).sum()
    }
}

impl FromIterator<(Key, Value)> for DataStore {
    fn from_iter<T: IntoIterator<Item = (Key, Value)>>(iter: T) -> Self {
        DataStore {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Key, Value)> for DataStore {
    fn extend<T: IntoIterator<Item = (Key, Value)>>(&mut self, iter: T) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_values_round_trip_words() {
        let k = Key::triple(1, 2, 3);
        assert_eq!(k.words(), &[1, 2, 3]);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());

        let v = Value::pair(7, 8);
        assert_eq!(v.words(), &[7, 8]);

        assert_ne!(Key::single(1), Key::pair(1, 0));
        // `Ord`, `Hash`, `words()` and `len()` are all read off the fields
        // that `Eq` compares.
        for w in [0, 5, u64::MAX] {
            assert_eq!(Key::from_words(&[w]), Key::single(w));
            assert_eq!(Key::from_words(&[w, 1]), Key::pair(w, 1));
            assert_eq!(
                Key::from_words(&[0, w, u64::MAX]),
                Key::triple(0, w, u64::MAX)
            );
            assert_eq!(Value::from_words(&[w]), Value::single(w));
            assert_eq!(Value::from_words(&[1, w]), Value::pair(1, w));
            assert_eq!(Value::from_words(&[w, w, 0]), Value::triple(w, w, 0));
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_words_is_rejected() {
        Key::from_words(&[1, 2, 3, 4]);
    }

    #[test]
    fn store_basic_operations() {
        let mut store = DataStore::new();
        assert!(store.is_empty());
        assert_eq!(store.insert(Key::single(1), Value::single(10)), None);
        assert_eq!(
            store.insert(Key::single(1), Value::single(20)),
            Some(Value::single(10))
        );
        assert_eq!(store.get(Key::single(1)), Some(Value::single(20)));
        assert_eq!(store.get(Key::single(2)), None);
        assert!(store.contains(Key::single(1)));
        assert_eq!(store.len(), 1);
        assert_eq!(store.remove(Key::single(1)), Some(Value::single(20)));
        assert!(store.is_empty());
    }

    #[test]
    fn space_accounting_counts_words() {
        let store: DataStore = [
            (Key::single(1), Value::pair(1, 2)),
            (Key::triple(1, 2, 3), Value::single(9)),
        ]
        .into_iter()
        .collect();
        assert_eq!(store.space_in_words(), (1 + 2) + (3 + 1));
    }

    #[test]
    fn word_hasher_is_deterministic_and_spreads_dense_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        let hash = |key: Key| build.hash_one(key);
        assert_eq!(hash(Key::single(7)), hash(Key::single(7)));
        assert_ne!(hash(Key::single(1)), hash(Key::pair(1, 0)));
        // Dense ids land in distinct buckets of a power-of-two table (low
        // bits, as the map indexes) and distinct control tags (top bits).
        let low: std::collections::HashSet<u64> = (0..1024u64)
            .map(|id| hash(Key::single(id)) & 1023)
            .collect();
        assert!(
            low.len() > 600,
            "only {} of 1024 low-bit buckets",
            low.len()
        );
        let top: std::collections::HashSet<u64> =
            (0..1024u64).map(|id| hash(Key::single(id)) >> 57).collect();
        assert_eq!(top.len(), 128, "every 7-bit tag is used");
        // A partial trailing chunk still feeds the hash.
        let mut a = WordHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = WordHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn ordering_is_lexicographic_on_words() {
        assert!(Value::single(1) < Value::single(2));
        assert!(Value::pair(1, 5) < Value::pair(2, 0));
        // Shorter tuples padded with zeros but distinguished by length.
        assert!(Value::single(1) != Value::pair(1, 0));
    }
}
