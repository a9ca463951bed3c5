//! HPACK indexing tables (RFC 7541 §2.3): the 61-entry static table from
//! Appendix A and the FIFO dynamic table with size-based eviction.

use super::HeaderField;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

/// RFC 7541 Appendix A static table, indices 1..=61.
pub static STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Default dynamic table capacity (SETTINGS_HEADER_TABLE_SIZE default).
pub const DEFAULT_TABLE_SIZE: usize = 4096;

/// The dynamic table: newest entry has index 62, older entries higher.
#[derive(Debug)]
pub struct DynamicTable {
    entries: VecDeque<HeaderField>,
    size: usize,
    max_size: usize,
    /// Protocol ceiling (from SETTINGS); size updates may not exceed it.
    capacity_limit: usize,
}

impl DynamicTable {
    /// A table with the default 4096-octet capacity.
    pub fn new() -> DynamicTable {
        DynamicTable::with_capacity(DEFAULT_TABLE_SIZE)
    }

    /// A table with an explicit capacity.
    pub fn with_capacity(max_size: usize) -> DynamicTable {
        DynamicTable {
            entries: VecDeque::new(),
            size: 0,
            max_size,
            capacity_limit: max_size,
        }
    }

    /// Current octet size (RFC 7541 §4.1 accounting).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current maximum size.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// The SETTINGS-imposed ceiling for dynamic table size updates.
    pub fn capacity_limit(&self) -> usize {
        self.capacity_limit
    }

    /// Raise/lower the SETTINGS ceiling (SETTINGS_HEADER_TABLE_SIZE).
    pub fn set_capacity_limit(&mut self, limit: usize) {
        self.capacity_limit = limit;
        if self.max_size > limit {
            self.resize(limit);
        }
    }

    /// Number of dynamic entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply a dynamic table size update (RFC 7541 §6.3), evicting as needed.
    pub fn resize(&mut self, new_max: usize) {
        self.max_size = new_max;
        self.evict();
    }

    /// Insert a field at the head (index 62), evicting from the tail.
    /// An entry larger than the whole table empties it (RFC 7541 §4.4).
    pub fn insert(&mut self, field: HeaderField) {
        let sz = field.size();
        if sz > self.max_size {
            self.entries.clear();
            self.size = 0;
            return;
        }
        self.size += sz;
        self.entries.push_front(field);
        self.evict();
    }

    fn evict(&mut self) {
        while self.size > self.max_size {
            let victim = self.entries.pop_back().expect("size>0 implies entries");
            self.size -= victim.size();
        }
    }

    /// Dynamic-table lookup by absolute HPACK index (62-based).
    pub fn get(&self, index: usize) -> Option<&HeaderField> {
        index
            .checked_sub(STATIC_TABLE.len() + 1)
            .and_then(|i| self.entries.get(i))
    }

    /// Find the absolute index of an exact `(name, value)` match.
    pub fn find(&self, name: &str, value: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|f| f.name == name && f.value == value)
            .map(|i| i + STATIC_TABLE.len() + 1)
    }

    /// Find the absolute index of any entry with this name.
    pub fn find_name(&self, name: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|f| f.name == name)
            .map(|i| i + STATIC_TABLE.len() + 1)
    }
}

impl Default for DynamicTable {
    fn default() -> Self {
        DynamicTable::new()
    }
}

/// Resolve an absolute HPACK index against static then dynamic tables.
pub fn lookup(table: &DynamicTable, index: usize) -> Option<HeaderField> {
    if index == 0 {
        return None;
    }
    if index <= STATIC_TABLE.len() {
        let (n, v) = STATIC_TABLE[index - 1];
        return Some(HeaderField::new(n, v));
    }
    table.get(index).cloned()
}

/// Where a field sits in [`STATIC_TABLE`], 0-based: the first entry with
/// its name, and the entry with its name and value if there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticMatch {
    /// First entry with the name.
    pub name: usize,
    /// The entry with the name and the value.
    pub exact: Option<usize>,
}

/// Slots of the name index: a power of two over twice the 52 names, so
/// a probe sequence is short.
const NAME_SLOTS: usize = 128;

/// Where a name's probe sequence starts: its length and three of its
/// octets, which tell the table's names apart in all but a few cases.
fn name_slot(name: &[u8]) -> usize {
    let [first, .., last] = name else {
        return name.len();
    };
    let mid = name[name.len() / 2];
    (name.len() * 7 + usize::from(*first) * 3 + usize::from(mid) * 5 + usize::from(*last))
        % NAME_SLOTS
}

/// [`STATIC_TABLE`]'s names, open-addressed by [`name_slot`], each with
/// the range of its entries (a name's entries are adjacent in the table).
type NameIndex = [Option<(&'static str, Range<usize>)>; NAME_SLOTS];

fn name_index() -> &'static NameIndex {
    static INDEX: OnceLock<NameIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut index = [const { None }; NAME_SLOTS];
        let mut i = 0;
        while i < STATIC_TABLE.len() {
            let name = STATIC_TABLE[i].0;
            let end = i + STATIC_TABLE[i..]
                .iter()
                .take_while(|&&(n, _)| n == name)
                .count();
            let mut slot = name_slot(name.as_bytes());
            while index[slot].is_some() {
                slot = (slot + 1) % NAME_SLOTS;
            }
            index[slot] = Some((name, i..end));
            i = end;
        }
        index
    })
}

/// Look a field up in [`STATIC_TABLE`] by name, then by value among that
/// name's entries.
pub fn static_match(name: &str, value: &str) -> Option<StaticMatch> {
    let index = name_index();
    let mut slot = name_slot(name.as_bytes());
    let range = loop {
        match &index[slot] {
            Some((n, range)) if *n == name => break range.clone(),
            Some(_) => slot = (slot + 1) % NAME_SLOTS,
            None => return None,
        }
    };
    Some(StaticMatch {
        name: range.start,
        exact: range.clone().find(|&i| STATIC_TABLE[i].1 == value),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_table_well_known_entries() {
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[7], (":status", "200"));
        assert_eq!(STATIC_TABLE[60], ("www-authenticate", ""));
        let post = static_match(":method", "POST").unwrap();
        assert_eq!((post.name, post.exact), (1, Some(2)));
        let content_type = static_match("content-type", "text/html").unwrap();
        assert_eq!((content_type.name, content_type.exact), (30, None));
        assert_eq!(static_match(":path", "/nope").unwrap().exact, None);
        assert_eq!(static_match("x-sww-mode", ""), None);
    }

    #[test]
    fn the_name_index_finds_what_a_scan_finds() {
        // Every entry, and every name with a value no entry has, against
        // the linear scans the index replaced.
        for &(name, value) in &STATIC_TABLE {
            for value in [value, "no-such-value"] {
                let want = StaticMatch {
                    name: STATIC_TABLE.iter().position(|&(n, _)| n == name).unwrap(),
                    exact: STATIC_TABLE
                        .iter()
                        .position(|&(n, v)| n == name && v == value),
                };
                assert_eq!(static_match(name, value), Some(want), "{name}: {value}");
            }
        }
        for name in ["", ":", ":statu", "etags", "zzz", "Content-Type"] {
            assert_eq!(static_match(name, ""), None, "{name}");
        }
    }

    #[test]
    fn insertion_indexes_from_62() {
        let mut t = DynamicTable::new();
        t.insert(HeaderField::new("a", "1"));
        t.insert(HeaderField::new("b", "2"));
        assert_eq!(lookup(&t, 62).unwrap(), HeaderField::new("b", "2"));
        assert_eq!(lookup(&t, 63).unwrap(), HeaderField::new("a", "1"));
        assert_eq!(t.find("a", "1"), Some(63));
        assert_eq!(t.find_name("b"), Some(62));
    }

    #[test]
    fn eviction_on_overflow() {
        // Each entry is 1+1+32 = 34 octets; capacity for exactly two.
        let mut t = DynamicTable::with_capacity(68);
        t.insert(HeaderField::new("a", "1"));
        t.insert(HeaderField::new("b", "2"));
        t.insert(HeaderField::new("c", "3"));
        assert_eq!(t.len(), 2);
        assert!(t.find_name("a").is_none(), "oldest entry evicted");
        assert_eq!(t.size(), 68);
    }

    #[test]
    fn oversized_entry_clears_table() {
        let mut t = DynamicTable::with_capacity(40);
        t.insert(HeaderField::new("a", "1"));
        t.insert(HeaderField::new("long-name", "very-long-value-exceeding"));
        assert!(t.is_empty());
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn resize_evicts() {
        let mut t = DynamicTable::with_capacity(200);
        for i in 0..5 {
            t.insert(HeaderField::new(format!("h{i}"), "v"));
        }
        t.resize(70);
        assert!(t.size() <= 70);
        assert_eq!(t.max_size(), 70);
    }

    #[test]
    fn index_zero_and_out_of_range() {
        let t = DynamicTable::new();
        assert!(lookup(&t, 0).is_none());
        assert!(lookup(&t, 62).is_none());
        assert!(lookup(&t, 9999).is_none());
    }
}
