//! Model-based tests for the copy-on-write containers: `PagedVec` against
//! `Vec`, `PagedMap` against `BTreeMap`, driven by the same random script —
//! including *clone-then-diverge*: a script may fork any live version, after
//! which both descendants must keep matching their own model. A write that
//! leaks through a shared page into another version (the aliasing bug class
//! of ARCHITECTURE.md invariant 10) shows up as a model mismatch on the
//! version that did not write.
//!
//! The comparator forms of `PagedMap` (`insert_by` / `remove_by` / `get_by`
//! / `range_by`: a set of handles ordered by a projection of what they
//! point to) run against a `BTreeMap` keyed by the projected key — the
//! one-search `try_insert_by` also against the `get_by` + `insert_by` pair
//! it replaced, run for run, and under a counting comparator — and
//! `Table` — such a set of rows, plus its lazily built column indexes (sets
//! of the same row handles, ordered by the column and then the key) — runs
//! against a naive `Vec` of rows on a schema whose key is not a column
//! prefix, with an index built at any point of the script. The in-place
//! replacement of rows by equal ones (`Database::share_equal_rows`) runs
//! against a `BTreeMap` of the rows by key, with a clone pinned before it.

use proptest::prelude::*;
use rxview_relstore::{schema, Database, PagedMap, PagedVec, RelError, Table, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys and indexes stay in a small space so scripts collide, split runs
/// (64 of these entries) and cross pages (128 of these slots) many times
/// over.
const KEYS: u16 = 700;

/// At most this many versions are alive; further forks replace the oldest.
const MAX_VERSIONS: usize = 5;

type Step = (u8, u8, u16, u16);

/// A container version beside the model of its own history.
type MapVersion = (PagedMap<u16, Arc<u16>>, BTreeMap<u16, Arc<u16>>);

fn script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..10, any::<u8>(), 0u16..KEYS, any::<u16>()), 0..900)
}

/// The probe for `key` under the keys' own order: what `get_by` /
/// `remove_by` locate a key of an `Ord`-keyed map with.
fn probe<K: Ord>(key: &K) -> impl Fn(&K) -> std::cmp::Ordering + '_ {
    move |k| k.cmp(key)
}

/// Values are handles, as in the engine's pages: a page copy clones them.
fn value(v: u16) -> Arc<u16> {
    Arc::new(v)
}

fn check_map(map: &PagedMap<u16, Arc<u16>>, model: &BTreeMap<u16, Arc<u16>>) -> bool {
    map.len() == model.len()
        && map.is_empty() == model.is_empty()
        && map
            .iter()
            .map(|(k, v)| (*k, **v))
            .eq(model.iter().map(|(k, v)| (*k, **v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_map_matches_btreemap_across_forks(steps in script()) {
        let mut versions: Vec<MapVersion> = vec![(PagedMap::new(), BTreeMap::new())];
        for (op, pick, key, val) in steps {
            let at = pick as usize % versions.len();
            let (map, model) = &mut versions[at];
            match op {
                0..=3 => {
                    let old = map.insert_by(key, value(val), Ord::cmp).map(|v| *v);
                    prop_assert_eq!(old, model.insert(key, value(val)).map(|v| *v));
                }
                4..=5 => {
                    let old = map.remove_by(probe(&key)).map(|(_, v)| *v);
                    prop_assert_eq!(old, model.remove(&key).map(|v| *v));
                }
                6 => {
                    prop_assert_eq!(map.get_by(probe(&key)).map(|(_, v)| **v), model.get(&key).map(|v| **v));
                    prop_assert_eq!(map.get_by(probe(&key)).is_some(), model.contains_key(&key));
                }
                7 => {
                    let got: Vec<u16> = map.range_by(|k| *k < key).map(|(k, _)| *k).take(40).collect();
                    let want: Vec<u16> = model.range(key..).map(|(k, _)| *k).take(40).collect();
                    prop_assert_eq!(got, want);
                }
                8 => prop_assert!(check_map(map, model), "version {} diverged", at),
                _ => {
                    let fork = (map.clone(), model.clone());
                    if versions.len() == MAX_VERSIONS {
                        versions.remove(0);
                    }
                    versions.push(fork);
                }
            }
        }
        for (i, (map, model)) in versions.iter().enumerate() {
            prop_assert!(check_map(map, model), "version {} diverged at the end", i);
        }
    }

    #[test]
    fn paged_vec_matches_vec_across_forks(steps in script()) {
        let mut versions: Vec<(PagedVec<u64>, Vec<u64>)> = vec![(PagedVec::new(), Vec::new())];
        for (op, pick, index, val) in steps {
            let at = pick as usize % versions.len();
            let (vec, model) = &mut versions[at];
            let (i, val) = (index as usize, u64::from(val));
            match op {
                0..=2 => {
                    vec.push(val);
                    model.push(val);
                }
                3..=5 => {
                    // A write past the end grows the vector with defaults.
                    *vec.get_mut(i) = val;
                    if model.len() <= i {
                        model.resize(i + 1, 0);
                    }
                    model[i] = val;
                }
                6 => prop_assert_eq!(vec.get(i), model.get(i)),
                7 => {
                    // Back to the default; the length stays.
                    vec.clear(i);
                    if let Some(slot) = model.get_mut(i) {
                        *slot = 0;
                    }
                }
                8 => {
                    prop_assert_eq!(vec.len(), model.len());
                    prop_assert!(vec.iter().eq(model.iter()), "version {} diverged", at);
                }
                _ => {
                    let fork = (vec.clone(), model.clone());
                    if versions.len() == MAX_VERSIONS {
                        versions.remove(0);
                    }
                    versions.push(fork);
                }
            }
        }
        for (i, (vec, model)) in versions.iter().enumerate() {
            prop_assert_eq!(vec.len(), model.len());
            prop_assert_eq!(vec.is_empty(), model.is_empty());
            prop_assert!(vec.iter().eq(model.iter()), "version {} diverged at the end", i);
        }
    }
}

/// A handle to `(payload, key)`, ordered by the key alone — as a table's
/// rows are handles ordered by their key columns.
type Handle = Arc<(u16, u16)>;

fn by_key(a: &Handle, b: &Handle) -> std::cmp::Ordering {
    a.1.cmp(&b.1)
}

fn check_handles(map: &PagedMap<Handle, ()>, model: &BTreeMap<u16, u16>) -> bool {
    map.len() == model.len()
        && map
            .iter()
            .map(|(h, ())| (h.1, h.0))
            .eq(model.iter().map(|(k, v)| (*k, *v)))
}

/// The naive table: rows of `T(a, b, c, d)` in no order, keyed by `(c, a)`.
type Rows = Vec<[i64; 4]>;

fn row_tuple(r: &[i64; 4]) -> Tuple {
    Tuple::from_values(r.iter().map(|&v| Value::Int(v)))
}

/// The model's rows that `keep`, in the table's order: by `(c, a)`.
fn in_key_order(model: &Rows, keep: impl Fn(&[i64; 4]) -> bool) -> Vec<Tuple> {
    let mut rows: Vec<&[i64; 4]> = model.iter().filter(|r| keep(r)).collect();
    rows.sort_by_key(|r| (r[2], r[0]));
    rows.into_iter().map(row_tuple).collect()
}

fn owned<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<Tuple> {
    rows.into_iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn comparator_forms_match_btreemap_across_forks(steps in script()) {
        type Version = (PagedMap<Handle, ()>, BTreeMap<u16, u16>);
        let mut versions: Vec<Version> = vec![(PagedMap::new(), BTreeMap::new())];
        for (op, pick, key, val) in steps {
            let at = pick as usize % versions.len();
            let (map, model) = &mut versions[at];
            match op {
                0..=3 => {
                    // An entry already under the key keeps its handle.
                    let replaced = map.insert_by(Arc::new((val, key)), (), by_key);
                    prop_assert_eq!(replaced.is_some(), model.contains_key(&key));
                    model.entry(key).or_insert(val);
                }
                4..=5 => {
                    let old = map.remove_by(|h| h.1.cmp(&key)).map(|(h, ())| h.0);
                    prop_assert_eq!(old, model.remove(&key));
                }
                6 => {
                    let got = map.get_by(|h| h.1.cmp(&key)).map(|(h, ())| h.0);
                    prop_assert_eq!(got, model.get(&key).copied());
                }
                7 => {
                    let got: Vec<u16> = map.range_by(|h| h.1 < key).map(|(h, ())| h.1).take(40).collect();
                    let want: Vec<u16> = model.range(key..).map(|(k, _)| *k).take(40).collect();
                    prop_assert_eq!(got, want);
                }
                8 => prop_assert!(check_handles(map, model), "version {} diverged", at),
                _ => {
                    let fork = (map.clone(), model.clone());
                    if versions.len() == MAX_VERSIONS {
                        versions.remove(0);
                    }
                    versions.push(fork);
                }
            }
        }
        for (i, (map, model)) in versions.iter().enumerate() {
            prop_assert!(check_handles(map, model), "version {} diverged at the end", i);
            // A bulk build under the comparator is the same set.
            let bulk = PagedMap::from_sorted_by(map.iter().map(|(h, ())| (h.clone(), ())), by_key)
                .expect("a map iterates ascending");
            prop_assert!(check_handles(&bulk, model));
        }
    }

    /// `Table` on a key that is not a column prefix — `(c, a)` of
    /// `T(a, b, c, d)` — against a `Vec` of rows: every mutation's verdict,
    /// every lookup and every scan, on each fork. Column `b` is probed
    /// through its lazily built index, so whichever step probes it first
    /// builds it and later mutations (and forks) maintain it; `c` is the
    /// leading key column (the primary order answers), `a` a key column
    /// that is not (an index answers).
    #[test]
    fn table_on_a_non_prefix_key_matches_a_vec_of_rows(
        steps in prop::collection::vec(((0u8..14, any::<u8>()), (0i64..12, 0i64..12, 0i64..4, 0i64..3)), 0..600),
    ) {
        let t = || schema("T").col_int("a").col_int("b").col_int("c").col_int("d").key(&["c", "a"]);
        prop_assert_eq!(t().key().to_vec(), vec![2, 0]);
        let mut versions: Vec<(Table, Rows)> = vec![(Table::new(t()), Vec::new())];
        for ((op, pick), (a, c, b, d)) in steps {
            let at = pick as usize % versions.len();
            let (table, model) = &mut versions[at];
            let row = [a, b, c, d];
            let key = Tuple::from_values([Value::Int(c), Value::Int(a)]);
            let held = model.iter().position(|r| (r[2], r[0]) == (c, a));
            match op {
                0..=3 => match (table.insert(row_tuple(&row)), held) {
                    (Ok(true), None) => model.push(row),
                    (Ok(false), Some(i)) => prop_assert_eq!(model[i], row),
                    (Err(RelError::DuplicateKey { .. }), Some(i)) => prop_assert!(model[i] != row),
                    (got, _) => prop_assert!(false, "insert of {:?} gave {:?}", row, got),
                },
                4..=5 => match (table.delete(&key), held) {
                    (Ok(removed), Some(i)) => prop_assert_eq!(removed, row_tuple(&model.swap_remove(i))),
                    (Err(RelError::MissingKey { .. }), None) => {}
                    (got, _) => prop_assert!(false, "delete of {:?} gave {:?}", key, got),
                },
                6 => {
                    prop_assert_eq!(table.get(&key).cloned(), held.map(|i| row_tuple(&model[i])));
                    prop_assert_eq!(table.contains_key(&key), held.is_some());
                    prop_assert_eq!(table.get(&key) == Some(&row_tuple(&row)), model.contains(&row));
                    // A probe of another length than the key finds nothing.
                    prop_assert!(table.get(&Tuple::from_values([Value::Int(c)])).is_none());
                    prop_assert!(!table.contains_key(&row_tuple(&row)));
                }
                7 => {
                    let (vc, va) = (Value::Int(c), Value::Int(a));
                    let got = owned(table.scan_key_range(|r| r[2].cmp(&vc)));
                    prop_assert_eq!(got, in_key_order(model, |r| r[2] == c));
                    let got = owned(table.scan_key_range(|r| (&r[2], &r[0]).cmp(&(&vc, &va))));
                    prop_assert_eq!(got, in_key_order(model, |r| (r[2], r[0]) == (c, a)));
                }
                8..=9 => {
                    let got = owned(table.scan_col_eq(1, &Value::Int(b)));
                    prop_assert_eq!(got, in_key_order(model, |r| r[1] == b));
                }
                10 => {
                    let got = owned(table.scan_col_eq(2, &Value::Int(c)));
                    prop_assert_eq!(got, in_key_order(model, |r| r[2] == c));
                    let got = owned(table.scan_col_eq(0, &Value::Int(a)));
                    prop_assert_eq!(got, in_key_order(model, |r| r[0] == a));
                }
                11 => {
                    prop_assert_eq!(table.len(), model.len());
                    prop_assert_eq!(owned(table.iter()), in_key_order(model, |_| true));
                }
                _ => {
                    let fork = (table.clone(), model.clone());
                    if versions.len() == MAX_VERSIONS {
                        versions.remove(0);
                    }
                    versions.push(fork);
                }
            }
        }
        for (table, model) in &versions {
            prop_assert_eq!(owned(table.iter()), in_key_order(model, |_| true));
            for b in 0..4 {
                let got = owned(table.scan_col_eq(1, &Value::Int(b)));
                prop_assert_eq!(got, in_key_order(model, |r| r[1] == b));
            }
            // The rows in order bulk-load to the same table; out of key
            // order they are refused.
            let bulk = Table::from_sorted_rows(t(), owned(table.iter())).expect("rows in key order");
            prop_assert_eq!(owned(bulk.iter()), owned(table.iter()));
            if model.len() > 1 {
                let reversed = Table::from_sorted_rows(t(), owned(table.iter()).into_iter().rev());
                prop_assert!(matches!(reversed, Err(RelError::UnsortedRows { .. })));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A column index built at a random point of an insert/delete
    /// interleaving, with clones pinned along the way: a clone pinned
    /// before the build builds its own when probed, one pinned after
    /// shares the built index page for page, and none sees a later edit.
    /// Every probe equals a filtered full scan in key order.
    #[test]
    fn an_index_built_mid_script_matches_a_filtered_scan_under_pinned_clones(
        steps in prop::collection::vec((0u8..5, (0i64..12, 0i64..12, 0i64..4, 0i64..3)), 0..400),
        build_at in 0usize..400,
        pin_every in 5usize..60,
    ) {
        let t = || schema("T").col_int("a").col_int("b").col_int("c").col_int("d").key(&["c", "a"]);
        let (mut table, mut model) = (Table::new(t()), Rows::new());
        let mut pinned: Vec<(Table, Rows)> = Vec::new();
        for (i, (op, (a, c, b, d))) in steps.into_iter().enumerate() {
            if i == build_at {
                let got = owned(table.scan_col_eq(1, &Value::Int(b)));
                prop_assert_eq!(got, in_key_order(&model, |r| r[1] == b));
            }
            if i % pin_every == 0 {
                pinned.push((table.clone(), model.clone()));
            }
            let row = [a, b, c, d];
            let held = model.iter().position(|r| (r[2], r[0]) == (c, a));
            match held {
                None if op < 3 => {
                    prop_assert_eq!(table.insert(row_tuple(&row)), Ok(true));
                    model.push(row);
                }
                Some(at) if op >= 3 => {
                    let key = Tuple::from_values([Value::Int(c), Value::Int(a)]);
                    prop_assert_eq!(table.delete(&key), Ok(row_tuple(&model.swap_remove(at))));
                }
                _ => {}
            }
        }
        pinned.push((table, model));
        for (table, model) in &pinned {
            for b in 0..4 {
                let got = owned(table.scan_col_eq(1, &Value::Int(b)));
                prop_assert_eq!(got, in_key_order(model, |r| r[1] == b));
            }
            for d in 0..3 {
                let got = owned(table.scan_col_eq(3, &Value::Int(d)));
                prop_assert_eq!(got, in_key_order(model, |r| r[3] == d));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bulk-built map is the map repeated `insert` builds: same contents
    /// and iteration order, and the same behaviour under a later script of
    /// inserts, removals and range scans — on the map itself and on a
    /// clone taken first, which must not see the original's writes.
    #[test]
    fn from_sorted_equals_repeated_insert(
        keys in prop::collection::vec(0u16..KEYS, 0..400),
        steps in prop::collection::vec((0u8..8, 0u16..KEYS, any::<u16>()), 0..300),
    ) {
        let sorted: BTreeMap<u16, Arc<u16>> = keys.iter().map(|&k| (k, value(k))).collect();
        let mut bulk = PagedMap::from_sorted_by(sorted.clone(), Ord::cmp).expect("a BTreeMap iterates ascending");
        let mut one_by_one = PagedMap::new();
        for (k, v) in &sorted {
            one_by_one.insert_by(*k, v.clone(), Ord::cmp);
        }
        prop_assert!(check_map(&bulk, &sorted));
        prop_assert!(bulk.iter().map(|(k, v)| (*k, **v)).eq(one_by_one.iter().map(|(k, v)| (*k, **v))));

        let frozen = bulk.clone();
        let mut model = sorted.clone();
        for (op, key, val) in steps {
            match op {
                0..=2 => {
                    let old = bulk.insert_by(key, value(val), Ord::cmp).map(|v| *v);
                    prop_assert_eq!(old, one_by_one.insert_by(key, value(val), Ord::cmp).map(|v| *v));
                    prop_assert_eq!(old, model.insert(key, value(val)).map(|v| *v));
                }
                3..=5 => {
                    let old = bulk.remove_by(probe(&key)).map(|(_, v)| *v);
                    prop_assert_eq!(old, one_by_one.remove_by(probe(&key)).map(|(_, v)| *v));
                    prop_assert_eq!(old, model.remove(&key).map(|v| *v));
                }
                6 => {
                    let got: Vec<u16> = bulk.range_by(|k| *k < key).map(|(k, _)| *k).take(40).collect();
                    let want: Vec<u16> = model.range(key..).map(|(k, _)| *k).take(40).collect();
                    prop_assert_eq!(got, want);
                }
                _ => prop_assert_eq!(bulk.get_by(probe(&key)).map(|(_, v)| **v), model.get(&key).map(|v| **v)),
            }
        }
        prop_assert!(check_map(&bulk, &model));
        prop_assert!(check_map(&one_by_one, &model));
        prop_assert!(check_map(&frozen, &sorted), "the clone saw the original's writes");
    }

    /// A collected vector is the vector repeated `push` builds, and writes
    /// to it stay out of a clone taken first.
    #[test]
    fn collected_vec_equals_repeated_push(
        vals in prop::collection::vec(any::<u16>(), 0..700),
        writes in prop::collection::vec((0u16..KEYS, any::<u16>()), 0..60),
    ) {
        let mut bulk: PagedVec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
        let mut model: Vec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
        let mut pushed = PagedVec::new();
        for &v in &model {
            pushed.push(v);
        }
        prop_assert_eq!(bulk.len(), model.len());
        prop_assert!(bulk.iter().eq(model.iter()) && pushed.iter().eq(model.iter()));
        prop_assert_eq!(bulk.get(model.len()), None);

        let frozen = bulk.clone();
        let original = model.clone();
        for (i, val) in writes {
            let (i, val) = (i as usize, u64::from(val));
            *bulk.get_mut(i) = val;
            if model.len() <= i {
                model.resize(i + 1, 0);
            }
            model[i] = val;
        }
        bulk.push(7);
        model.push(7);
        prop_assert_eq!(bulk.len(), model.len());
        prop_assert!(bulk.iter().eq(model.iter()));
        prop_assert!(frozen.iter().eq(original.iter()), "the clone saw the original's writes");
    }
}

/// A handle to `(payload, key)` over a key space wide enough for long
/// ascending loads, ordered by the key alone.
type Wide = Arc<(u32, u32)>;

fn by_wide_key(a: &Wide, b: &Wide) -> std::cmp::Ordering {
    a.1.cmp(&b.1)
}

/// The runs of a map, separators included, as `Debug` prints them — the
/// structure two maps with the same entries can still differ in.
fn runs_of(map: &PagedMap<Wide, ()>) -> String {
    format!("{map:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `try_insert_by` — one search, none for a key above the last — against
    /// a `BTreeMap` and against the two-search path it replaced (`get_by`,
    /// then `insert_by` on a miss), over scripts that mix ascending appends,
    /// interior inserts, keys already present and removals, with a clone
    /// pinned now and then: a miss inserts, a hit hands back the stored
    /// entry and the offered one and writes nothing, the two paths leave the
    /// same runs, and the pinned clone keeps its own contents.
    #[test]
    fn try_insert_matches_the_model_and_leaves_the_runs_insert_by_leaves(
        steps in prop::collection::vec((0u8..10, any::<u16>(), any::<u16>()), 0..600),
    ) {
        let mut once: PagedMap<Wide, ()> = PagedMap::new();
        let mut twice: PagedMap<Wide, ()> = PagedMap::new();
        let mut model: BTreeMap<u32, Wide> = BTreeMap::new();
        let mut pinned: Option<(PagedMap<Wide, ()>, BTreeMap<u32, Wide>)> = None;
        for (step, (op, pick, val)) in steps.into_iter().enumerate() {
            let last = model.keys().next_back().copied();
            let key = match op {
                // Ascending: above every key, by a small stride.
                0..=3 => last.map_or(0, |k| k + 1 + u32::from(pick % 3)),
                // Interior, or below every key.
                4..=5 => u32::from(pick) * 4 % (last.unwrap_or(0) + 2),
                // A key already present, when there is one.
                6..=7 => model.keys().nth(usize::from(pick) % model.len().max(1)).copied().unwrap_or(0),
                8 => {
                    // A removal, so runs split, shrink and merge.
                    let key = u32::from(pick) % (last.unwrap_or(0) + 1);
                    let gone = once.remove_by(|h| h.1.cmp(&key)).map(|(h, ())| h.0);
                    prop_assert_eq!(gone, model.remove(&key).map(|h| h.0));
                    prop_assert!(twice.remove_by(|h| h.1.cmp(&key)).is_some() == gone.is_some());
                    continue;
                }
                _ => {
                    pinned = Some((once.clone(), model.clone()));
                    continue;
                }
            };
            let offered: Wide = Arc::new((u32::from(val), key));
            let len = once.len();
            let verdict = once
                .try_insert_by(offered.clone(), (), by_wide_key)
                .map_err(|((stored, ()), (back, ()))| (stored.clone(), back));
            match (verdict, model.get(&key)) {
                (Ok(()), None) => {
                    model.insert(key, offered.clone());
                    prop_assert_eq!(once.len(), len + 1);
                }
                (Err((stored, back)), Some(held)) => {
                    prop_assert!(Arc::ptr_eq(&stored, held), "the stored entry of {}", key);
                    prop_assert!(Arc::ptr_eq(&back, &offered), "the offered entry handed back");
                    prop_assert_eq!(once.len(), len);
                }
                (got, held) => prop_assert!(false, "key {}: {:?} with {:?} held", key, got, held),
            }
            if twice.get_by(|h| h.1.cmp(&key)).is_none() {
                twice.insert_by(offered, (), by_wide_key);
            }
            if step % 16 == 0 {
                prop_assert_eq!(runs_of(&once), runs_of(&twice));
            }
        }
        prop_assert_eq!(runs_of(&once), runs_of(&twice));
        prop_assert!(once.iter().map(|(h, ())| h).eq(model.values()));
        if let Some((map, model)) = pinned {
            prop_assert!(map.iter().map(|(h, ())| h).eq(model.values()), "the pinned clone moved");
        }
    }
}

/// An ascending load costs one comparison per key after the first — the
/// last key of the last run, and no search — however long the map grows;
/// a key below the last pays the two binary searches.
/// Whether two rows are one allocation.
fn same(a: &Tuple, b: &Tuple) -> bool {
    std::ptr::eq(a.values(), b.values())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Database::share_equal_rows` replaces rows in place: table `T2`
    /// keeps the length, keys, order and values of a `BTreeMap` model of
    /// its rows by key, each row equal to its donor `T1`'s at the key is
    /// `T1`'s allocation afterwards — one that already was stays — and the
    /// rest keep their own. A clone pinned before the pass keeps every
    /// handle it had, so a run it shares was copied before the pass wrote
    /// it; writes after the pass do not reach it either. Rows per key, by
    /// the kind drawn: absent, unequal, equal in an allocation of its own,
    /// or `T1`'s own handle. Keys are `(c, a)`, not a column prefix.
    #[test]
    fn sharing_equal_rows_in_place_matches_a_btreemap(
        rows in prop::collection::vec((0u8..4, 0i64..3, 0i64..5), 0..400),
        pin in any::<bool>(),
        writes in prop::collection::vec((0i64..20, 0i64..20, any::<bool>()), 0..40),
    ) {
        let t = |name: &str| schema(name).col_int("a").col_int("b").col_int("c").col_int("d").key(&["c", "a"]);
        let (mut t1, mut t2) = (BTreeMap::new(), BTreeMap::new());
        for (i, &(kind, b, d)) in rows.iter().enumerate() {
            let (c, a) = ((i / 20) as i64, (i % 20) as i64);
            let row = row_tuple(&[a, b, c, d]);
            match kind {
                0 => {}
                1 => { t2.insert((c, a), row_tuple(&[a, b + 1, c, d])); }
                2 => { t2.insert((c, a), row_tuple(&[a, b, c, d])); }
                _ => { t2.insert((c, a), row.clone()); }
            }
            if (a + c) % 7 != 0 {
                t1.insert((c, a), row);
            }
        }
        let mut db = Database::new();
        db.add_table(Table::from_sorted_rows(t("T1"), t1.values().cloned()).unwrap()).unwrap();
        db.add_table(Table::from_sorted_rows(t("T2"), t2.values().cloned()).unwrap()).unwrap();
        let pinned = pin.then(|| db.clone());

        let shared = db.share_equal_rows();
        let equal = |k: &(i64, i64), r: &Tuple| t1.get(k).is_some_and(|d| d == r);
        prop_assert_eq!(shared, t2.iter().filter(|(k, r)| equal(k, r)).count());
        let table = db.table("T2").unwrap();
        prop_assert_eq!(table.len(), t2.len());
        for (row, (k, held)) in table.iter().zip(&t2) {
            prop_assert_eq!(row, held);
            match t1.get(k) {
                Some(donor) if donor == held => prop_assert!(same(row, donor)),
                _ => prop_assert!(same(row, held)),
            }
        }
        let mut model = t2.clone();
        let table = db.table_mut("T2").unwrap();
        for (a, c, insert) in writes {
            let key = Tuple::from_values([Value::Int(c), Value::Int(a)]);
            let row = row_tuple(&[a, 9, c, 9]);
            if insert && !model.contains_key(&(c, a)) {
                prop_assert!(table.insert(row.clone()).unwrap());
                model.insert((c, a), row);
            } else if !insert && model.remove(&(c, a)).is_some() {
                table.delete(&key).unwrap();
            }
        }
        prop_assert!(db.table("T2").unwrap().iter().eq(model.values()));
        if let Some(pinned) = pinned {
            let table = pinned.table("T2").unwrap();
            prop_assert_eq!(table.len(), t2.len());
            prop_assert!(table.iter().zip(t2.values()).all(|(r, held)| same(r, held)));
        }
    }
}

#[test]
fn an_ascending_load_compares_each_key_once() {
    let comparisons = std::cell::Cell::new(0usize);
    let counted = |a: &u32, b: &u32| {
        comparisons.set(comparisons.get() + 1);
        a.cmp(b)
    };
    let mut map: PagedMap<u32, ()> = PagedMap::new();
    let n = 5_000u32;
    for k in 0..n {
        assert!(map.try_insert_by(2 * k, (), counted).is_ok());
    }
    assert_eq!(comparisons.get(), n as usize - 1);
    assert!(map.iter().map(|(k, ())| *k).eq((0..n).map(|k| 2 * k)));
    // The last key again is not above the last: searched for, and found.
    comparisons.set(0);
    assert!(map.try_insert_by(2 * (n - 1), (), counted).is_err());
    assert!(comparisons.get() > 1, "a hit is found by search");
    comparisons.set(0);
    assert!(map.try_insert_by(1, (), counted).is_ok());
    assert!(comparisons.get() > 2, "an interior key is searched for");
    assert_eq!(map.len(), n as usize + 1);
}

/// Entries out of order — equal keys included — are refused at the first
/// offender, wherever it falls in a run.
#[test]
fn from_sorted_refuses_unsorted_entries() {
    let ascending = |n: u16| (0..n).map(|k| (k, ()));
    assert_eq!(
        PagedMap::from_sorted_by(ascending(300), Ord::cmp).map(|m| m.len()),
        Ok(300)
    );
    assert_eq!(
        PagedMap::<u16, ()>::from_sorted_by([], Ord::cmp).map(|m| m.len()),
        Ok(0)
    );
    for at in [1usize, 63, 64, 65, 128, 299] {
        let repeated = ascending(300).map(|(k, ())| (k - u16::from(k as usize >= at), ()));
        assert_eq!(
            PagedMap::from_sorted_by(repeated, Ord::cmp).err(),
            Some(at),
            "repeat at {at}"
        );
        let dipped = ascending(300).map(|(k, ())| (if k as usize == at { 0 } else { k }, ()));
        assert_eq!(
            PagedMap::from_sorted_by(dipped, Ord::cmp).err(),
            Some(at),
            "dip at {at}"
        );
    }
}

/// Fills a map past several splits, then drains it from the front, the
/// back, and the middle outwards: every run merges away and the map ends
/// empty, agreeing with the model at every step.
#[test]
fn map_drains_to_empty_in_any_order() {
    let n: u16 = 500;
    let fill = || {
        let mut map = PagedMap::new();
        let mut model = BTreeMap::new();
        // A stride coprime to `n` visits every key, scattered.
        for i in 0..n {
            let k = i * 77 % n; // 77 and 500 are coprime
            map.insert_by(k, value(k), Ord::cmp);
            model.insert(k, value(k));
        }
        (map, model)
    };
    let front: Vec<u16> = (0..n).collect();
    let back: Vec<u16> = (0..n).rev().collect();
    let middle_out: Vec<u16> = (0..n / 2)
        .flat_map(|i| [n / 2 + i, n / 2 - 1 - i])
        .collect();
    for order in [front, back, middle_out] {
        let (mut map, mut model) = fill();
        assert!(check_map(&map, &model));
        for k in order {
            assert_eq!(
                map.remove_by(probe(&k)).map(|(_, v)| *v),
                model.remove(&k).map(|v| *v)
            );
            assert_eq!(
                map.iter().next().map(|(k, _)| *k),
                model.keys().next().copied(),
                "first key after removing {k}"
            );
            assert_eq!(
                map.range_by(|m| *m < k).next().map(|(k, _)| *k),
                model.range(k..).next().map(|(k, _)| *k),
            );
            assert_eq!(map.len(), model.len());
        }
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
    }
}

/// Removing a run's first entry moves the run's separator to the new first
/// key, so the removed key is released with its entry, and a key inserted
/// between the old and the new separator lands in key order. Keys four
/// apart are loaded in order (full runs); then each in turn — every run's
/// first entry among them — is removed and the two keys after it are
/// inserted, against the model, each removed key's handle left with no
/// other holder.
#[test]
fn removing_a_runs_first_key_moves_its_separator() {
    let by_value = |a: &Arc<u16>, b: &Arc<u16>| a.cmp(b);
    let keys: Vec<Arc<u16>> = (0..600u16).map(|i| Arc::new(i * 4)).collect();
    let mut map = PagedMap::new();
    let mut model = BTreeMap::new();
    for k in &keys {
        map.insert_by(Arc::clone(k), value(**k), by_value);
        model.insert(**k, value(**k));
    }
    let same = |map: &PagedMap<Arc<u16>, Arc<u16>>, model: &BTreeMap<u16, Arc<u16>>| {
        map.len() == model.len()
            && map
                .iter()
                .map(|(k, v)| (**k, **v))
                .eq(model.iter().map(|(k, v)| (*k, **v)))
    };
    for k in &keys {
        let removed = map.remove_by(|m: &Arc<u16>| m.cmp(k)).map(|(_, v)| *v);
        assert_eq!(removed, model.remove(k).map(|v| *v));
        assert_eq!(Arc::strong_count(k), 1, "{k} is still held");
        for gap in [**k + 1, **k + 2] {
            map.insert_by(Arc::new(gap), value(gap), by_value);
            model.insert(gap, value(gap));
            let found = map.get_by(|m: &Arc<u16>| (**m).cmp(&gap));
            assert_eq!(found.map(|(_, v)| **v), Some(gap));
        }
        assert_eq!(
            map.range_by(|m| **m < **k).next().map(|(m, _)| **m),
            model.range(**k..).next().map(|(m, _)| *m),
            "from {k}"
        );
        assert!(same(&map, &model), "after {k}");
    }
}

/// The lowest and the highest key are reachable by lookup, range scan and
/// removal whichever run they sit in, and a key below every head lands in
/// the first run.
#[test]
fn map_first_and_last_keys() {
    let mut map = PagedMap::new();
    for k in 100u16..400 {
        map.insert_by(k, (), Ord::cmp);
    }
    assert_eq!(map.range_by(|_| false).next().map(|(k, ())| *k), Some(100));
    assert_eq!(
        map.range_by(|k| *k < 399)
            .map(|(k, ())| *k)
            .collect::<Vec<_>>(),
        [399]
    );
    assert!(map.range_by(|k| *k < 400).next().is_none());
    map.insert_by(3, (), Ord::cmp);
    assert_eq!(map.iter().next().map(|(k, ())| *k), Some(3));
    assert!(
        map.get_by(probe(&3)).is_some()
            && map.get_by(probe(&399)).is_some()
            && map.get_by(probe(&4)).is_none()
    );
    assert_eq!(map.remove_by(probe(&3)).map(|(_, v)| v), Some(()));
    assert_eq!(map.remove_by(probe(&399)).map(|(_, v)| v), Some(()));
    assert_eq!(map.iter().next().map(|(k, ())| *k), Some(100));
    assert_eq!(map.iter().last().map(|(k, ())| *k), Some(398));
    assert_eq!(map.len(), 299);
}

/// A sparse id on an empty vector (`M` is probed with arbitrary node ids in
/// tests): the gap reads as defaults and a clone taken before the write
/// stays empty.
#[test]
fn vec_sparse_write_on_empty() {
    let mut vec: PagedVec<Option<Arc<u16>>> = PagedVec::new();
    let before = vec.clone();
    *vec.get_mut(900) = Some(value(9));
    assert_eq!(vec.len(), 901);
    assert!(vec.iter().take(900).all(Option::is_none));
    assert_eq!(vec[900].as_deref(), Some(&9));
    assert_eq!(vec.get(901), None);
    assert!(before.is_empty() && before.get(900).is_none());
}
