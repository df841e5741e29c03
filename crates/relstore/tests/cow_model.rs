//! Model-based tests for the copy-on-write containers: `PagedVec` against
//! `Vec`, `PagedMap` against `BTreeMap`, driven by the same random script —
//! including *clone-then-diverge*: a script may fork any live version, after
//! which both descendants must keep matching their own model. A write that
//! leaks through a shared page into another version (the aliasing bug class
//! of ARCHITECTURE.md invariant 10) shows up as a model mismatch on the
//! version that did not write.

use proptest::prelude::*;
use rxview_relstore::{PagedMap, PagedVec};
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
                    let old = map.insert(key, value(val)).map(|v| *v);
                    prop_assert_eq!(old, model.insert(key, value(val)).map(|v| *v));
                }
                4..=5 => {
                    let old = map.remove(&key).map(|v| *v);
                    prop_assert_eq!(old, model.remove(&key).map(|v| *v));
                }
                6 => {
                    prop_assert_eq!(map.get(&key).map(|v| **v), model.get(&key).map(|v| **v));
                    prop_assert_eq!(map.contains_key(&key), model.contains_key(&key));
                }
                7 => {
                    let got: Vec<u16> = map.range_from(&key).map(|(k, _)| *k).take(40).collect();
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
                6..=7 => prop_assert_eq!(vec.get(i), model.get(i)),
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
        let mut bulk = PagedMap::from_sorted(sorted.clone()).expect("a BTreeMap iterates ascending");
        let mut one_by_one = PagedMap::new();
        for (k, v) in &sorted {
            one_by_one.insert(*k, v.clone());
        }
        prop_assert!(check_map(&bulk, &sorted));
        prop_assert!(bulk.iter().map(|(k, v)| (*k, **v)).eq(one_by_one.iter().map(|(k, v)| (*k, **v))));

        let frozen = bulk.clone();
        let mut model = sorted.clone();
        for (op, key, val) in steps {
            match op {
                0..=2 => {
                    let old = bulk.insert(key, value(val)).map(|v| *v);
                    prop_assert_eq!(old, one_by_one.insert(key, value(val)).map(|v| *v));
                    prop_assert_eq!(old, model.insert(key, value(val)).map(|v| *v));
                }
                3..=5 => {
                    let old = bulk.remove(&key).map(|v| *v);
                    prop_assert_eq!(old, one_by_one.remove(&key).map(|v| *v));
                    prop_assert_eq!(old, model.remove(&key).map(|v| *v));
                }
                6 => {
                    let got: Vec<u16> = bulk.range_from(&key).map(|(k, _)| *k).take(40).collect();
                    let want: Vec<u16> = model.range(key..).map(|(k, _)| *k).take(40).collect();
                    prop_assert_eq!(got, want);
                }
                _ => prop_assert_eq!(bulk.get(&key).map(|v| **v), model.get(&key).map(|v| **v)),
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

/// Entries out of order — equal keys included — are refused at the first
/// offender, wherever it falls in a run.
#[test]
fn from_sorted_refuses_unsorted_entries() {
    let ascending = |n: u16| (0..n).map(|k| (k, ()));
    assert_eq!(
        PagedMap::from_sorted(ascending(300)).map(|m| m.len()),
        Ok(300)
    );
    assert_eq!(PagedMap::<u16, ()>::from_sorted([]).map(|m| m.len()), Ok(0));
    for at in [1usize, 63, 64, 65, 128, 299] {
        let repeated = ascending(300).map(|(k, ())| (k - u16::from(k as usize >= at), ()));
        assert_eq!(
            PagedMap::from_sorted(repeated).err(),
            Some(at),
            "repeat at {at}"
        );
        let dipped = ascending(300).map(|(k, ())| (if k as usize == at { 0 } else { k }, ()));
        assert_eq!(PagedMap::from_sorted(dipped).err(), Some(at), "dip at {at}");
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
            map.insert(k, value(k));
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
            assert_eq!(map.remove(&k).map(|v| *v), model.remove(&k).map(|v| *v));
            assert_eq!(
                map.iter().next().map(|(k, _)| *k),
                model.keys().next().copied(),
                "first key after removing {k}"
            );
            assert_eq!(
                map.range_from(&k).next().map(|(k, _)| *k),
                model.range(k..).next().map(|(k, _)| *k),
            );
            assert_eq!(map.len(), model.len());
        }
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
    }
}

/// The lowest and the highest key are reachable by lookup, range scan and
/// removal whichever run they sit in, and a key below every head lands in
/// the first run.
#[test]
fn map_first_and_last_keys() {
    let mut map = PagedMap::new();
    for k in 100u16..400 {
        map.insert(k, ());
    }
    assert_eq!(map.range_from(&0).next().map(|(k, ())| *k), Some(100));
    assert_eq!(
        map.range_from(&399).map(|(k, ())| *k).collect::<Vec<_>>(),
        [399]
    );
    assert!(map.range_from(&400).next().is_none());
    map.insert(3, ());
    assert_eq!(map.iter().next().map(|(k, ())| *k), Some(3));
    assert!(map.contains_key(&3) && map.contains_key(&399) && !map.contains_key(&4));
    assert_eq!(map.remove(&3), Some(()));
    assert_eq!(map.remove(&399), Some(()));
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
