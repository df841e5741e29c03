//! Seeded op streams. The seed is a command-line argument; the engine
//! receives only the generated updates.
//!
//! Every generator hands out *windows* (the updates of one commit) whose
//! composition is a pure function of the window size: the same number of
//! inserts, deletes and path classes every time, in a seed-dependent
//! order, over seed-dependent keys. Window times are then unimodal and a
//! different seed is a different sample of the same distribution — which
//! is what makes run-to-run spread across seeds a measure of noise.
//!
//! The op *shapes* are the repository's own (`rxview_workload`): anchored
//! insert/delete pairs under a group head as in `ShardSkewGen`, the
//! `//`-headed phrasing and [`DescendantConfig`] of `DescendantGen`, and
//! the W1/W2/W3 samplers of [`WorkloadGen`]. Those generators draw each
//! op independently, so their windows differ in mix; the two wrappers here
//! stratify the same draws instead.

use crate::workloads::{Spec, Traffic, GROUP_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rxview_core::{SideEffectPolicy, ViewStore, XmlUpdate};
use rxview_relstore::{tuple, Value};
use rxview_workload::{DescendantConfig, WorkloadClass, WorkloadGen};
use std::collections::VecDeque;

/// One generated update.
#[derive(Debug, Clone)]
pub struct Op {
    /// The update.
    pub update: XmlUpdate,
    /// Its side-effect policy.
    pub policy: SideEffectPolicy,
    /// Path class, for mix accounting: `anchored`, `descendant`, `W1`…`W3`.
    pub class: &'static str,
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn insert_under(head: i64, fresh: i64, payload: i64, descendant: bool) -> XmlUpdate {
    let prefix = if descendant { "//" } else { "" };
    XmlUpdate::insert(
        "node",
        tuple![fresh, Value::Int(payload)],
        &format!("{prefix}node[id={head}]/sub"),
    )
    .expect("generated path parses")
}

fn delete_under(head: i64, fresh: i64, descendant: bool) -> XmlUpdate {
    let prefix = if descendant { "//" } else { "" };
    XmlUpdate::delete(&format!("{prefix}node[id={head}]/sub/node[id={fresh}]"))
        .expect("generated path parses")
}

/// Round-robin insert/delete pairs over a set of groups: a window of `w`
/// takes `w/2` deletes of the oldest live fresh nodes and `w/2` inserts
/// under the groups idle longest, so no two of its ops share a group.
/// Until `w/2` fresh nodes are live a window is all inserts (the prefill
/// the `setup` warm-up absorbs).
#[derive(Debug)]
struct PairRing {
    /// Groups without a live fresh node, idle longest first.
    free: VecDeque<usize>,
    /// `(group, fresh id)` of live fresh nodes, oldest first.
    live: VecDeque<(usize, i64)>,
}

/// One slot of a window before it is phrased as an update.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Insert { group: usize },
    Delete { group: usize, fresh: i64 },
}

impl PairRing {
    fn new(rng: &mut StdRng, groups: impl Iterator<Item = usize>) -> Self {
        let mut free: Vec<usize> = groups.collect();
        shuffle(rng, &mut free);
        PairRing {
            free: free.into(),
            live: VecDeque::new(),
        }
    }

    /// The slots of a `w`-op window, deletes first. Inserted groups are
    /// recorded live by the caller through [`PairRing::inserted`].
    fn slots(&mut self, w: usize) -> Vec<Slot> {
        let deletes = if self.live.len() >= w / 2 { w / 2 } else { 0 };
        let inserts = w - deletes;
        assert!(
            inserts <= self.free.len(),
            "window of {w} needs {inserts} idle groups, have {}",
            self.free.len()
        );
        let mut out = Vec::with_capacity(w);
        let mut freed = Vec::with_capacity(deletes);
        for _ in 0..deletes {
            let (group, fresh) = self.live.pop_front().expect("counted above");
            freed.push(group);
            out.push(Slot::Delete { group, fresh });
        }
        for _ in 0..inserts {
            let group = self.free.pop_front().expect("counted above");
            out.push(Slot::Insert { group });
        }
        self.free.extend(freed);
        out
    }

    fn inserted(&mut self, group: usize, fresh: i64) {
        self.live.push_back((group, fresh));
    }
}

/// `uniform_wide`'s generator: every window half inserts of fresh nodes,
/// half deletes of earlier ones, all under distinct group heads.
#[derive(Debug)]
pub struct UniformGen {
    rng: StdRng,
    ring: PairRing,
    next_fresh: i64,
    payload_domain: i64,
}

impl UniformGen {
    /// A generator over the given groups' heads.
    pub fn new(groups: Vec<usize>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = PairRing::new(&mut rng, groups.into_iter());
        UniformGen {
            rng,
            ring,
            next_fresh: 2_000_000_000,
            payload_domain: 50,
        }
    }

    /// The next window of `w` updates.
    pub fn window(&mut self, w: usize) -> Vec<Op> {
        let mut slots = self.ring.slots(w);
        shuffle(&mut self.rng, &mut slots);
        slots
            .into_iter()
            .map(|slot| {
                let update = match slot {
                    Slot::Insert { group } => {
                        self.next_fresh += 1;
                        self.ring.inserted(group, self.next_fresh);
                        let payload = self.rng.gen_range(0..self.payload_domain);
                        insert_under(head(group), self.next_fresh, payload, false)
                    }
                    Slot::Delete { group, fresh } => delete_under(head(group), fresh, false),
                };
                Op {
                    update,
                    policy: SideEffectPolicy::Proceed,
                    class: "anchored",
                }
            })
            .collect()
    }
}

fn head(group: usize) -> i64 {
    (group * GROUP_SIZE) as i64
}

/// `skew_sharded`'s generator: `DescendantGen`'s traffic, stratified.
/// Of a window, the multiple of `2 × hot_groups` nearest to `hot_fraction`
/// goes to the hot groups in equal shares — each a chain of alternating
/// insert/delete of one fresh node, so consecutive ops on a hot anchor
/// conflict — and the rest spreads over the cold groups as in
/// [`UniformGen`]. Exactly `descendant_fraction` of the window is phrased
/// `//node[id=H]/…`.
#[derive(Debug)]
pub struct SkewGen {
    cfg: DescendantConfig,
    /// The hot groups, in hot-index order.
    hot: Vec<usize>,
    rng: StdRng,
    /// Per hot group: the fresh node inserted and not yet deleted.
    hot_live: Vec<Option<i64>>,
    /// Which hot group the next odd op goes to (windows smaller than one
    /// op per hot group).
    hot_cursor: usize,
    cold: PairRing,
    next_fresh: i64,
}

impl SkewGen {
    /// A generator over the given groups' heads, the first
    /// `cfg.hot_groups` of them hot (`cfg.groups` is not consulted).
    pub fn new(cfg: DescendantConfig, groups: Vec<usize>) -> Self {
        assert_eq!(cfg.group_size, GROUP_SIZE, "heads are g * 40");
        assert!(cfg.hot_groups >= 1 && cfg.hot_groups < groups.len());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (hot, cold) = groups.split_at(cfg.hot_groups);
        let cold = PairRing::new(&mut rng, cold.iter().copied());
        SkewGen {
            hot: hot.to_vec(),
            hot_live: vec![None; cfg.hot_groups],
            hot_cursor: 0,
            cold,
            next_fresh: 4_000_000_000,
            rng,
            cfg,
        }
    }

    /// The next window of `w` updates.
    pub fn window(&mut self, w: usize) -> Vec<Op> {
        let unit = 2 * self.cfg.hot_groups;
        let want = self.cfg.hot_fraction * w as f64;
        let mut hot = if w >= unit {
            ((want / unit as f64).round() as usize * unit).min(w)
        } else {
            (want.round() as usize).min(w)
        };
        if (w - hot) % 2 == 1 {
            hot += 1; // the cold remainder pairs up
        }
        // Which group each position of the window goes to.
        let mut order: Vec<Option<Slot>> = self.cold.slots(w - hot).into_iter().map(Some).collect();
        let mut hot_order = Vec::with_capacity(hot);
        for _ in 0..hot {
            hot_order.push(self.hot_cursor);
            self.hot_cursor = (self.hot_cursor + 1) % self.cfg.hot_groups;
        }
        order.extend(hot_order.iter().map(|_| None));
        shuffle(&mut self.rng, &mut order);
        shuffle(&mut self.rng, &mut hot_order);
        let n_desc = (self.cfg.descendant_fraction * w as f64).round() as usize;
        let mut descendant: Vec<bool> = (0..w).map(|i| i < n_desc).collect();
        shuffle(&mut self.rng, &mut descendant);

        let mut hot_order = hot_order.into_iter();
        order
            .into_iter()
            .zip(descendant)
            .map(|(slot, desc)| {
                let hot = slot
                    .is_none()
                    .then(|| hot_order.next().expect("one per hot position"));
                let slot = slot.unwrap_or_else(|| {
                    let h = hot.expect("a hot position");
                    match self.hot_live[h].take() {
                        Some(fresh) => Slot::Delete {
                            group: self.hot[h],
                            fresh,
                        },
                        None => Slot::Insert { group: self.hot[h] },
                    }
                });
                let update = match slot {
                    Slot::Insert { group } => {
                        self.next_fresh += 1;
                        match hot {
                            Some(h) => self.hot_live[h] = Some(self.next_fresh),
                            None => self.cold.inserted(group, self.next_fresh),
                        }
                        let payload = self.rng.gen_range(0..self.cfg.payload_domain.max(1) as i64);
                        insert_under(head(group), self.next_fresh, payload, desc)
                    }
                    Slot::Delete { group, fresh } => delete_under(head(group), fresh, desc),
                };
                Op {
                    update,
                    policy: SideEffectPolicy::Proceed,
                    class: if desc { "descendant" } else { "anchored" },
                }
            })
            .collect()
    }
}

/// `paper_classes`' generator: §5's W1/W2/W3 × {delete, insert} in a fixed
/// 6-cycle, the policy flipping between `Abort` and `Proceed` every cycle,
/// sampled by [`WorkloadGen`] against the view handed in — so targets are
/// non-empty when sampled, and go stale only through the ops sampled
/// before them.
#[derive(Debug)]
pub struct ClassGen {
    seed: u64,
    /// Ops generated so far: position in the 12-op policy × class cycle.
    ops: u64,
    /// Calls so far: reseeds the sampler per call.
    calls: u64,
    next_fresh: i64,
}

impl ClassGen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        ClassGen {
            seed,
            ops: 0,
            calls: 0,
            next_fresh: 1_500_000_000,
        }
    }

    /// The next `n` updates, sampled against `view`.
    pub fn ops(&mut self, view: &ViewStore, n: usize) -> Vec<Op> {
        self.calls += 1;
        let mut gen = WorkloadGen::new(
            view,
            self.seed ^ self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (0..n)
            .map(|_| {
                let i = self.ops;
                self.ops += 1;
                let class = WorkloadClass::all()[(i % 6 / 2) as usize];
                let insert = i % 2 == 1;
                let policy = if (i / 6).is_multiple_of(2) {
                    SideEffectPolicy::Abort
                } else {
                    SideEffectPolicy::Proceed
                };
                let sampled = (0..64).find_map(|_| {
                    if insert {
                        gen.insertion(class)
                    } else {
                        gen.deletion(class)
                    }
                });
                let update = match sampled.expect("view too small to sample the class") {
                    // `WorkloadGen` numbers fresh nodes from the same base
                    // on every construction; renumber so ids stay unique
                    // across calls.
                    XmlUpdate::Insert { ty, attr, path } => {
                        self.next_fresh += 1;
                        XmlUpdate::Insert {
                            ty,
                            attr: tuple![self.next_fresh, attr[1].clone()],
                            path,
                        }
                    }
                    delete => delete,
                };
                Op {
                    update,
                    policy,
                    class: class.name(),
                }
            })
            .collect()
    }
}

/// A workload's op stream.
#[derive(Debug)]
pub enum Stream {
    /// `uniform_wide`.
    Uniform(UniformGen),
    /// `skew_sharded`.
    Skew(SkewGen),
    /// `paper_classes`.
    Classes(ClassGen),
}

/// The groups whose head can take new children: a head whose `C`/`F` join
/// fails is a leaf, and an insertion under it is (correctly) rejected as
/// untranslatable. Heads that have children in the published view are
/// known to join.
pub fn insertable_groups(view: &ViewStore) -> Vec<usize> {
    let dag = view.dag();
    let genid = dag.genid();
    let dtd = view.atg().dtd();
    let node_ty = dtd.type_id("node").expect("synthetic DTD");
    let sub_ty = dtd.type_id("sub").expect("synthetic DTD");
    let mut groups: Vec<usize> = dag
        .children(dag.root())
        .iter()
        .filter(|&&v| genid.type_of(v) == node_ty)
        .filter(|&&v| {
            dag.children(v)
                .iter()
                .any(|&s| genid.type_of(s) == sub_ty && !dag.children(s).is_empty())
        })
        .map(|&v| genid.attr_of(v)[0].as_int().expect("int id") as usize / GROUP_SIZE)
        .collect();
    groups.sort_unstable();
    groups
}

impl Stream {
    /// The stream of `spec` for `seed` over the freshly published `view`.
    pub fn new(spec: &Spec, seed: u64, view: &ViewStore) -> Stream {
        match spec.traffic {
            Traffic::Uniform => Stream::Uniform(UniformGen::new(insertable_groups(view), seed)),
            Traffic::Skew => Stream::Skew(SkewGen::new(
                DescendantConfig {
                    groups: spec.groups,
                    group_size: GROUP_SIZE,
                    descendant_fraction: 0.6,
                    hot_fraction: 0.9,
                    hot_groups: 4,
                    payload_domain: 32,
                    seed,
                },
                insertable_groups(view),
            )),
            Traffic::PaperClasses => Stream::Classes(ClassGen::new(seed)),
        }
    }

    /// The next `n` windows of `w` updates. `view` is the view as it
    /// stands now; only the class sampler looks at it.
    pub fn windows(&mut self, view: &ViewStore, n: usize, w: usize) -> Vec<Vec<Op>> {
        match self {
            Stream::Uniform(g) => (0..n).map(|_| g.window(w)).collect(),
            Stream::Skew(g) => (0..n).map(|_| g.window(w)).collect(),
            Stream::Classes(g) => {
                let mut ops = g.ops(view, n * w).into_iter();
                (0..n).map(|_| ops.by_ref().take(w).collect()).collect()
            }
        }
    }

    /// The next window of `w` updates.
    pub fn window(&mut self, view: &ViewStore, w: usize) -> Vec<Op> {
        self.windows(view, 1, w).pop().expect("one window asked")
    }
}

/// FNV-1a, the benchmark's stable hash (identical across runs, platforms
/// and compiler versions, unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one op (update text plus policy).
    pub fn write_op(&mut self, op: &Op) {
        self.write(op.update.to_string().as_bytes());
        self.write(match op.policy {
            SideEffectPolicy::Abort => b"|abort\n",
            SideEffectPolicy::Proceed => b"|proceed\n",
        });
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `(inserts, deletes, ops per class)` of a window.
pub fn mix(ops: &[Op]) -> (usize, usize, Vec<(&'static str, usize)>) {
    let inserts = ops.iter().filter(|o| o.update.is_insert()).count();
    let mut classes: Vec<(&'static str, usize)> = Vec::new();
    for op in ops {
        match classes.iter_mut().find(|(c, _)| *c == op.class) {
            Some((_, n)) => *n += 1,
            None => classes.push((op.class, 1)),
        }
    }
    classes.sort_unstable();
    (inserts, ops.len() - inserts, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        spec, CHECK_OPS, DEFAULT_SECONDS, MAX_SECONDS, NAMES, SLICES, TAIL_WINDOW,
    };
    use rxview_workload::{synthetic_atg, synthetic_database, SyntheticConfig};

    fn view(groups: usize) -> ViewStore {
        let db = synthetic_database(&SyntheticConfig::with_size(groups * GROUP_SIZE));
        let atg = synthetic_atg(&db).unwrap();
        ViewStore::publish(atg, &db).unwrap()
    }

    /// Warm-up plus a few burst windows of the smoke-sized workload.
    fn windows(name: &str, seed: u64, vs: &ViewStore) -> Vec<Vec<Op>> {
        let spec = spec(name).unwrap().smoke();
        let mut stream = Stream::new(&spec, seed, vs);
        stream.windows(vs, 2 + 6, spec.window)
    }

    fn hash(windows: &[Vec<Op>]) -> u64 {
        let mut h = Fnv::default();
        windows.iter().flatten().for_each(|op| h.write_op(op));
        h.0
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in NAMES {
            let vs = view(spec(name).unwrap().smoke().groups);
            let a = hash(&windows(name, 7, &vs));
            assert_eq!(a, hash(&windows(name, 7, &vs)), "{name}: seed 7 twice");
            assert_ne!(a, hash(&windows(name, 8, &vs)), "{name}: seed 7 vs 8");
        }
    }

    #[test]
    fn every_burst_window_has_the_same_mix() {
        for name in NAMES {
            let vs = view(spec(name).unwrap().smoke().groups);
            for seed in [1, 2] {
                let all = windows(name, seed, &vs);
                // The two warm-up windows absorb the prefill.
                let burst = &all[2..];
                let first = mix(&burst[0]);
                assert!(first.0 > 0 && first.1 > 0, "{name}: inserts and deletes");
                for w in burst {
                    assert_eq!(mix(w), first, "{name} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn full_size_windows_are_stratified() {
        let head_of = |o: &Op| {
            let p = o.update.path().to_string();
            p[..=p.find(']').expect("anchored on a head")].to_owned()
        };
        let mut uniform = UniformGen::new((0..512).collect(), 3);
        uniform.window(256);
        let w = uniform.window(256);
        assert_eq!(mix(&w), (128, 128, vec![("anchored", 256)]));
        let mut heads: Vec<String> = w.iter().map(head_of).collect();
        heads.sort();
        heads.dedup();
        assert_eq!(heads.len(), 256, "one op per group");

        let vs = view(256);
        let groups = insertable_groups(&vs);
        assert!(groups.len() > 180 && groups.len() < 256, "{}", groups.len());
        let s = spec("skew_sharded").unwrap();
        let Stream::Skew(mut skew) = Stream::new(&s, 3, &vs) else {
            panic!("skew stream")
        };
        skew.window(256);
        let w = skew.window(256);
        // 232 hot ops (29 insert/delete pairs on each of 4 anchors), 24 cold.
        assert_eq!(
            mix(&w),
            (128, 128, vec![("anchored", 102), ("descendant", 154)])
        );
        let hot_heads: Vec<String> = groups[..4]
            .iter()
            .map(|g| format!("node[id=\"{}\"]", g * GROUP_SIZE))
            .collect();
        let hot = w
            .iter()
            .filter(|o| hot_heads.contains(&head_of(o).trim_start_matches('/').to_owned()))
            .count();
        assert_eq!(hot, 232);
    }

    /// The two ring generators panic when a window wants more idle groups
    /// than the dataset has. The windows below are the ones `session.rs`
    /// asks for, in its order, at the largest `--seconds` the command line
    /// accepts (and the traced run's concurrent passes on top).
    #[test]
    fn the_longest_session_fits_the_rings() {
        for name in ["uniform_wide", "skew_sharded"] {
            let spec = spec(name)
                .unwrap()
                .scaled(MAX_SECONDS as f64 / DEFAULT_SECONDS as f64);
            let vs = view(spec.groups);
            let mut stream = Stream::new(&spec, 1, &vs);
            let mut ops = 0;
            let mut ask = |n: usize, w: usize| {
                ops += stream
                    .windows(&vs, n, w)
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>();
            };
            ask(2, spec.window);
            for slice in 0..SLICES {
                let share = |n: usize| n * (slice + 1) / SLICES - n * slice / SLICES;
                ask(1, CHECK_OPS);
                ask(share(spec.burst_windows), spec.window);
                ask(1, share(spec.trickle_ops));
                ask(share(spec.serve_cycles), spec.window);
            }
            ask(3 * spec.conc_windows, spec.window);
            ask(spec.tail_windows, TAIL_WINDOW);
            assert_eq!(
                ops,
                2 * spec.window + spec.session_updates() + 3 * spec.conc_windows * spec.window,
                "{name}"
            );
        }
    }

    #[test]
    fn class_windows_cycle_classes_and_policies() {
        let vs = view(32);
        let mut gen = ClassGen::new(5);
        let ops = gen.ops(&vs, 24);
        let classes: Vec<_> = ops.iter().take(6).map(|o| o.class).collect();
        assert_eq!(classes, ["W1", "W1", "W2", "W2", "W3", "W3"]);
        assert!(ops[..6].iter().all(|o| o.policy == SideEffectPolicy::Abort));
        assert!(ops[6..12]
            .iter()
            .all(|o| o.policy == SideEffectPolicy::Proceed));
        assert!(!ops[0].update.is_insert() && ops[1].update.is_insert());
        // Fresh ids stay unique across calls.
        let more = gen.ops(&vs, 12);
        let ids: std::collections::BTreeSet<String> = ops
            .iter()
            .chain(&more)
            .filter_map(|o| match &o.update {
                XmlUpdate::Insert { attr, .. } => Some(attr[0].to_string()),
                XmlUpdate::Delete { .. } => None,
            })
            .collect();
        assert_eq!(ids.len(), 18);
    }
}
