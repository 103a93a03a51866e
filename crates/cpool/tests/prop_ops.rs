//! Property-based tests of the unified operations API ([`cpool::PoolOps`]):
//! arbitrary interleavings of batch and single operations preserve the
//! element multiset on both pool frontends.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cpool::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Add(u16),
    AddBatch(Vec<u16>),
    Remove,
    RemoveBatch(usize),
    Drain,
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..500).prop_map(Op::Add),
            prop::collection::vec(0u16..500, 0..12).prop_map(Op::AddBatch),
            Just(Op::Remove),
            (0usize..10).prop_map(Op::RemoveBatch),
            Just(Op::Drain),
        ],
        0..200,
    )
}

/// A multiset model: counts per value.
#[derive(Default)]
struct Model {
    counts: BTreeMap<u16, usize>,
    len: usize,
}

impl Model {
    fn insert(&mut self, v: u16) {
        *self.counts.entry(v).or_default() += 1;
        self.len += 1;
    }

    fn take(&mut self, v: u16) -> bool {
        match self.counts.get_mut(&v) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&v);
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain pool, single process: any interleaving of `add`/`add_batch`/
    /// `try_remove`/`try_remove_batch`/`drain` behaves exactly like a
    /// multiset, and the per-process statistics count one add/remove per
    /// element whatever the batching.
    #[test]
    fn batch_and_single_ops_preserve_the_multiset(
        kind in prop_oneof![
            Just(PolicyKind::Linear), Just(PolicyKind::Random), Just(PolicyKind::Tree)
        ],
        ops in script(),
        segs in 1usize..6,
    ) {
        let pool: Pool<VecSegment<u16>, DynPolicy> =
            PoolBuilder::new(segs).seed(5).build_policy(kind);
        let mut h = pool.register();
        let mut model = Model::default();

        for op in &ops {
            match op {
                Op::Add(v) => {
                    h.add(*v);
                    model.insert(*v);
                }
                Op::AddBatch(vs) => {
                    h.add_batch(vs.iter().copied());
                    for v in vs {
                        model.insert(*v);
                    }
                }
                Op::Remove => match h.try_remove() {
                    Ok(v) => prop_assert!(model.take(v), "pool invented value {v}"),
                    Err(err) => {
                        prop_assert_eq!(err, RemoveError::Aborted);
                        prop_assert_eq!(model.len, 0);
                    }
                },
                Op::RemoveBatch(n) => {
                    let got = h.try_remove_batch(*n);
                    prop_assert!(got.len() <= *n, "batch overshot the request");
                    // A lone process only comes back empty-handed when the
                    // pool itself is empty (its search aborts terminally).
                    if got.is_empty() && *n > 0 {
                        prop_assert_eq!(model.len, 0);
                    }
                    for v in got {
                        prop_assert!(model.take(v), "batch invented value {v}");
                    }
                }
                Op::Drain => {
                    let got = h.drain();
                    prop_assert_eq!(got.len(), model.len, "drain missed elements");
                    for v in got {
                        prop_assert!(model.take(v), "drain invented value {v}");
                    }
                    prop_assert_eq!(model.len, 0);
                }
            }
            prop_assert_eq!(pool.total_len(), model.len);
        }

        // Per-element accounting holds whatever mix of batched and single
        // operations ran: adds - removes == residue.
        let stats = h.stats();
        prop_assert_eq!(stats.adds - stats.removes, model.len as u64);
    }

    /// Keyed pool: the same interleavings over `(key, value)` pairs behave
    /// like a multimap. Batch ops go through the `PoolOps` vocabulary.
    #[test]
    fn keyed_batch_and_single_ops_preserve_the_multimap(
        ops in script(),
        segs in 1usize..5,
    ) {
        let pool: KeyedPool<u8, u16> = KeyedPool::new(segs);
        let mut h = pool.register();
        // Model counts per (key, value) pair; keys derive from the value so
        // scripts cover several buckets.
        let mut model: BTreeMap<(u8, u16), usize> = BTreeMap::new();
        let mut model_len = 0usize;
        let key_of = |v: u16| (v % 3) as u8;

        for op in &ops {
            match op {
                Op::Add(v) => {
                    h.add(key_of(*v), *v);
                    *model.entry((key_of(*v), *v)).or_default() += 1;
                    model_len += 1;
                }
                Op::AddBatch(vs) => {
                    h.add_batch(vs.iter().map(|&v| (key_of(v), v)));
                    for &v in vs {
                        *model.entry((key_of(v), v)).or_default() += 1;
                        model_len += 1;
                    }
                }
                Op::Remove => match h.try_remove_any() {
                    Ok((k, v)) => {
                        prop_assert_eq!(k, key_of(v), "value under the wrong key");
                        let c = model.get_mut(&(k, v)).expect("pool invented a pair");
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&(k, v));
                        }
                        model_len -= 1;
                    }
                    Err(err) => {
                        prop_assert_eq!(err, RemoveError::Aborted);
                        prop_assert_eq!(model_len, 0);
                    }
                },
                Op::RemoveBatch(n) => {
                    let got = h.try_remove_batch(*n);
                    prop_assert!(got.len() <= *n);
                    if got.is_empty() && *n > 0 {
                        prop_assert_eq!(model_len, 0);
                    }
                    for (k, v) in got {
                        prop_assert_eq!(k, key_of(v), "value under the wrong key");
                        let c = model.get_mut(&(k, v)).expect("batch invented a pair");
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&(k, v));
                        }
                        model_len -= 1;
                    }
                }
                Op::Drain => {
                    let got = h.drain();
                    prop_assert_eq!(got.len(), model_len, "drain missed pairs");
                    for (k, v) in got {
                        let c = model.get_mut(&(k, v)).expect("drain invented a pair");
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&(k, v));
                        }
                        model_len -= 1;
                    }
                    prop_assert_eq!(model_len, 0);
                }
            }
            prop_assert_eq!(pool.total_len(), model_len);
        }

        let stats = h.stats();
        prop_assert_eq!(stats.adds - stats.removes, model_len as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Magazine-enabled plain pool: elements split across three tiers —
    /// segments (`total_len`), the shared depot, and this handle's own
    /// two-magazine cache — and every interleaving of single/batch ops
    /// conserves the multiset across all of them. Flush (magazine →
    /// depot/segment) and refill (depot → magazine) must never lose or
    /// invent an element.
    #[test]
    fn magazine_flush_refill_preserves_the_multiset(
        kind in prop_oneof![
            Just(PolicyKind::Linear), Just(PolicyKind::Random), Just(PolicyKind::Tree)
        ],
        ops in script(),
        segs in 1usize..5,
        depth in 1usize..9,
    ) {
        let pool: Pool<VecSegment<u16>, DynPolicy> =
            PoolBuilder::new(segs).seed(7).handle_cache(depth).build_policy(kind);
        let mut h = pool.register();
        let mut model = Model::default();

        for op in &ops {
            match op {
                Op::Add(v) => {
                    h.add(*v);
                    model.insert(*v);
                }
                Op::AddBatch(vs) => {
                    h.add_batch(vs.iter().copied());
                    for v in vs {
                        model.insert(*v);
                    }
                }
                Op::Remove => match h.try_remove() {
                    Ok(v) => prop_assert!(model.take(v), "pool invented value {v}"),
                    Err(err) => {
                        prop_assert_eq!(err, RemoveError::Aborted);
                        prop_assert_eq!(model.len, 0);
                    }
                },
                Op::RemoveBatch(n) => {
                    let got = h.try_remove_batch(*n);
                    prop_assert!(got.len() <= *n, "batch overshot the request");
                    // The lone process reaches every tier: its own cache
                    // (magazine pop), the depot (raid), and the segments.
                    if got.is_empty() && *n > 0 {
                        prop_assert_eq!(model.len, 0);
                    }
                    for v in got {
                        prop_assert!(model.take(v), "batch invented value {v}");
                    }
                }
                Op::Drain => {
                    let got = h.drain();
                    prop_assert_eq!(got.len(), model.len, "drain missed a tier");
                    for v in got {
                        prop_assert!(model.take(v), "drain invented value {v}");
                    }
                    prop_assert_eq!(model.len, 0);
                }
            }
            // The conservation law: nothing hides outside the three tiers.
            prop_assert_eq!(
                pool.total_len() + pool.depot_len() + h.cached_len(),
                model.len,
                "segments + depot + handle cache must equal the model"
            );
        }

        // Cached ops count like visible ones: adds - removes == residue.
        let stats = h.stats();
        prop_assert_eq!(stats.adds - stats.removes, model.len as u64);
    }

    /// The keyed twin: mixed-key magazines over `(key, value)` pairs. The
    /// per-key remove must also find pairs that live only in this handle's
    /// cache or the depot (take_matching / keyed raid paths).
    #[test]
    fn keyed_magazine_flush_refill_preserves_the_multimap(
        ops in script(),
        segs in 1usize..4,
        depth in 1usize..9,
    ) {
        let pool: KeyedPool<u8, u16> =
            KeyedPoolBuilder::new(segs).handle_cache(depth).build();
        let mut h = pool.register();
        let mut model: BTreeMap<(u8, u16), usize> = BTreeMap::new();
        let mut model_len = 0usize;
        let key_of = |v: u16| (v % 3) as u8;

        for op in &ops {
            match op {
                Op::Add(v) => {
                    h.add(key_of(*v), *v);
                    *model.entry((key_of(*v), *v)).or_default() += 1;
                    model_len += 1;
                }
                Op::AddBatch(vs) => {
                    h.add_batch(vs.iter().map(|&v| (key_of(v), v)));
                    for &v in vs {
                        *model.entry((key_of(v), v)).or_default() += 1;
                        model_len += 1;
                    }
                }
                // Alternate the remove flavor so the keyed paths (magazine
                // scan + keyed depot raid) get traffic too: remove by the
                // key of some pair the model still holds.
                Op::Remove => match model.keys().next().copied() {
                    Some((k, _)) => {
                        let v = h.try_remove_key(&k).expect("key observed non-empty");
                        prop_assert_eq!(key_of(v), k, "value under the wrong key");
                        prop_assert!(
                            model_take(&mut model, &mut model_len, k, v),
                            "pool invented a pair"
                        );
                    }
                    None => match h.try_remove_any() {
                        Ok(_) => prop_assert!(false, "remove on empty pool succeeded"),
                        Err(err) => prop_assert_eq!(err, RemoveError::Aborted),
                    },
                },
                Op::RemoveBatch(n) => {
                    let got = h.try_remove_batch(*n);
                    prop_assert!(got.len() <= *n);
                    if got.is_empty() && *n > 0 {
                        prop_assert_eq!(model_len, 0);
                    }
                    for (k, v) in got {
                        prop_assert_eq!(k, key_of(v), "value under the wrong key");
                        prop_assert!(
                            model_take(&mut model, &mut model_len, k, v),
                            "batch invented a pair"
                        );
                    }
                }
                Op::Drain => {
                    let got = h.drain();
                    prop_assert_eq!(got.len(), model_len, "drain missed a tier");
                    for (k, v) in got {
                        prop_assert!(
                            model_take(&mut model, &mut model_len, k, v),
                            "drain invented a pair"
                        );
                    }
                    prop_assert_eq!(model_len, 0);
                }
            }
            prop_assert_eq!(
                pool.total_len() + pool.depot_len() + h.cached_len(),
                model_len,
                "segments + depot + handle cache must equal the model"
            );
        }

        let stats = h.stats();
        prop_assert_eq!(stats.adds - stats.removes, model_len as u64);
    }
}

/// Pops one `(key, value)` pair out of the model, failing if the pool
/// invented it.
fn model_take(
    model: &mut BTreeMap<(u8, u16), usize>,
    model_len: &mut usize,
    k: u8,
    v: u16,
) -> bool {
    match model.get_mut(&(k, v)) {
        Some(c) if *c > 0 => {
            *c -= 1;
            if *c == 0 {
                model.remove(&(k, v));
            }
            *model_len -= 1;
            true
        }
        _ => false,
    }
}
