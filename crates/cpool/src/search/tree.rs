//! Manber's tree search algorithm (§2.1 of Kotz & Ellis 1989).
//!
//! A full binary tree is superimposed on the segments, each segment at a
//! leaf. Embedded in the tree is "information that helps the processes
//! avoid subtrees that have recently been found to be devoid of elements":
//! every subtree carries a **round counter** recording the most recent
//! *round* (complete traversal) in which it was found entirely empty, and
//! every process carries its own round number (`MyRound`).
//!
//! After probing a leaf and finding it empty, a process walks upward. At
//! each internal node it compares its round with the counters of the child
//! it came from and that child's sibling, and then either
//!
//! 1. **descends** into the sibling subtree (sibling counter < `MyRound`):
//!    the sibling was not marked empty as recently — jump directly to the
//!    *matching descendant* leaf (Figure 1);
//! 2. **moves further up** (sibling counter = `MyRound`): the sibling was
//!    marked empty as recently as the current subtree — or, at the root,
//!    starts a new round back at its own leaf;
//! 3. **catches up** (a counter > `MyRound`): some other process is already
//!    in a later round — adopt the higher round and restart at its own leaf.
//!
//! "The round counters of the various subtrees must be accessed with locks
//! protecting them so the examination and modification of the counters is
//! done atomically": one lock per internal node guards its two children's
//! counters.

use parking_lot::Mutex;

use crate::ids::SegIdx;

use super::topology::{TreeShape, ROOT};
use super::{ProbeOutcome, SearchEnv, SearchOutcome, SearchPolicy};

/// Upward-walk decision at an internal node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Decision {
    /// Case 1: descend to the matching descendant in the sibling subtree.
    DescendSibling,
    /// Case 2: both subtrees marked this round; continue to the parent.
    Ascend,
    /// Case 2 at the root: the whole tree is empty this round; a new round
    /// begins at the process's own leaf.
    NewRound,
    /// Case 3: this process is behind; it adopted the higher round and
    /// restarts at its own leaf.
    Behind,
}

/// Manber's round-counter tree search.
///
/// The policy owns the shared tree (round counters); per-process state
/// ([`TreeState`]) holds `MyRound`, the process's own leaf, and the most
/// recently visited leaf.
#[derive(Debug)]
pub struct TreeSearch {
    shape: TreeShape,
    /// Round counters, one lock per internal node (heap index
    /// `1..leaves`; slot 0 unused). The counter of node `x` lives in slot
    /// `x & 1` of its parent's cell, so one lock acquisition covers the
    /// examine-and-modify sequence on both children, as the paper
    /// requires. The root has no counter: reaching it with an equal
    /// sibling starts a new round instead.
    cells: Box<[Mutex<[u64; 2]>]>,
}

impl TreeSearch {
    /// Creates a tree policy with the paper's locked round counters.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        let shape = TreeShape::new(segments);
        let cells = (0..shape.leaves()).map(|_| Mutex::new([0, 0])).collect();
        TreeSearch { shape, cells }
    }

    /// The tree geometry in use.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Round counter currently recorded for `node` (diagnostic).
    ///
    /// # Panics
    ///
    /// Panics if `node` is the root or out of range.
    pub fn round_counter(&self, node: usize) -> u64 {
        assert!(node > ROOT && self.shape.contains(node), "node {node} has no round counter");
        self.cells[node / 2].lock()[node & 1]
    }

    /// One examine-and-modify visit to `parent`, having come up from
    /// `child`. Implements the three cases of the paper's pseudocode.
    fn visit(&self, parent: usize, child: usize, my_round: &mut u64) -> Decision {
        debug_assert_eq!(child / 2, parent);
        let mut cell = self.cells[parent].lock();
        let slot = child & 1;
        let rc_child = cell[slot];
        let rc_sibling = cell[slot ^ 1];
        if rc_child > *my_round || rc_sibling > *my_round {
            // Case 3: behind — adopt the higher round, do not mark.
            *my_round = rc_child.max(rc_sibling);
            return Decision::Behind;
        }
        // Mark the subtree we came from empty as of our round. Under the
        // lock we know rc_child <= my_round, so this never lowers the
        // counter.
        cell[slot] = *my_round;
        if rc_sibling == *my_round {
            if parent == ROOT {
                *my_round += 1;
                Decision::NewRound
            } else {
                Decision::Ascend
            }
        } else {
            Decision::DescendSibling
        }
    }
}

/// Per-process state for [`TreeSearch`].
#[derive(Clone, Copy, Debug)]
pub struct TreeState {
    /// The process's current round number (`MyRound`; initially 1).
    my_round: u64,
    /// Heap index of the leaf holding the process's own segment (`MyLeaf`).
    my_leaf: usize,
    /// Heap index of the most recently visited leaf (`LastLeaf`).
    last_leaf: usize,
}

impl TreeState {
    /// The process's current round number.
    pub fn my_round(&self) -> u64 {
        self.my_round
    }

    /// Heap index of the most recently visited leaf.
    pub fn last_leaf(&self) -> usize {
        self.last_leaf
    }
}

impl SearchPolicy for TreeSearch {
    type State = TreeState;

    fn name(&self) -> &'static str {
        "tree"
    }

    fn init_state(&self, me: SegIdx, segments: usize, _seed: u64) -> TreeState {
        debug_assert_eq!(segments, self.shape.segments());
        let my_leaf = self.shape.leaf_of(me);
        TreeState { my_round: 1, my_leaf, last_leaf: my_leaf }
    }

    fn search(&self, state: &mut TreeState, env: &mut dyn SearchEnv) -> SearchOutcome {
        let shape = self.shape;
        debug_assert_eq!(env.segments(), shape.segments());

        // Degenerate single-leaf tree: the root is the only (own) leaf;
        // there is nowhere to steal from, so poll until add or abort.
        if shape.leaves() == 1 {
            loop {
                if let ProbeOutcome::Stolen { .. } = env.try_steal(SegIdx::new(0)) {
                    return SearchOutcome::Found;
                }
                if env.should_abort() {
                    return SearchOutcome::Aborted;
                }
            }
        }

        // The paper's first search starts at MyLeaf; init_state seeds
        // last_leaf with my_leaf so both cases begin at last_leaf.
        let mut target = state.last_leaf;
        loop {
            // --- leaf visit ---------------------------------------------
            state.last_leaf = target;
            if let Some(seg) = shape.seg_of(target) {
                if let ProbeOutcome::Stolen { .. } = env.try_steal(seg) {
                    return SearchOutcome::Found;
                }
            }
            // (phantom leaves of a non-power-of-two pool are permanently
            // empty and probed for free)

            // --- upward walk ---------------------------------------------
            let mut child = target;
            target = loop {
                let parent = shape.parent(child);
                env.charge_tree_node(parent);
                match self.visit(parent, child, &mut state.my_round) {
                    Decision::Ascend => {
                        child = parent;
                    }
                    Decision::DescendSibling => {
                        break shape.matching_descendant(state.last_leaf, child);
                    }
                    Decision::NewRound | Decision::Behind => {
                        break state.my_leaf;
                    }
                }
            };

            // Persist forward progress before a possible abort: the gate can
            // fire after a single probe (e.g. a lone registered process), and
            // a caller that retries after `Aborted` must resume at the leaf
            // the walk chose — re-probing the same leaf forever would
            // livelock while elements sit elsewhere in the tree.
            state.last_leaf = target;
            if env.should_abort() {
                return SearchOutcome::Aborted;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testenv::ScriptEnv;

    fn policy(n: usize) -> TreeSearch {
        TreeSearch::new(n)
    }

    fn run(
        policy: &TreeSearch,
        state: &mut TreeState,
        counts: Vec<usize>,
        me: usize,
        abort_after: Option<usize>,
    ) -> (SearchOutcome, ScriptEnv) {
        let mut env = ScriptEnv::new(counts, me);
        env.abort_after = abort_after;
        let outcome = policy.search(state, &mut env);
        (outcome, env)
    }

    #[test]
    fn finds_element_in_own_leaf_first() {
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(2), 4, 0);
        let (outcome, env) = run(&p, &mut st, vec![0, 0, 5, 0], 2, None);
        assert_eq!(outcome, SearchOutcome::Found);
        assert_eq!(env.probes, vec![2], "first probe is the process's own leaf");
    }

    #[test]
    fn matching_descendant_skips_probed_subtrees() {
        // Segments 0..4, process 0, elements only at segment 3. The walk is:
        // probe 0 (empty), mark leaf0, descend to match -> leaf 1; probe 1
        // (empty), mark leaf1, ascend, mark subtree {0,1}, descend to
        // match(leaf1 around subtree) -> leaf 3. Segment 2 is never probed.
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(0), 4, 0);
        let (outcome, env) = run(&p, &mut st, vec![0, 0, 0, 9], 0, None);
        assert_eq!(outcome, SearchOutcome::Found);
        assert_eq!(env.probes, vec![0, 1, 3], "jumped to the matching descendant");
    }

    #[test]
    fn atomic_store_behaves_like_locked_when_single_threaded() {
        // The lock-free counter store this once compared against is gone;
        // the test now pins what the locked counters hold after the same
        // single-threaded walk as `matching_descendant_skips_probed_subtrees`
        // (probes 0, 1, 3 on 4 segments; leaves are heap nodes 4..8).
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(0), 4, 0);
        let (outcome, env) = run(&p, &mut st, vec![0, 0, 0, 9], 0, None);
        assert_eq!(outcome, SearchOutcome::Found);
        assert_eq!(env.probes, vec![0, 1, 3]);
        assert_eq!(st.my_round(), 1, "a found element ends the walk inside round 1");
        assert_eq!(st.last_leaf(), 7, "the walk ends at segment 3's leaf");
        // Leaves 4, 5 and their subtree (node 2) were found empty in round 1;
        // the sibling subtree (node 3) and its leaves were never marked.
        for (node, round) in [(2, 1), (3, 0), (4, 1), (5, 1), (6, 0), (7, 0)] {
            assert_eq!(p.round_counter(node), round, "counter of node {node}");
        }
    }

    #[test]
    fn empty_tree_round_marks_all_counters() {
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(0), 4, 0);
        assert_eq!(st.my_round(), 1);
        // Empty pool: let it do a bit more than one full round, then abort.
        let (outcome, _env) = run(&p, &mut st, vec![0; 4], 0, Some(5));
        assert_eq!(outcome, SearchOutcome::Aborted);
        assert!(st.my_round() >= 2, "a full empty traversal starts a new round");
        // After a complete round every non-root node was marked with round 1.
        for node in 2..8 {
            assert!(p.round_counter(node) >= 1, "node {node} unmarked after a full round");
        }
    }

    #[test]
    fn lagging_process_catches_up() {
        let p = policy(8);
        // Process A exhausts several rounds on an empty pool.
        let mut a = p.init_state(SegIdx::new(0), 8, 0);
        let (_, _) = run(&p, &mut a, vec![0; 8], 0, Some(40));
        assert!(a.my_round() > 2);

        // Process B starts fresh (round 1); on its first upward walk it must
        // observe a counter from A's later round and jump forward (case 3)
        // rather than repeating A's wasted work.
        let mut b = p.init_state(SegIdx::new(5), 8, 0);
        let (_, env_b) = run(&p, &mut b, vec![0; 8], 5, Some(3));
        assert!(
            b.my_round() >= a.my_round() - 1,
            "B caught up to round {} (A reached {})",
            b.my_round(),
            a.my_round()
        );
        assert!(env_b.probes.len() <= 3, "catch-up is quick");
    }

    #[test]
    fn new_round_restarts_at_own_leaf() {
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(1), 4, 0);
        // One full empty round from leaf 1 probes 1, then its match 0, then
        // across the root. After the round the process restarts at leaf 1.
        let (_, env) = run(&p, &mut st, vec![0; 4], 1, Some(5));
        assert_eq!(env.probes[0], 1);
        // The 5th probe (index 4) begins round 2 back at the process's leaf.
        assert_eq!(env.probes[4], 1, "new round restarts at own leaf: {:?}", env.probes);
    }

    #[test]
    fn second_search_starts_at_last_leaf() {
        let p = policy(4);
        let mut st = p.init_state(SegIdx::new(0), 4, 0);
        let (outcome, _) = run(&p, &mut st, vec![0, 0, 0, 8], 0, None);
        assert_eq!(outcome, SearchOutcome::Found);
        assert_eq!(st.last_leaf(), p.shape().leaf_of(SegIdx::new(3)));
        // Victim still holds elements; next search resumes at that leaf.
        let (outcome2, env2) = run(&p, &mut st, vec![0, 0, 0, 4], 0, None);
        assert_eq!(outcome2, SearchOutcome::Found);
        assert_eq!(env2.probes, vec![3], "resumed at LastLeaf");
    }

    #[test]
    fn examines_fewer_segments_than_linear_on_occupied_far_segment() {
        // The design rationale of the tree (§4.3: "the tree algorithm ...
        // examines many fewer segments in the course of a steal"): with the
        // only stocked victim ring-farthest from the searcher, the linear
        // search crawls all n segments while the tree's matching-descendant
        // jumps skip subtrees it has marked empty along the way.
        let n = 16;
        let far = {
            let mut c = vec![0; n];
            c[n - 1] = 100;
            c
        };

        let tree = policy(n);
        let mut tree_state = tree.init_state(SegIdx::new(0), n, 0);
        let (outcome, tree_env) = run(&tree, &mut tree_state, far.clone(), 0, None);
        assert_eq!(outcome, SearchOutcome::Found);

        let linear = crate::search::LinearSearch::new(n);
        let mut linear_state = SearchPolicy::init_state(&linear, SegIdx::new(0), n, 0);
        let mut linear_env = ScriptEnv::new(far, 0);
        assert_eq!(
            SearchPolicy::search(&linear, &mut linear_state, &mut linear_env),
            SearchOutcome::Found
        );

        assert!(
            tree_env.probes.len() < linear_env.probes.len(),
            "tree probed {} segments, linear {}",
            tree_env.probes.len(),
            linear_env.probes.len()
        );

        // And once the round counters are warm, a repeat search with the
        // same occupancy resumes at the stocked leaf immediately.
        let (outcome2, env2) = run(
            &tree,
            &mut tree_state,
            {
                let mut c = vec![0; n];
                c[n - 1] = 50;
                c
            },
            0,
            None,
        );
        assert_eq!(outcome2, SearchOutcome::Found);
        assert_eq!(env2.probes, vec![n - 1], "steering goes straight back");
    }

    #[test]
    fn tree_charges_internal_nodes() {
        let p = policy(8);
        let mut st = p.init_state(SegIdx::new(0), 8, 0);
        let (_, env) = run(&p, &mut st, vec![0, 0, 0, 0, 0, 0, 0, 2], 0, None);
        assert!(!env.node_charges.is_empty(), "tree search pays for node accesses");
        for node in &env.node_charges {
            assert!(*node >= ROOT && *node < 8, "only internal nodes are visited: {node}");
        }
    }

    #[test]
    fn phantom_leaves_are_skipped_gracefully() {
        // 3 segments -> 4 leaves; leaf 3 is a phantom. Elements at segment 2.
        let p = policy(3);
        let mut st = p.init_state(SegIdx::new(0), 3, 0);
        let (outcome, env) = run(&p, &mut st, vec![0, 0, 7], 0, None);
        assert_eq!(outcome, SearchOutcome::Found);
        assert_eq!(*env.probes.last().unwrap(), 2);
        assert!(env.probes.iter().all(|&s| s < 3), "phantoms never reach the env");
    }

    #[test]
    fn single_segment_polls_until_abort() {
        let p = policy(1);
        let mut st = p.init_state(SegIdx::new(0), 1, 0);
        let (outcome, env) = run(&p, &mut st, vec![0], 0, Some(3));
        assert_eq!(outcome, SearchOutcome::Aborted);
        assert_eq!(env.probes, vec![0, 0, 0]);
    }

    #[test]
    fn full_round_visits_every_segment() {
        // Within one round every leaf is examined at least once (the
        // definition of a round). Run on an empty 8-pool and record probes
        // until the round increments.
        let p = policy(8);
        let mut st = p.init_state(SegIdx::new(3), 8, 0);
        let mut env = ScriptEnv::new(vec![0; 8], 3);
        env.abort_after = Some(64);
        let _ = p.search(&mut st, &mut env);
        let mut seen: Vec<usize> = env.probes.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..8).collect::<Vec<_>>(), "round covered all segments");
    }
}
