//! Search algorithms: how a process finds a segment to steal from.
//!
//! "Given a workload that generates a sufficiently high frequency of steals,
//! the search algorithm becomes the dominant factor in the performance of
//! the pool as a whole." — Kotz & Ellis, §2.
//!
//! Three algorithms are provided, exactly those evaluated in the paper:
//!
//! * [`TreeSearch`] — Manber's round-counter tree (§2.1),
//! * [`LinearSearch`] — ring traversal (§2.2),
//! * [`RandomSearch`] — random probing (§2.3).
//!
//! A policy is straight-line code over a [`SearchEnv`], the callback
//! interface the pool provides during a search. All cost accounting
//! (remote probes, tree-node visits) happens inside the environment, so the
//! identical policy code runs on raw threads, with injected NUMA delays, or
//! under a deterministic virtual-time scheduler.

mod linear;
mod random;
pub mod topology;
mod tree;

use std::any::Any;
use std::fmt;
use std::str::FromStr;

pub use linear::{LinearSearch, LinearState};
pub use random::{RandomSearch, RandomState};
pub use tree::{TreeSearch, TreeState};

use crate::ids::SegIdx;

/// Result of probing a victim segment during a search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// The probe stole `stolen` elements (⌈n/2⌉ of the victim's `n`); one of
    /// them satisfies the pending remove and the rest were moved into the
    /// searcher's own segment.
    Stolen {
        /// Total number of elements taken from the victim.
        stolen: usize,
    },
    /// The victim segment was empty.
    Empty,
}

/// Result of a whole search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchOutcome {
    /// Elements were found and stolen; the pending remove is satisfied.
    Found,
    /// The livelock breaker fired: every registered process was searching.
    Aborted,
}

/// The environment a search policy operates in.
///
/// Implemented by the pool; handed to [`SearchPolicy::search`]. Every method
/// that touches shared memory charges the acting process through the pool's
/// [`Timing`](crate::timing::Timing) before performing the access.
pub trait SearchEnv {
    /// Number of (real) segments in the pool.
    fn segments(&self) -> usize;

    /// The searcher's own segment.
    fn my_segment(&self) -> SegIdx;

    /// Probe `victim` and, if it is non-empty, steal ⌈n/2⌉ of its elements
    /// (moving all but one into the searcher's own segment).
    fn try_steal(&mut self, victim: SegIdx) -> ProbeOutcome;

    /// Charge one access to superimposed-tree node `node` (heap index).
    fn charge_tree_node(&mut self, node: usize);

    /// Whether the search must abort (all registered processes searching).
    fn should_abort(&mut self) -> bool;
}

/// A search algorithm.
///
/// Policies are shared across all processes of a pool (`&self`); any shared
/// algorithm state (e.g. the tree's round counters) lives inside the policy,
/// and any per-process state (round number, last leaf visited, RNG) lives in
/// the associated [`State`](SearchPolicy::State), owned by the process's
/// [`Handle`](crate::Handle).
pub trait SearchPolicy: Send + Sync + 'static {
    /// Per-process search state.
    type State: Send + 'static;

    /// Human-readable algorithm name (used in reports).
    fn name(&self) -> &'static str;

    /// Creates the per-process state for process with home segment `me`.
    ///
    /// `seed` derives any per-process randomness deterministically.
    fn init_state(&self, me: SegIdx, segments: usize, seed: u64) -> Self::State;

    /// Runs one search to completion: probes segments through `env` until
    /// elements are stolen or the abort condition fires.
    fn search(&self, state: &mut Self::State, env: &mut dyn SearchEnv) -> SearchOutcome;
}

/// Selector for the three search algorithms, for configuration surfaces
/// (experiment specs, CLI flags) that choose a policy at runtime.
///
/// ```
/// use cpool::PolicyKind;
/// let k: PolicyKind = "tree".parse().unwrap();
/// assert_eq!(k, PolicyKind::Tree);
/// assert_eq!(k.to_string(), "tree");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyKind {
    /// Ring traversal from the last segment where elements were found.
    Linear,
    /// Uniformly random probing.
    Random,
    /// Manber's round-counter tree search.
    Tree,
}

impl PolicyKind {
    /// All three kinds, in the paper's presentation order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Tree, PolicyKind::Linear, PolicyKind::Random];

    /// Builds a boxed, type-erased policy of this kind for a pool of
    /// `segments` segments.
    pub fn build(self, segments: usize) -> DynPolicy {
        match self {
            PolicyKind::Linear => DynPolicy::new(LinearSearch::new(segments)),
            PolicyKind::Random => DynPolicy::new(RandomSearch::new(segments)),
            PolicyKind::Tree => DynPolicy::new(TreeSearch::new(segments)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PolicyKind::Linear => "linear",
            PolicyKind::Random => "random",
            PolicyKind::Tree => "tree",
        };
        f.write_str(name)
    }
}

/// Error parsing a [`PolicyKind`] from a string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown search policy {:?} (expected linear, random, or tree)", self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "linear" => Ok(PolicyKind::Linear),
            "random" => Ok(PolicyKind::Random),
            "tree" => Ok(PolicyKind::Tree),
            other => Err(ParsePolicyError(other.to_string())),
        }
    }
}

/// Object-safe facade over any [`SearchPolicy`].
///
/// Collapses the policy type parameter of [`Pool`](crate::Pool) so that
/// experiment harnesses can select an algorithm at runtime:
/// `Pool<LockedCounter, DynPolicy>` covers all three algorithms.
pub struct DynPolicy {
    inner: Box<dyn ErasedPolicy>,
}

impl fmt::Debug for DynPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynPolicy").field("name", &self.inner.name()).finish()
    }
}

impl DynPolicy {
    /// Wraps a concrete policy.
    pub fn new<P: SearchPolicy>(policy: P) -> Self {
        DynPolicy { inner: Box::new(policy) }
    }
}

trait ErasedPolicy: Send + Sync {
    fn name(&self) -> &'static str;
    fn init_state_erased(&self, me: SegIdx, segments: usize, seed: u64) -> Box<dyn Any + Send>;
    fn search_erased(&self, state: &mut (dyn Any + Send), env: &mut dyn SearchEnv)
        -> SearchOutcome;
}

impl<P: SearchPolicy> ErasedPolicy for P {
    fn name(&self) -> &'static str {
        SearchPolicy::name(self)
    }

    fn init_state_erased(&self, me: SegIdx, segments: usize, seed: u64) -> Box<dyn Any + Send> {
        Box::new(self.init_state(me, segments, seed))
    }

    fn search_erased(
        &self,
        state: &mut (dyn Any + Send),
        env: &mut dyn SearchEnv,
    ) -> SearchOutcome {
        let state =
            state.downcast_mut::<P::State>().expect("DynPolicy state used with a different policy");
        self.search(state, env)
    }
}

impl SearchPolicy for DynPolicy {
    type State = Box<dyn Any + Send>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init_state(&self, me: SegIdx, segments: usize, seed: u64) -> Self::State {
        self.inner.init_state_erased(me, segments, seed)
    }

    fn search(&self, state: &mut Self::State, env: &mut dyn SearchEnv) -> SearchOutcome {
        self.inner.search_erased(state.as_mut(), env)
    }
}

#[cfg(test)]
pub(crate) mod testenv {
    //! A scripted [`SearchEnv`] for unit-testing policies in isolation.

    use super::*;

    /// Environment over a vector of segment occupancy counts.
    pub struct ScriptEnv {
        pub counts: Vec<usize>,
        pub me: SegIdx,
        pub probes: Vec<usize>,
        pub node_charges: Vec<usize>,
        /// Abort after this many probes (simulates the gate firing).
        pub abort_after: Option<usize>,
    }

    impl ScriptEnv {
        pub fn new(counts: Vec<usize>, me: usize) -> Self {
            ScriptEnv {
                counts,
                me: SegIdx::new(me),
                probes: Vec::new(),
                node_charges: Vec::new(),
                abort_after: None,
            }
        }
    }

    impl SearchEnv for ScriptEnv {
        fn segments(&self) -> usize {
            self.counts.len()
        }

        fn my_segment(&self) -> SegIdx {
            self.me
        }

        fn try_steal(&mut self, victim: SegIdx) -> ProbeOutcome {
            self.probes.push(victim.index());
            let n = self.counts[victim.index()];
            let take = crate::segment::steal_count(n);
            if take == 0 {
                ProbeOutcome::Empty
            } else {
                self.counts[victim.index()] -= take;
                // One element satisfies the remove; the rest land locally.
                self.counts[self.me.index()] += take - 1;
                ProbeOutcome::Stolen { stolen: take }
            }
        }

        fn charge_tree_node(&mut self, node: usize) {
            self.node_charges.push(node);
        }

        fn should_abort(&mut self) -> bool {
            self.abort_after.is_some_and(|limit| self.probes.len() >= limit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_parse_roundtrip() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("fancy".parse::<PolicyKind>().is_err());
        assert_eq!("TREE".parse::<PolicyKind>().unwrap(), PolicyKind::Tree);
    }

    #[test]
    fn dyn_policy_reports_inner_name() {
        for kind in PolicyKind::ALL {
            let dp = kind.build(8);
            assert_eq!(SearchPolicy::name(&dp), kind.to_string());
        }
    }

    #[test]
    fn dyn_policy_searches_like_concrete() {
        use testenv::ScriptEnv;
        // Segment 3 holds elements; linear search from 0 must find it.
        let concrete = LinearSearch::new(5);
        let mut cs = concrete.init_state(SegIdx::new(0), 5, 7);
        let mut env1 = ScriptEnv::new(vec![0, 0, 0, 8, 0], 0);
        assert_eq!(concrete.search(&mut cs, &mut env1), SearchOutcome::Found);

        let erased = DynPolicy::new(LinearSearch::new(5));
        let mut es = erased.init_state(SegIdx::new(0), 5, 7);
        let mut env2 = ScriptEnv::new(vec![0, 0, 0, 8, 0], 0);
        assert_eq!(erased.search(&mut es, &mut env2), SearchOutcome::Found);

        assert_eq!(env1.probes, env2.probes, "erasure does not change behaviour");
    }

    #[test]
    #[should_panic(expected = "different policy")]
    fn dyn_policy_state_mismatch_panics() {
        use testenv::ScriptEnv;
        let a = DynPolicy::new(LinearSearch::new(4));
        let b = DynPolicy::new(RandomSearch::new(4));
        let mut state = a.init_state(SegIdx::new(0), 4, 0);
        let mut env = ScriptEnv::new(vec![0; 4], 0);
        let _ = b.search(&mut state, &mut env);
    }
}
