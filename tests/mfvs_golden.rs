//! Pins the exact node sets the MFVS solver picks, not only their size.
//! Gate-level partial scan scans exactly `fvs.nodes`, so report bytes
//! depend on which nodes are chosen, and a solver rewrite must keep the
//! choice. Every set is folded into one FNV-1a digest. The inputs are
//! the front-end register S-graph of every benchmark under the four
//! schedulers and six register policies of the wide synthesis sweep,
//! and a seeded batch of random graphs of 2–64 nodes, each solved under
//! the default options, `exact_threshold: 0` (all greedy) and
//! `tolerate_self_loops: false`.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{RegisterPolicy, Scheduler, SynthesisFlow};
use hlstb::sgraph::mfvs::{minimum_feedback_vertex_set, MfvsOptions};
use hlstb::sgraph::SGraph;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the solver's set (its size, then its ids ascending) and
    /// its `optimal` flag.
    fn fold(&mut self, g: &SGraph, options: MfvsOptions) {
        let fvs = minimum_feedback_vertex_set(g, options);
        self.bytes(&(fvs.nodes.len() as u32).to_le_bytes());
        for n in &fvs.nodes {
            self.bytes(&n.0.to_le_bytes());
        }
        self.bytes(&[u8::from(fvs.optimal)]);
    }
}

/// splitmix64 — self-contained so the pinned digest depends on nothing
/// but this file and the solver.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A random graph of 2–64 nodes with an average out-degree of 0.5–2.0
/// and, in a third of the graphs, self-loops.
fn random_graph(rng: &mut SplitMix) -> SGraph {
    let n = 2 + rng.below(63) as u32;
    let edges = (n as u64 * (1 + rng.below(4)) / 2) as usize;
    let self_loops = rng.below(3) == 0;
    let pairs: Vec<(u32, u32)> = (0..edges)
        .map(|_| {
            let u = rng.below(u64::from(n)) as u32;
            let v = rng.below(u64::from(n)) as u32;
            if u == v && !self_loops {
                (u, (v + 1) % n)
            } else {
                (u, v)
            }
        })
        .collect();
    SGraph::from_edges(n as usize, pairs)
}

/// The digest of the solver's sets over every input above. Update it
/// only for a deliberate change of the chosen sets, which changes the
/// gate-level partial-scan reports too.
const GOLDEN: &str = "73499708716f7669";

#[test]
fn mfvs_picks_the_pinned_sets() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let schedulers = [
        Scheduler::List,
        Scheduler::IoAware,
        Scheduler::Asap,
        Scheduler::ForceDirected(1),
    ];
    let policies = [
        RegisterPolicy::LeftEdge,
        RegisterPolicy::Dsatur,
        RegisterPolicy::IoMax,
        RegisterPolicy::Boundary,
        RegisterPolicy::LoopAvoiding,
        RegisterPolicy::Avra,
    ];
    let mut front_ends = 0;
    for design in benchmarks::all() {
        for scheduler in schedulers {
            for policy in policies {
                let fe = SynthesisFlow::new(design.clone())
                    .scheduler(scheduler)
                    .register_policy(policy)
                    .front_end()
                    .unwrap();
                h.fold(&fe.datapath.register_sgraph(), MfvsOptions::default());
                front_ends += 1;
            }
        }
    }
    assert_eq!(front_ends, 9 * 4 * 6);
    let mut rng = SplitMix(0x5eed_f00d);
    let options = [
        MfvsOptions::default(),
        MfvsOptions {
            exact_threshold: 0,
            ..MfvsOptions::default()
        },
        MfvsOptions {
            tolerate_self_loops: false,
            ..MfvsOptions::default()
        },
    ];
    for _ in 0..400 {
        let g = random_graph(&mut rng);
        for o in options {
            h.fold(&g, o);
        }
    }
    assert_eq!(format!("{:016x}", h.0), GOLDEN);
}
