//! Pins the gate-level netlists the flow builds, not only what they
//! grade to. Every benchmark design under no DFT, full scan, behavioral
//! partial scan and shared BIST, at data-path widths 4 and 8, plus the
//! 3-frame time-frame expansions of figure1 and tseng, is folded into
//! one FNV-1a digest: every gate's kind and operands in id order, the
//! topological order, the primary inputs and outputs, the flops and
//! scan flops, the net names and the structural Verilog text. A change
//! to how a netlist is stored must keep every id, order and name, so
//! the digest passes unedited. Gates are read only through
//! `Netlist::gates`, and their operands only through `.len()` and
//! `.iter()`.

use hlstb::cdfg::benchmarks;
use hlstb::flow::{DftStrategy, SynthesisFlow};
use hlstb::netlist::net::{NetId, Netlist};
use hlstb::netlist::seq::unroll;
use hlstb::netlist::verilog::to_verilog;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn nets<'a>(&mut self, nets: impl ExactSizeIterator<Item = &'a NetId>) {
        self.u64(nets.len() as u64);
        for n in nets {
            self.u64(n.index() as u64);
        }
    }

    fn netlist(&mut self, nl: &Netlist) {
        self.str(nl.name());
        self.u64(nl.num_gates() as u64);
        for (id, g) in nl.gates() {
            self.u64(id.index() as u64);
            self.str(&format!("{:?}", g.kind));
            self.u64(g.inputs.len() as u64);
            for n in g.inputs.iter() {
                self.u64(n.index() as u64);
            }
        }
        self.u64(nl.topo().len() as u64);
        for g in nl.topo() {
            self.u64(g.index() as u64);
        }
        self.nets(nl.inputs().iter());
        self.u64(nl.outputs().len() as u64);
        for (name, net) in nl.outputs() {
            self.str(name);
            self.u64(net.index() as u64);
        }
        for flops in [nl.dffs().to_vec(), nl.scan_flops()] {
            self.u64(flops.len() as u64);
            for f in flops {
                self.u64(f.index() as u64);
            }
        }
        for (id, _) in nl.gates() {
            match nl.net_name(id.net()) {
                Some(name) => self.str(name),
                None => self.u64(u64::MAX),
            }
        }
        self.str(&to_verilog(nl));
    }
}

fn netlist(name: &str, strategy: DftStrategy, width: u32) -> Netlist {
    let g = benchmarks::all()
        .into_iter()
        .find(|g| g.name() == name)
        .expect("benchmark design");
    SynthesisFlow::new(g)
        .strategy(strategy)
        .width(width)
        .run()
        .unwrap()
        .expanded
        .netlist
}

#[test]
fn netlists_match_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let names: Vec<String> = benchmarks::all()
        .iter()
        .map(|g| g.name().to_owned())
        .collect();
    assert_eq!(names.len(), 9, "the digest covers the whole suite");
    let strategies = [
        DftStrategy::None,
        DftStrategy::FullScan,
        DftStrategy::BehavioralPartialScan,
        DftStrategy::BistShared,
    ];
    for name in &names {
        for strategy in strategies {
            for width in [4, 8] {
                h.netlist(&netlist(name, strategy, width));
            }
        }
    }
    // The time-frame expansion: its netlist, its per-frame net map and
    // its ATPG view.
    for name in ["figure1", "tseng"] {
        for strategy in [DftStrategy::None, DftStrategy::FullScan] {
            let u = unroll(&netlist(name, strategy, 4), 3);
            h.netlist(&u.netlist);
            for map in &u.net_map {
                h.nets(map.iter());
            }
            h.nets(u.view.assignable.iter());
            h.nets(u.view.observed.iter());
        }
    }
    assert_eq!(format!("{:016x}", h.0), "37a8142500b51a60");
}
