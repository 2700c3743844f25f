//! Single-stuck-at fault universe.
//!
//! Faults are modeled per net (gate output), the granularity every
//! experiment in the workbench uses consistently for both coverage
//! numerators and denominators. [`collapsed_faults`] removes the
//! structurally equivalent ones (through buffers and single-fanout
//! inverters) so effort metrics aren't inflated by trivial duplicates.

use crate::net::{GateKind, NetId, Netlist};

/// A single stuck-at fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_at_one: bool,
}

impl Fault {
    /// Stuck-at-0 on `net`.
    pub fn sa0(net: NetId) -> Self {
        Fault {
            net,
            stuck_at_one: false,
        }
    }

    /// Stuck-at-1 on `net`.
    pub fn sa1(net: NetId) -> Self {
        Fault {
            net,
            stuck_at_one: true,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/sa{}", self.net, u8::from(self.stuck_at_one))
    }
}

/// Every stuck-at fault on every non-constant net.
pub fn all_faults(nl: &Netlist) -> Vec<Fault> {
    let mut out = Vec::new();
    for (id, g) in nl.gates() {
        if matches!(g.kind, GateKind::Const(_)) {
            continue;
        }
        out.push(Fault::sa0(id.net()));
        out.push(Fault::sa1(id.net()));
    }
    out
}

/// Structurally collapsed fault list.
///
/// * A buffer's output faults are equivalent to its input faults when the
///   input net has no other fanout — dropped.
/// * An inverter's output sa0/sa1 are equivalent to its input sa1/sa0
///   under the same single-fanout condition — dropped.
///
/// The collapse only ever removes faults, so coverage percentages remain
/// comparable between the full and collapsed universes.
pub fn collapsed_faults(nl: &Netlist) -> Vec<Fault> {
    let mut keep = Vec::new();
    for (id, g) in nl.gates() {
        if matches!(g.kind, GateKind::Const(_)) {
            continue;
        }
        let drop = match g.kind {
            GateKind::Buf | GateKind::Not => {
                // This pin is the source's only reader (flip-flop pins
                // count too).
                let src = g.inputs[0];
                nl.readers(src).len() == 1
                    && !matches!(nl.gate(crate::net::GateId(src.0)).kind, GateKind::Const(_))
            }
            _ => false,
        };
        if !drop {
            keep.push(Fault::sa0(id.net()));
            keep.push(Fault::sa1(id.net()));
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetlistBuilder;

    #[test]
    fn all_faults_skip_constants() {
        let mut b = NetlistBuilder::new("c");
        let x = b.input("x");
        let z = b.zero();
        let g = b.and2(x, z);
        b.output("o", g);
        let nl = b.finish().unwrap();
        let faults = all_faults(&nl);
        // x and g only: 4 faults.
        assert_eq!(faults.len(), 4);
    }

    #[test]
    fn collapse_drops_single_fanout_inverter_outputs() {
        let mut b = NetlistBuilder::new("inv");
        let x = b.input("x");
        let n = b.not(x);
        b.output("o", n);
        let nl = b.finish().unwrap();
        assert_eq!(all_faults(&nl).len(), 4);
        assert_eq!(collapsed_faults(&nl).len(), 2);
    }

    #[test]
    fn collapse_keeps_inverters_on_fanout_stems() {
        let mut b = NetlistBuilder::new("stem");
        let x = b.input("x");
        let n = b.not(x);
        let a = b.and2(x, n); // x has fanout 2
        b.output("o", a);
        let nl = b.finish().unwrap();
        // Inverter output kept because x fans out elsewhere.
        assert_eq!(collapsed_faults(&nl).len(), 6);
    }

    #[test]
    fn display_format() {
        assert_eq!(Fault::sa1(NetId(3)).to_string(), "net3/sa1");
        assert_eq!(Fault::sa0(NetId(0)).to_string(), "net0/sa0");
    }
}
