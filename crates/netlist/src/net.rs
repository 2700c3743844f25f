//! Netlist IR and structural building blocks.
//!
//! Every gate drives exactly one net, so [`NetId`] and [`GateId`] share
//! indices; primary inputs and constants are source gates. D flip-flops
//! carry a `scan` flag — scan-chain stitching is abstracted: full-scan
//! analyses treat a scannable flop's output as a pseudo primary input
//! and its data input as a pseudo primary output, which is the standard
//! model for coverage studies.
//!
//! A [`Netlist`] stores each gate once, in flat arrays: one [`GateKind`]
//! and three operand slots per gate. [`NetlistBuilder`] appends to those
//! arrays, and [`NetlistBuilder::finish`] derives, once, the tables every
//! analysis reads: the topological order, the gate levels and level
//! order the grading engine walks, and the reader table PODEM, the
//! flip-flop S-graph and fault collapsing walk.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a net — equal to the id of the gate driving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// Identifier of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl NetId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The net this gate drives.
    #[inline]
    pub fn net(self) -> NetId {
        NetId(self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Gate kinds. `Mux` has operands `[sel, a, b]` and computes
/// `sel ? a : b`; `Dff` has operand `[d]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no operands).
    Input,
    /// Constant driver (no operands).
    Const(bool),
    /// Buffer.
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer, operands `[sel, a, b]`.
    Mux,
    /// D flip-flop, operand `[d]`; `scan` marks it scannable.
    Dff {
        /// Whether the flop is on a scan chain.
        scan: bool,
    },
}

impl GateKind {
    /// Number of operand nets.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Buf | GateKind::Not | GateKind::Dff { .. } => 1,
            GateKind::Mux => 3,
            _ => 2,
        }
    }

    /// Whether the gate is sequential.
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff { .. })
    }

    /// Whether the gate starts a combinational path: an input, a
    /// constant or a flip-flop. These are the sources of the
    /// levelization.
    pub(crate) fn is_source(self) -> bool {
        matches!(
            self,
            GateKind::Input | GateKind::Const(_) | GateKind::Dff { .. }
        )
    }

    /// Rough area in gate equivalents (NAND2 = 1), used for the overhead
    /// accounting in the DFT experiments.
    pub fn gate_equivalents(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0.0,
            GateKind::Buf | GateKind::Not => 0.5,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => 1.0,
            GateKind::Xor | GateKind::Xnor => 2.0,
            GateKind::Mux => 2.5,
            GateKind::Dff { scan: false } => 6.0,
            GateKind::Dff { scan: true } => 8.0, // mux-D scan flop
        }
    }
}

/// A gate: its kind and its operand nets, borrowed from the netlist's
/// flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate<'a> {
    /// The kind.
    pub kind: GateKind,
    /// Operand nets; length is `kind.arity()`.
    pub inputs: &'a [NetId],
}

/// Errors from netlist construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A combinational cycle exists (not broken by a flip-flop).
    CombinationalCycle {
        /// A gate on the cycle.
        gate: GateId,
    },
    /// A referenced net does not exist.
    DanglingNet {
        /// The missing net.
        net: NetId,
    },
    /// Two outputs share a name.
    DuplicateOutput {
        /// The clashing name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through {gate}")
            }
            NetlistError::DanglingNet { net } => write!(f, "dangling reference to {net}"),
            NetlistError::DuplicateOutput { name } => write!(f, "duplicate output `{name}`"),
        }
    }
}

impl Error for NetlistError {}

/// A validated gate-level netlist, stored once as flat per-gate arrays
/// plus the tables [`NetlistBuilder::finish`] derives from them.
///
/// Each gate is one [`GateKind`] and three operand slots; unused slots
/// hold the gate's own id, so every slot is a valid net index. The
/// derived tables are the Kahn topological order, each gate's level
/// (sources at 0, a combinational gate one past its deepest operand),
/// the combinational gates in level-major then id order, and a CSR
/// (compressed sparse row) reader table. [`Netlist::gate`] and
/// [`Netlist::gates`] return borrowed [`Gate`] views of the arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    kinds: Vec<GateKind>,
    ops: Vec<[NetId; 3]>,
    net_names: Vec<Option<String>>,
    outputs: Vec<(String, NetId)>,
    inputs: Vec<NetId>,
    dffs: Vec<GateId>,
    /// Combinational gates in topological order (sources excluded).
    topo: Vec<GateId>,
    level_of: Vec<u32>,
    /// Combinational gates, level-major then id order.
    level_order: Vec<u32>,
    /// Net `i` is read by `readers[reader_starts[i]..reader_starts[i + 1]]`.
    reader_starts: Vec<u32>,
    readers: Vec<GateId>,
}

impl Netlist {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including inputs, constants and flops).
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nets.
    ///
    /// Every gate drives exactly one net and every net is driven by
    /// exactly one gate, so [`NetId`] and [`GateId`] share the same
    /// index space and `num_nets() == num_gates()` by construction.
    /// Value buffers in [`crate::sim`] and [`crate::soa`] are sized by
    /// this and indexed by `NetId`.
    pub fn num_nets(&self) -> usize {
        self.kinds.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        let kind = self.kinds[id.index()];
        Gate {
            kind,
            inputs: &self.ops[id.index()][..kind.arity()],
        }
    }

    /// Iterates all gates in id order.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> {
        self.kinds
            .iter()
            .zip(&self.ops)
            .enumerate()
            .map(|(i, (&kind, ops))| {
                let inputs = &ops[..kind.arity()];
                (GateId(i as u32), Gate { kind, inputs })
            })
    }

    /// Every gate reading `net`, flip-flops included, in gate-id order
    /// and once per operand slot.
    pub(crate) fn readers(&self, net: NetId) -> &[GateId] {
        let lo = self.reader_starts[net.index()] as usize;
        let hi = self.reader_starts[net.index() + 1] as usize;
        &self.readers[lo..hi]
    }

    /// The kind of gate `g`.
    #[inline]
    pub(crate) fn kind_of(&self, g: u32) -> GateKind {
        self.kinds[g as usize]
    }

    /// The three operand slots of gate `g`; unused slots hold `g`
    /// itself, so every slot indexes a valid net.
    #[inline]
    pub(crate) fn operands(&self, g: u32) -> [u32; 3] {
        self.ops[g as usize].map(|n| n.0)
    }

    /// The level of gate `g`: 0 for sources, `1 + max(operand levels)`
    /// for combinational gates.
    #[inline]
    pub(crate) fn level_of(&self, g: u32) -> u32 {
        self.level_of[g as usize]
    }

    /// Number of levels (0 for a source-only netlist). Level 0 holds
    /// only sources, which are never scheduled.
    pub(crate) fn level_count(&self) -> usize {
        // The level order ends at the deepest level.
        self.level_order
            .last()
            .map_or(0, |&g| self.level_of(g) as usize + 1)
    }

    /// Every combinational gate, level-major then id order: a valid
    /// topological order whose levels are contiguous runs.
    #[inline]
    pub(crate) fn level_order(&self) -> &[u32] {
        &self.level_order
    }

    /// Primary input nets in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Flip-flop gates in declaration order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Combinational gates in topological (evaluable) order.
    pub fn topo(&self) -> &[GateId] {
        &self.topo
    }

    /// Optional debug name of a net.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.net_names[net.index()].as_deref()
    }

    /// Total area in gate equivalents.
    pub fn area(&self) -> f64 {
        self.kinds.iter().map(|k| k.gate_equivalents()).sum()
    }

    /// Marks every flip-flop scannable (full scan).
    pub fn with_full_scan(mut self) -> Netlist {
        for kind in &mut self.kinds {
            if let GateKind::Dff { scan } = kind {
                *scan = true;
            }
        }
        self
    }

    /// The scannable flip-flops.
    pub fn scan_flops(&self) -> Vec<GateId> {
        self.dffs
            .iter()
            .copied()
            .filter(|&f| matches!(self.kinds[f.index()], GateKind::Dff { scan: true }))
            .collect()
    }
}

/// Incremental netlist construction with structural arithmetic blocks.
/// Gates append to the same flat kind and operand arrays a [`Netlist`]
/// keeps, so adding one allocates nothing of its own.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    kinds: Vec<GateKind>,
    ops: Vec<[NetId; 3]>,
    net_names: Vec<Option<String>>,
    outputs: Vec<(String, NetId)>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            kinds: Vec::new(),
            ops: Vec::new(),
            net_names: Vec::new(),
            outputs: Vec::new(),
            const0: None,
            const1: None,
        }
    }

    fn push(&mut self, kind: GateKind, inputs: &[NetId], name: Option<String>) -> NetId {
        debug_assert_eq!(inputs.len(), kind.arity());
        let id = NetId(self.kinds.len() as u32);
        let mut slots = [id; 3];
        slots[..inputs.len()].copy_from_slice(inputs);
        self.kinds.push(kind);
        self.ops.push(slots);
        self.net_names.push(name);
        id
    }

    /// Adds a named primary input bit.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.push(GateKind::Input, &[], Some(name.into()))
    }

    /// Adds a `width`-bit primary input bus named `name[0..width)`,
    /// least significant bit first.
    pub fn inputs(&mut self, name: &str, width: u32) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// The constant-0 net (shared).
    pub fn zero(&mut self) -> NetId {
        if let Some(z) = self.const0 {
            return z;
        }
        let z = self.push(GateKind::Const(false), &[], Some("const0".into()));
        self.const0 = Some(z);
        z
    }

    /// The constant-1 net (shared).
    pub fn one(&mut self) -> NetId {
        if let Some(o) = self.const1 {
            return o;
        }
        let o = self.push(GateKind::Const(true), &[], Some("const1".into()));
        self.const1 = Some(o);
        o
    }

    /// A `width`-bit constant bus, LSB first.
    pub fn constant(&mut self, value: u64, width: u32) -> Vec<NetId> {
        (0..width)
            .map(|i| {
                if value >> i & 1 == 1 {
                    self.one()
                } else {
                    self.zero()
                }
            })
            .collect()
    }

    /// Adds an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the kind's arity.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind:?} arity mismatch");
        self.push(kind, inputs, None)
    }

    /// Replays a gate verbatim, preserving indices — no constant
    /// deduplication, optional net name. This is the low-level API used
    /// by netlist-rewriting passes (e.g. test-point insertion) that
    /// reconstruct a netlist gate-for-gate before editing it.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the kind's arity.
    pub fn push_gate(&mut self, kind: GateKind, inputs: &[NetId], name: Option<String>) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind:?} arity mismatch");
        self.push(kind, inputs, name)
    }

    /// NOT gate.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.push(GateKind::Not, &[a], None)
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::And, &[a, b], None)
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Or, &[a, b], None)
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Xor, &[a, b], None)
    }

    /// 2:1 mux: `sel ? a : b`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        self.push(GateKind::Mux, &[sel, a, b], None)
    }

    /// Word-wide 2:1 mux.
    ///
    /// # Panics
    ///
    /// Panics if the buses have different widths.
    pub fn mux_bus(&mut self, sel: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "mux operand width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux2(sel, x, y))
            .collect()
    }

    /// N-way word mux with binary select `sel_bits` (LSB first):
    /// `options[sel]`. Missing options beyond the provided ones read as
    /// the last option.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or widths differ.
    pub fn mux_n(&mut self, sel_bits: &[NetId], options: &[Vec<NetId>]) -> Vec<NetId> {
        assert!(!options.is_empty());
        let width = options[0].len();
        assert!(options.iter().all(|o| o.len() == width));
        let mut layer: Vec<Vec<NetId>> = options.to_vec();
        for &sel in sel_bits {
            if layer.len() == 1 {
                break;
            }
            let mut next = Vec::new();
            let mut i = 0;
            while i < layer.len() {
                if i + 1 < layer.len() {
                    let hi = layer[i + 1].clone();
                    let lo = layer[i].clone();
                    next.push(self.mux_bus(sel, &hi, &lo));
                } else {
                    next.push(layer[i].clone());
                }
                i += 2;
            }
            layer = next;
        }
        layer[0].clone()
    }

    /// A bank of D flip-flops with optional load enable (`en == None`
    /// loads every cycle) and a `scan` marking.
    ///
    /// With a load enable, each flop's D input is `en ? d : q` (a
    /// recirculating register — precisely the structure that creates the
    /// self-loops the partial-scan experiments tolerate).
    pub fn register(&mut self, d: &[NetId], en: Option<NetId>, scan: bool) -> Vec<NetId> {
        let mut q = Vec::with_capacity(d.len());
        for &bit in d {
            // Reserve the flop first so the enable mux can reference Q.
            let ff = NetId(self.kinds.len() as u32);
            match en {
                None => {
                    self.push(GateKind::Dff { scan }, &[bit], None);
                    q.push(ff);
                }
                Some(e) => {
                    // flop at index ff+1; mux at ff reads (e, d, q=ff+1)
                    let mux = self.push(GateKind::Mux, &[e, bit, NetId(ff.0 + 1)], None);
                    let flop = self.push(GateKind::Dff { scan }, &[mux], None);
                    q.push(flop);
                }
            }
        }
        q
    }

    /// One full-adder stage with constant folding of a known carry-in,
    /// which keeps ripple structures free of untestable (redundant)
    /// gates.
    fn add_stage(&mut self, x: NetId, y: NetId, carry: Option<bool>) -> (NetId, NetId) {
        match carry {
            // Half adder: s = x^y, carry = x&y.
            Some(false) => {
                let s = self.xor2(x, y);
                let c = self.and2(x, y);
                (s, c)
            }
            // s = !(x^y), carry = x|y.
            Some(true) => {
                let p = self.xor2(x, y);
                let s = self.not(p);
                let c = self.or2(x, y);
                (s, c)
            }
            None => unreachable!("unknown constant carry handled by caller"),
        }
    }

    fn full_stage(&mut self, x: NetId, y: NetId, carry: NetId) -> (NetId, NetId) {
        let p = self.xor2(x, y);
        let s = self.xor2(p, carry);
        let g1 = self.and2(x, y);
        let g2 = self.and2(p, carry);
        let c = self.or2(g1, g2);
        (s, c)
    }

    /// Creates a D flip-flop whose data input is temporarily wired to its
    /// own output (a benign self-loop), to be rewired with
    /// [`set_dff_input`](Self::set_dff_input). This is how structures
    /// with register↔logic cycles (data paths) are built.
    pub fn dff_uninit(&mut self, scan: bool) -> NetId {
        let id = NetId(self.kinds.len() as u32);
        self.push(GateKind::Dff { scan }, &[id], None)
    }

    /// Rewires a flip-flop's data input.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a flip-flop.
    pub fn set_dff_input(&mut self, ff: NetId, d: NetId) {
        assert!(self.kinds[ff.index()].is_dff(), "{ff} is not a flip-flop");
        self.ops[ff.index()][0] = d;
    }

    /// Ripple-carry adder; returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ or are zero.
    pub fn ripple_add(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "adder width mismatch");
        assert!(!a.is_empty(), "zero-width adder");
        let mut sum = Vec::with_capacity(a.len());
        let (s0, mut carry) = self.add_stage(a[0], b[0], Some(false));
        sum.push(s0);
        for (&x, &y) in a.iter().zip(b).skip(1) {
            let (s, c) = self.full_stage(x, y, carry);
            carry = c;
            sum.push(s);
        }
        (sum, carry)
    }

    /// Two's-complement subtractor `a - b`; returns `(difference,
    /// carry_out)` where carry-out 1 means no borrow.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ or are zero.
    pub fn ripple_sub(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "subtractor width mismatch");
        assert!(!a.is_empty(), "zero-width subtractor");
        let mut diff = Vec::with_capacity(a.len());
        let ny0 = self.not(b[0]);
        let (d0, mut carry) = self.add_stage(a[0], ny0, Some(true));
        diff.push(d0);
        for (&x, &y) in a.iter().zip(b).skip(1) {
            let ny = self.not(y);
            let (s, c) = self.full_stage(x, ny, carry);
            carry = c;
            diff.push(s);
        }
        (diff, carry)
    }

    /// Array multiplier returning the low `a.len()` bits of `a × b`.
    ///
    /// Only live partial products are summed and no dead carry logic is
    /// generated, so the structure contains no untestable gates beyond
    /// the inherent truncation.
    pub fn array_mul(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "multiplier width mismatch");
        let w = a.len();
        // Row 0 seeds the accumulator directly — no add against zero.
        let mut acc: Vec<NetId> = a.iter().map(|&aj| self.and2(aj, b[0])).collect();
        for (i, &bi) in b.iter().enumerate().skip(1) {
            // Add the shifted row into acc[i..w), dropping the final
            // carry (truncated product).
            let mut carry: Option<NetId> = None;
            for (j, &aj) in a.iter().enumerate().take(w - i) {
                let pos = i + j;
                let r = self.and2(aj, bi);
                let last = pos == w - 1;
                match carry.take() {
                    None => {
                        if last {
                            acc[pos] = self.xor2(acc[pos], r);
                        } else {
                            let sum = self.xor2(acc[pos], r);
                            carry = Some(self.and2(acc[pos], r));
                            acc[pos] = sum;
                        }
                    }
                    Some(c) => {
                        if last {
                            let t = self.xor2(acc[pos], r);
                            acc[pos] = self.xor2(t, c);
                        } else {
                            let (sum, cout) = self.full_stage(acc[pos], r, c);
                            acc[pos] = sum;
                            carry = Some(cout);
                        }
                    }
                }
            }
        }
        acc
    }

    /// Bitwise word operation using `op` per bit pair.
    pub fn bitwise(&mut self, kind: GateKind, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len());
        assert_eq!(kind.arity(), 2);
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(kind, &[x, y]))
            .collect()
    }

    /// Equality comparator: 1 iff `a == b`.
    pub fn eq_bus(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len());
        let mut acc = self.one();
        for (&x, &y) in a.iter().zip(b) {
            let e = self.push(GateKind::Xnor, &[x, y], None);
            acc = self.and2(acc, e);
        }
        acc
    }

    /// Unsigned less-than comparator: 1 iff `a < b`.
    pub fn lt_bus(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len());
        // From LSB to MSB: lt = (~a & b) | (a XNOR b) & lt_prev
        let mut lt = self.zero();
        for (&x, &y) in a.iter().zip(b) {
            let nx = self.not(x);
            let strict = self.and2(nx, y);
            let eq = self.push(GateKind::Xnor, &[x, y], None);
            let keep = self.and2(eq, lt);
            lt = self.or2(strict, keep);
        }
        lt
    }

    /// Logical shift by a constant amount (left when `left`, else right),
    /// filling with zeros.
    pub fn shift_const(&mut self, a: &[NetId], amount: usize, left: bool) -> Vec<NetId> {
        let w = a.len();
        let zero = self.zero();
        (0..w)
            .map(|i| {
                let src = if left {
                    i.checked_sub(amount)
                } else {
                    i.checked_add(amount)
                };
                match src {
                    Some(j) if j < w => a[j],
                    _ => zero,
                }
            })
            .collect()
    }

    /// Declares a single-bit primary output.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Declares a bus primary output `name[0..width)`.
    pub fn outputs(&mut self, name: &str, bits: &[NetId]) {
        for (i, &b) in bits.iter().enumerate() {
            self.outputs.push((format!("{name}[{i}]"), b));
        }
    }

    /// Number of gates so far.
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Validates and finishes the netlist, deriving its topological
    /// order, levels and reader table.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] on dangling nets, duplicate output names,
    /// or combinational cycles.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let n = self.kinds.len();
        let mut seen = HashMap::new();
        for (name, net) in &self.outputs {
            if net.index() >= n {
                return Err(NetlistError::DanglingNet { net: *net });
            }
            if seen.insert(name.clone(), ()).is_some() {
                return Err(NetlistError::DuplicateOutput { name: name.clone() });
            }
        }
        let operands = |i: usize| &self.ops[i][..self.kinds[i].arity()];
        let mut inputs = Vec::new();
        let mut dffs = Vec::new();
        for (i, kind) in self.kinds.iter().enumerate() {
            if let Some(&net) = operands(i).iter().find(|inp| inp.index() >= n) {
                return Err(NetlistError::DanglingNet { net });
            }
            match kind {
                GateKind::Input => inputs.push(NetId(i as u32)),
                GateKind::Dff { .. } => dffs.push(GateId(i as u32)),
                _ => {}
            }
        }
        // The reader table (CSR): every reader of each net, in gate-id
        // order and once per operand slot.
        let mut reader_starts = vec![0u32; n + 1];
        for i in 0..n {
            for inp in operands(i) {
                reader_starts[inp.index() + 1] += 1;
            }
        }
        for i in 0..n {
            reader_starts[i + 1] += reader_starts[i];
        }
        let mut cursor = reader_starts.clone();
        let mut readers = vec![GateId(0); reader_starts[n] as usize];
        for i in 0..n {
            for inp in operands(i) {
                readers[cursor[inp.index()] as usize] = GateId(i as u32);
                cursor[inp.index()] += 1;
            }
        }
        // Kahn levelization over combinational gates; DFF/Input/Const are
        // sources, and source readers are skipped. The topological order
        // doubles as the FIFO queue.
        let comb = |i: usize| !self.kinds[i].is_source();
        let mut indeg = vec![0u32; n];
        for i in (0..n).filter(|&i| comb(i)) {
            indeg[i] = operands(i).iter().filter(|inp| comb(inp.index())).count() as u32;
        }
        let mut topo: Vec<GateId> = (0..n)
            .filter(|&i| indeg[i] == 0 && comb(i))
            .map(|i| GateId(i as u32))
            .collect();
        let mut head = 0;
        while head < topo.len() {
            let u = topo[head].index();
            head += 1;
            let lo = reader_starts[u] as usize;
            for &v in &readers[lo..reader_starts[u + 1] as usize] {
                if !comb(v.index()) {
                    continue;
                }
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    topo.push(v);
                }
            }
        }
        let comb_count = (0..n).filter(|&i| comb(i)).count();
        if topo.len() != comb_count {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0 && comb(i))
                .expect("some gate is on the cycle");
            return Err(NetlistError::CombinationalCycle {
                gate: GateId(stuck as u32),
            });
        }
        // Levels: sources sit at 0; a combinational gate is one past its
        // deepest operand. `topo` is topologically sorted, so operand
        // levels are final when a gate is reached.
        let mut level_of = vec![0u32; n];
        for &gid in &topo {
            let deepest = operands(gid.index())
                .iter()
                .map(|inp| level_of[inp.index()])
                .max()
                .unwrap_or(0);
            level_of[gid.index()] = 1 + deepest;
        }
        let level_count = topo
            .iter()
            .map(|g| level_of[g.index()] as usize + 1)
            .max()
            .unwrap_or(0);
        // Bucket the combinational gates by (level, id): counting sort
        // keeps the order deterministic and each level one run.
        let mut level_cursor = vec![0u32; level_count + 1];
        for &gid in &topo {
            level_cursor[level_of[gid.index()] as usize + 1] += 1;
        }
        for l in 0..level_count {
            level_cursor[l + 1] += level_cursor[l];
        }
        let mut level_order = vec![0u32; topo.len()];
        for i in (0..n).filter(|&i| comb(i)) {
            let slot = &mut level_cursor[level_of[i] as usize];
            level_order[*slot as usize] = i as u32;
            *slot += 1;
        }
        Ok(Netlist {
            name: self.name,
            kinds: self.kinds,
            ops: self.ops,
            net_names: self.net_names,
            outputs: self.outputs,
            inputs,
            dffs,
            topo,
            level_of,
            level_order,
            reader_starts,
            readers,
        })
    }
}

/// Generates a seeded random combinational netlist: `inputs` primary
/// inputs, `gates` random two-input gates over earlier nets, the last
/// few nets exported as outputs. Used by the property-based tests that
/// cross-validate ATPG against fault simulation.
pub fn random_combinational<R: rand::Rng>(
    inputs: usize,
    gates: usize,
    outputs: usize,
    rng: &mut R,
) -> Netlist {
    assert!(inputs > 0 && gates > 0 && outputs > 0);
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<NetId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    const KINDS: [GateKind; 7] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
    ];
    for _ in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let a = nets[rng.gen_range(0..nets.len())];
        let out = if kind.arity() == 1 {
            b.gate(kind, &[a])
        } else {
            let c = nets[rng.gen_range(0..nets.len())];
            b.gate(kind, &[a, c])
        };
        nets.push(out);
    }
    for (k, &net) in nets.iter().rev().take(outputs).enumerate() {
        b.output(format!("o{k}"), net);
    }
    b.finish().expect("random combinational netlists are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_structure() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let (s, co) = b.ripple_add(&a, &c);
        b.outputs("s", &s);
        b.output("co", co);
        let nl = b.finish().unwrap();
        assert_eq!(nl.inputs().len(), 8);
        assert_eq!(nl.outputs().len(), 5);
        assert!(nl.area() > 0.0);
    }

    #[test]
    fn register_with_enable_self_loops() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.inputs("d", 2);
        let en = b.input("en");
        let q = b.register(&d, Some(en), false);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.dffs().len(), 2);
        // Each flop's mux reads the flop's own output.
        for &ff in nl.dffs() {
            let mux = nl.gate(GateId(ff.0 - 1));
            assert_eq!(mux.kind, GateKind::Mux);
            assert_eq!(mux.inputs[2], ff.net());
        }
    }

    #[test]
    fn readers_list_every_reader_once_per_slot() {
        let mut b = NetlistBuilder::new("rd");
        let x = b.input("x");
        let y = b.input("y");
        let both = b.and2(x, x);
        let m = b.mux2(x, y, both);
        let q = b.register(&[m], None, false)[0];
        b.output("q", q);
        let nl = b.finish().unwrap();
        let ff = GateId(q.0);
        // Flops are readers too, and a double read is listed twice.
        assert_eq!(nl.readers(x), [GateId(both.0), GateId(both.0), GateId(m.0)]);
        assert_eq!(nl.readers(both), [GateId(m.0)]);
        assert_eq!(nl.readers(m), [ff]);
        assert!(nl.readers(q).is_empty());
        // Every operand slot of every gate is one reader entry.
        for (id, g) in nl.gates() {
            for &inp in g.inputs {
                assert!(nl.readers(inp).contains(&id));
            }
        }
        let slots: usize = nl.gates().map(|(_, g)| g.inputs.len()).sum();
        let entries: usize = (0..nl.num_nets())
            .map(|i| nl.readers(NetId(i as u32)).len())
            .sum();
        assert_eq!(entries, slots);
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = NetlistBuilder::new("cyc");
        let x = b.input("x");
        // Manually wire a gate to a not-yet-created gate to form a loop.
        let g1 = NetId(b.num_gates() as u32 + 1); // will be g2's id
        let g0 = b.gate(GateKind::And, &[x, g1]);
        let _g1_real = b.gate(GateKind::Not, &[g0]);
        b.output("o", g0);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut b = NetlistBuilder::new("cnt1");
        // 1-bit toggler: q -> not -> dff -> q
        let ff = NetId(b.num_gates() as u32 + 1);
        let n = b.gate(GateKind::Not, &[ff]);
        let ff_real = b.gate(GateKind::Dff { scan: false }, &[n]);
        assert_eq!(ff, ff_real);
        b.output("q", ff_real);
        let nl = b.finish().unwrap();
        assert_eq!(nl.dffs().len(), 1);
    }

    #[test]
    fn duplicate_outputs_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let x = b.input("x");
        b.output("o", x);
        b.output("o", x);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DuplicateOutput { .. })
        ));
    }

    #[test]
    fn full_scan_marks_all_flops() {
        let mut b = NetlistBuilder::new("fs");
        let d = b.inputs("d", 3);
        let q = b.register(&d, None, false);
        b.outputs("q", &q);
        let nl = b.finish().unwrap().with_full_scan();
        assert_eq!(nl.scan_flops().len(), 3);
    }

    #[test]
    fn constants_are_shared() {
        let mut b = NetlistBuilder::new("c");
        let z1 = b.zero();
        let z2 = b.zero();
        let o1 = b.one();
        let o2 = b.one();
        assert_eq!(z1, z2);
        assert_eq!(o1, o2);
    }
}
