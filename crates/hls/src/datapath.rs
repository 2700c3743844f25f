//! The RTL data path: registers, functional units, multiplexers, and the
//! per-step control table.
//!
//! This is the structure every testability argument in the survey is
//! about. In particular [`Datapath::register_sgraph`] derives the
//! register adjacency — including the *assignment loops* of §3.3.2 that
//! hardware sharing introduces even into loop-free behaviors (Figure 1).

use std::error::Error;
use std::fmt;

use hlstb_cdfg::{Cdfg, LifetimeMap, OpId, OpKind, Schedule, VarId, VarKind};
use hlstb_sgraph::{NodeId, SGraph};

use crate::bind::Binding;
use crate::fu::FuKind;

/// A data-path register and the variables it hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterInfo {
    /// Display name (`R0`, `R1`, …).
    pub name: String,
    /// The variables sharing this register.
    pub vars: Vec<VarId>,
    /// Whether the register is a scan register.
    pub scan: bool,
}

/// A functional-unit instance in the data path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuInfo {
    /// Unit class.
    pub kind: FuKind,
    /// Operations executed on the unit.
    pub ops: Vec<OpId>,
    /// Number of input ports (max arity over its operations).
    pub arity: usize,
}

/// What can drive a functional-unit input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortSource {
    /// A register's output.
    Register(usize),
    /// A hardwired constant.
    Constant(u64),
}

/// What can drive a register's data input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegSource {
    /// A functional unit's result.
    Fu(usize),
    /// An external (primary-input) load port with the given name.
    External(String),
    /// A direct copy from another register (delay-line shift).
    Register(usize),
}

/// Control values for one control step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepControl {
    /// Load enable per register.
    pub reg_enable: Vec<bool>,
    /// Selected source index per register (meaningful when enabled).
    pub reg_select: Vec<usize>,
    /// Selected source index per functional-unit port.
    pub port_select: Vec<Vec<usize>>,
    /// The operation kind each unit performs this step, if any.
    pub fu_op: Vec<Option<OpKind>>,
}

/// Errors from data-path construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatapathError {
    /// Two writes hit one register at the same clock edge.
    WriteCollision {
        /// The register index.
        register: usize,
        /// The step whose ending edge collides.
        step: u32,
    },
    /// A variable was not assigned a register.
    Unassigned {
        /// The variable.
        var: VarId,
    },
}

impl fmt::Display for DatapathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatapathError::WriteCollision { register, step } => {
                write!(
                    f,
                    "register R{register} written twice at the edge ending step {step}"
                )
            }
            DatapathError::Unassigned { var } => write!(f, "{var} has no register"),
        }
    }
}

impl Error for DatapathError {}

/// A structural RTL data path with its control table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datapath {
    name: String,
    period: u32,
    registers: Vec<RegisterInfo>,
    fus: Vec<FuInfo>,
    /// `port_sources[f][p]` — ordered distinct sources of port `p`.
    port_sources: Vec<Vec<Vec<PortSource>>>,
    /// `reg_sources[r]` — ordered distinct sources of register `r`.
    reg_sources: Vec<Vec<RegSource>>,
    control: Vec<StepControl>,
    /// Primary outputs: `(name, register)`.
    po_regs: Vec<(String, usize)>,
    /// Primary inputs: `(name, register)`.
    pi_regs: Vec<(String, usize)>,
    /// Op-precise register adjacency: `(from, to, op)`.
    op_edges: Vec<(usize, usize, OpId)>,
    /// Register-to-register delay-shift adjacency.
    copy_edges: Vec<(usize, usize)>,
    /// Absolute step at which each primary output becomes register-valid
    /// (parallel to `po_regs`).
    po_ready: Vec<u32>,
}

impl Datapath {
    /// Builds the data path implied by a schedule and binding.
    ///
    /// # Errors
    ///
    /// [`DatapathError::WriteCollision`] if two values must be latched
    /// into one register at the same clock edge (cannot happen for a
    /// validated binding unless a variable with an empty lifetime shares
    /// a register whose other occupant is written at the same edge);
    /// [`DatapathError::Unassigned`] if a register-resident variable has
    /// no register.
    pub fn build(
        cdfg: &Cdfg,
        schedule: &Schedule,
        binding: &Binding,
    ) -> Result<Datapath, DatapathError> {
        let _span = hlstb_trace::span("datapath");
        let period = schedule.num_steps();
        let lookup = binding.regs.lookup(cdfg);
        let reg_of = |v: VarId| -> Result<usize, DatapathError> {
            lookup[v.index()].ok_or(DatapathError::Unassigned { var: v })
        };
        let mut registers: Vec<RegisterInfo> = binding
            .regs
            .registers
            .iter()
            .enumerate()
            .map(|(i, vars)| RegisterInfo {
                name: format!("R{i}"),
                vars: vars.clone(),
                scan: false,
            })
            .collect();
        let fus: Vec<FuInfo> = binding
            .fus
            .iter()
            .map(|f| FuInfo {
                kind: f.kind,
                ops: f.ops.clone(),
                arity: f
                    .ops
                    .iter()
                    .map(|&o| cdfg.op(o).kind.arity())
                    .max()
                    .unwrap_or(2),
            })
            .collect();

        // Delay lines. A value produced at absolute step `birth_abs`
        // (1..=period; 0 for primary inputs) lives in its main register
        // for exactly one period before the next iteration's value
        // overwrites it. A read at step `t`, distance `d`, therefore
        // needs shift stage `k = (d*period + t - birth_abs) div period`
        // (k = 0 is the main register, which is how the classic
        // loop-carried registers of the surveyed data paths work). The
        // port mux re-selects per step, so a multi-cycle read window may
        // cross the rewrite edge and still see a stable value.
        let birth_abs = |v: &hlstb_cdfg::Variable| -> u32 {
            match v.def {
                Some(op) => schedule.ready_step(op),
                None => 0,
            }
        };
        let stage_of = |b_abs: u32, d: u32, t: u32| -> u32 { (d * period + t - b_abs) / period };
        struct Delay {
            birth_abs: u32,
            stages: Vec<usize>, // register indices of D1..Dmax
        }
        // Ordered by variable, so the delay lines (and `copy_edges`) come
        // out in one order on every build.
        let mut delays: std::collections::BTreeMap<VarId, Delay> =
            std::collections::BTreeMap::new();
        for v in cdfg.vars() {
            if matches!(v.kind, VarKind::Constant(_)) {
                continue;
            }
            let b_abs = birth_abs(v);
            let mut maxk = 0u32;
            for &(user, port) in &v.uses {
                let d = cdfg.op(user).inputs[port].distance;
                let t = schedule.start(user);
                let l = schedule.latency(user);
                for tk in t..t + l {
                    maxk = maxk.max(stage_of(b_abs, d, tk));
                }
            }
            if maxk >= 1 {
                let main = reg_of(v.id)?;
                let stages: Vec<usize> = (1..=maxk)
                    .map(|k| {
                        registers.push(RegisterInfo {
                            name: format!("R{main}_z{k}"),
                            vars: vec![v.id],
                            scan: false,
                        });
                        registers.len() - 1
                    })
                    .collect();
                delays.insert(
                    v.id,
                    Delay {
                        birth_abs: b_abs,
                        stages,
                    },
                );
            }
        }
        // Resolves the register read for an operand at one execution step.
        let resolve_step = |var: VarId, dist: u32, tk: u32| -> Result<usize, DatapathError> {
            let main = reg_of(var)?;
            match delays.get(&var) {
                None => Ok(main),
                Some(delay) => {
                    let k = stage_of(delay.birth_abs, dist, tk);
                    if k == 0 {
                        Ok(main)
                    } else {
                        Ok(delay.stages[(k - 1) as usize])
                    }
                }
            }
        };

        let mut port_sources: Vec<Vec<Vec<PortSource>>> =
            fus.iter().map(|f| vec![Vec::new(); f.arity]).collect();
        let mut reg_sources: Vec<Vec<RegSource>> = vec![Vec::new(); registers.len()];
        let mut control: Vec<StepControl> = (0..period)
            .map(|_| StepControl {
                reg_enable: vec![false; registers.len()],
                reg_select: vec![0; registers.len()],
                port_select: fus.iter().map(|f| vec![0; f.arity]).collect(),
                fu_op: vec![None; fus.len()],
            })
            .collect();
        let mut write_edge: Vec<Vec<bool>> = vec![vec![false; registers.len()]; period as usize];

        let intern_port = |sources: &mut Vec<PortSource>, s: PortSource| -> usize {
            match sources.iter().position(|x| *x == s) {
                Some(i) => i,
                None => {
                    sources.push(s);
                    sources.len() - 1
                }
            }
        };
        let intern_reg = |sources: &mut Vec<RegSource>, s: RegSource| -> usize {
            match sources.iter().position(|x| *x == s) {
                Some(i) => i,
                None => {
                    sources.push(s);
                    sources.len() - 1
                }
            }
        };

        let mut op_edges = Vec::new();
        for op in cdfg.ops() {
            let f = binding.fu_of[op.id.index()];
            let s = schedule.start(op.id);
            let l = schedule.latency(op.id);
            let rd = reg_of(op.output)?;
            // Input ports, re-resolved per execution step so reads that
            // cross a rewrite edge switch to the matching delay stage.
            for (p, operand) in op.inputs.iter().enumerate() {
                match cdfg.var(operand.var).kind {
                    VarKind::Constant(c) => {
                        let idx = intern_port(&mut port_sources[f][p], PortSource::Constant(c));
                        for t in s..s + l {
                            control[t as usize].port_select[f][p] = idx;
                        }
                    }
                    _ => {
                        for t in s..s + l {
                            let r = resolve_step(operand.var, operand.distance, t)?;
                            let idx = intern_port(&mut port_sources[f][p], PortSource::Register(r));
                            control[t as usize].port_select[f][p] = idx;
                            op_edges.push((r, rd, op.id));
                        }
                    }
                }
            }
            for t in s..s + l {
                control[t as usize].fu_op[f] = Some(op.kind);
            }
            // Output register write at the edge ending step s + l - 1.
            let idx = intern_reg(&mut reg_sources[rd], RegSource::Fu(f));
            let t = s + l - 1;
            if write_edge[t as usize][rd] {
                return Err(DatapathError::WriteCollision {
                    register: rd,
                    step: t,
                });
            }
            write_edge[t as usize][rd] = true;
            control[t as usize].reg_enable[rd] = true;
            control[t as usize].reg_select[rd] = idx;
        }

        // Primary inputs load externally at the edge ending the last step.
        let mut pi_regs = Vec::new();
        for v in cdfg.vars() {
            if v.kind != VarKind::Input {
                continue;
            }
            let r = reg_of(v.id)?;
            let idx = intern_reg(&mut reg_sources[r], RegSource::External(v.name.clone()));
            let t = period - 1;
            if write_edge[t as usize][r] {
                return Err(DatapathError::WriteCollision {
                    register: r,
                    step: t,
                });
            }
            write_edge[t as usize][r] = true;
            control[t as usize].reg_enable[r] = true;
            control[t as usize].reg_select[r] = idx;
            pi_regs.push((v.name.clone(), r));
        }

        // Delay-line shifts: every stage loads at the edge at which the
        // main register is rewritten, sampling the previous stage's (or
        // the main register's) old value.
        for (&var, delay) in &delays {
            let main = reg_of(var)?;
            let t = (delay.birth_abs + period - 1) % period;
            let mut prev = main;
            for &stage in &delay.stages {
                let idx = intern_reg(&mut reg_sources[stage], RegSource::Register(prev));
                if write_edge[t as usize][stage] {
                    return Err(DatapathError::WriteCollision {
                        register: stage,
                        step: t,
                    });
                }
                write_edge[t as usize][stage] = true;
                control[t as usize].reg_enable[stage] = true;
                control[t as usize].reg_select[stage] = idx;
                prev = stage;
            }
        }
        // Register-to-register copy adjacency (delay shifts).
        let mut copy_edges = Vec::new();
        for (&var, delay) in &delays {
            let mut prev = reg_of(var)?;
            for &stage in &delay.stages {
                copy_edges.push((prev, stage));
                prev = stage;
            }
        }

        op_edges.sort_unstable();
        op_edges.dedup();

        let mut po_regs = Vec::new();
        let mut po_ready = Vec::new();
        for v in cdfg.vars() {
            if v.kind == VarKind::Output {
                po_regs.push((v.name.clone(), reg_of(v.id)?));
                let def = v.def.expect("outputs are defined");
                po_ready.push(schedule.ready_step(def));
            }
        }

        Ok(Datapath {
            name: cdfg.name().to_string(),
            period,
            registers,
            fus,
            port_sources,
            reg_sources,
            control,
            po_regs,
            pi_regs,
            op_edges,
            copy_edges,
            po_ready,
        })
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Control steps per iteration.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// The registers.
    pub fn registers(&self) -> &[RegisterInfo] {
        &self.registers
    }

    /// The functional units.
    pub fn fus(&self) -> &[FuInfo] {
        &self.fus
    }

    /// Sources of each functional-unit port.
    pub fn port_sources(&self) -> &[Vec<Vec<PortSource>>] {
        &self.port_sources
    }

    /// Sources of each register.
    pub fn reg_sources(&self) -> &[Vec<RegSource>] {
        &self.reg_sources
    }

    /// The control table, one entry per step.
    pub fn control(&self) -> &[StepControl] {
        &self.control
    }

    /// Appends extra control steps — the extra test vectors of the
    /// controller-based DFT technique (survey §3.5). The period grows
    /// accordingly; the added states are reached in test mode.
    ///
    /// # Panics
    ///
    /// Panics if a step's vectors are sized for a different data path.
    pub fn append_test_steps(&mut self, steps: Vec<StepControl>) {
        for st in &steps {
            assert_eq!(st.reg_enable.len(), self.registers.len());
            assert_eq!(st.fu_op.len(), self.fus.len());
        }
        self.period += steps.len() as u32;
        self.control.extend(steps);
    }

    /// Primary outputs as `(name, register)`.
    pub fn po_regs(&self) -> &[(String, usize)] {
        &self.po_regs
    }

    /// Primary inputs as `(name, register)`.
    pub fn pi_regs(&self) -> &[(String, usize)] {
        &self.pi_regs
    }

    /// Absolute ready step of each primary output (parallel to
    /// [`po_regs`](Self::po_regs)); may equal the period when the value
    /// is latched at the iteration's final edge.
    pub fn po_ready(&self) -> &[u32] {
        &self.po_ready
    }

    /// Registers hosting primary inputs (I/O registers of §3.2).
    pub fn input_registers(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.pi_regs.iter().map(|(_, r)| *r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Registers hosting primary outputs.
    pub fn output_registers(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.po_regs.iter().map(|(_, r)| *r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Marks registers as scan registers.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn mark_scan(&mut self, regs: &[usize]) {
        for &r in regs {
            self.registers[r].scan = true;
        }
    }

    /// Registers currently marked as scan registers.
    pub fn scan_registers(&self) -> Vec<usize> {
        (0..self.registers.len())
            .filter(|&r| self.registers[r].scan)
            .collect()
    }

    /// The register S-graph: edge `Ru → Rv` iff some operation reads an
    /// operand from `Ru` and writes its result to `Rv` (a combinational
    /// register-to-register path through a functional unit).
    ///
    /// Scan registers are *not* removed here; compose with
    /// [`SGraph::without_nodes`](hlstb_sgraph::SGraph::without_nodes)
    /// to model scanning.
    pub fn register_sgraph(&self) -> SGraph {
        self.register_sgraph_for(|_| true)
    }

    /// Register S-graph restricted to operations accepted by `keep_op`
    /// (used by transparent-register analyses).
    pub fn register_sgraph_for(&self, keep_op: impl Fn(OpId) -> bool) -> SGraph {
        let mut g = SGraph::new(self.registers.len());
        for (i, r) in self.registers.iter().enumerate() {
            g.set_label(NodeId(i as u32), r.name.clone());
        }
        for &(ru, rv, op) in &self.op_edges {
            if keep_op(op) {
                g.add_edge(NodeId(ru as u32), NodeId(rv as u32));
            }
        }
        for &(ru, rv) in &self.copy_edges {
            g.add_edge(NodeId(ru as u32), NodeId(rv as u32));
        }
        g
    }

    /// Register-to-register delay-shift edges.
    pub fn copy_edges(&self) -> &[(usize, usize)] {
        &self.copy_edges
    }

    /// Op-precise register adjacency: `(from_reg, to_reg, op)` triples.
    pub fn op_edges(&self) -> &[(usize, usize, OpId)] {
        &self.op_edges
    }

    /// Multiplexer statistics: `(port_mux_inputs, reg_mux_inputs)` —
    /// total fan-in of multi-source port and register muxes.
    pub fn mux_stats(&self) -> (usize, usize) {
        let pm = self
            .port_sources
            .iter()
            .flatten()
            .filter(|s| s.len() > 1)
            .map(|s| s.len())
            .sum();
        let rm = self
            .reg_sources
            .iter()
            .filter(|s| s.len() > 1)
            .map(|s| s.len())
            .sum();
        (pm, rm)
    }

    /// Checks that register contents follow variable lifetimes — an
    /// internal consistency probe used by tests.
    pub fn consistent_with(&self, cdfg: &Cdfg, schedule: &Schedule) -> bool {
        let lt = LifetimeMap::compute(cdfg, schedule);
        self.registers.iter().all(|r| lt.compatible(&r.vars))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{self, Binding, FuInstance, RegisterAssignment};
    use crate::sched;
    use hlstb_cdfg::benchmarks;
    use hlstb_sgraph::mfvs::{minimum_feedback_vertex_set, MfvsOptions};

    /// The two schedule/assignment variants of the paper's Figure 1.
    /// Returns (datapath_b, datapath_c): (b) creates the assignment loop
    /// RA1→RA2→RA1; (c) leaves only self-loops.
    fn figure1_variants() -> (Datapath, Datapath) {
        let g = benchmarks::figure1();
        let ids = |name: &str| g.var_by_name(name).unwrap().id;
        let (a, b, d, f, p, q, s) = (
            ids("a"),
            ids("b"),
            ids("d"),
            ids("f"),
            ids("p"),
            ids("q"),
            ids("s"),
        );
        let (c, e, r, t, gg) = (ids("c"), ids("e"), ids("r"), ids("t"), ids("g"));
        let inputs_each_own = vec![
            vec![a],
            vec![b],
            vec![d],
            vec![f],
            vec![p],
            vec![q],
            vec![s],
        ];

        // Variant (b): {+1:(1,A1), +2:(2,A2), +3:(2,A1), +4:(3,A2), +5:(3,A1)}
        let sched_b = hlstb_cdfg::Schedule::new(&g, vec![0, 1, 1, 2, 2]).unwrap();
        let fus_b = vec![
            FuInstance {
                kind: crate::fu::FuKind::Adder,
                ops: vec![OpId(0), OpId(2), OpId(4)],
            },
            FuInstance {
                kind: crate::fu::FuKind::Adder,
                ops: vec![OpId(1), OpId(3)],
            },
        ];
        let fu_of_b = vec![0, 1, 0, 1, 0];
        let mut regs_b = inputs_each_own.clone();
        regs_b.push(vec![c, gg, r]); // shared: the loop register
        regs_b.push(vec![e]);
        regs_b.push(vec![t]);
        let binding_b = Binding::from_parts(
            &g,
            &sched_b,
            fu_of_b,
            fus_b,
            RegisterAssignment { registers: regs_b },
        )
        .expect("variant (b) binding is valid");
        let dp_b = Datapath::build(&g, &sched_b, &binding_b).unwrap();

        // Variant (c): {+1:(1,A1), +2:(2,A1), +3:(1,A2), +4:(2,A2), +5:(3,A1)}
        let sched_c = hlstb_cdfg::Schedule::new(&g, vec![0, 1, 0, 1, 2]).unwrap();
        let fus_c = vec![
            FuInstance {
                kind: crate::fu::FuKind::Adder,
                ops: vec![OpId(0), OpId(1), OpId(4)],
            },
            FuInstance {
                kind: crate::fu::FuKind::Adder,
                ops: vec![OpId(2), OpId(3)],
            },
        ];
        let fu_of_c = vec![0, 0, 1, 1, 0];
        let mut regs_c = inputs_each_own;
        regs_c.push(vec![c, e, gg]); // A1's result register: self-loops only
        regs_c.push(vec![r, t]); // A2's result register: self-loop only
        let binding_c = Binding::from_parts(
            &g,
            &sched_c,
            fu_of_c,
            fus_c,
            RegisterAssignment { registers: regs_c },
        )
        .expect("variant (c) binding is valid");
        let dp_c = Datapath::build(&g, &sched_c, &binding_c).unwrap();
        (dp_b, dp_c)
    }

    #[test]
    fn figure1_variant_b_has_assignment_loop() {
        let (dp_b, _) = figure1_variants();
        let sg = dp_b.register_sgraph();
        // The shared register and A2's result register form a 2-cycle.
        assert!(
            !sg.is_acyclic(true),
            "variant (b) must contain a non-self loop"
        );
        let fvs = minimum_feedback_vertex_set(&sg, MfvsOptions::default());
        assert_eq!(fvs.nodes.len(), 1, "one scan register breaks Figure 1(b)");
    }

    #[test]
    fn figure1_variant_c_has_only_self_loops() {
        let (_, dp_c) = figure1_variants();
        let sg = dp_c.register_sgraph();
        assert!(
            sg.is_acyclic(true),
            "variant (c) is loop-free modulo self-loops"
        );
        assert!(!sg.is_acyclic(false), "variant (c) does keep self-loops");
        let fvs = minimum_feedback_vertex_set(&sg, MfvsOptions::default());
        assert!(
            fvs.nodes.is_empty(),
            "no scan register needed for Figure 1(c)"
        );
    }

    #[test]
    fn benchmarks_build_consistent_datapaths() {
        for g in benchmarks::all() {
            let lim = crate::fu::ResourceLimits::minimal_for(&g);
            let s = sched::list_schedule(&g, &lim, sched::ListPriority::Slack).unwrap();
            let b = bind::bind(&g, &s, &bind::BindOptions::default()).unwrap();
            let dp = Datapath::build(&g, &s, &b).unwrap();
            assert!(dp.consistent_with(&g, &s), "{}", g.name());
            assert_eq!(dp.period(), s.num_steps());
            // Every op contributes at least one adjacency edge unless all
            // its operands are constants.
            assert!(dp.op_edges().len() >= g.num_ops() / 2, "{}", g.name());
        }
    }

    #[test]
    fn control_table_covers_every_write() {
        let g = benchmarks::diffeq();
        let s = sched::asap(&g).unwrap();
        let b = bind::bind(&g, &s, &bind::BindOptions::default()).unwrap();
        let dp = Datapath::build(&g, &s, &b).unwrap();
        let enables: usize = dp
            .control()
            .iter()
            .map(|st| st.reg_enable.iter().filter(|&&e| e).count())
            .sum();
        // One write per op, one per PI register load, one per delay-line
        // shift stage.
        assert_eq!(
            enables,
            g.num_ops() + dp.pi_regs().len() + dp.copy_edges().len()
        );
    }

    #[test]
    fn io_registers_are_tracked() {
        let g = benchmarks::figure1();
        let s = sched::asap(&g).unwrap();
        let b = bind::bind(&g, &s, &bind::BindOptions::default()).unwrap();
        let dp = Datapath::build(&g, &s, &b).unwrap();
        assert_eq!(dp.pi_regs().len(), 7);
        assert_eq!(dp.po_regs().len(), 2);
        assert!(!dp.input_registers().is_empty());
        assert!(!dp.output_registers().is_empty());
    }

    #[test]
    fn scan_marking_roundtrips() {
        let g = benchmarks::figure1();
        let s = sched::asap(&g).unwrap();
        let b = bind::bind(&g, &s, &bind::BindOptions::default()).unwrap();
        let mut dp = Datapath::build(&g, &s, &b).unwrap();
        assert!(dp.scan_registers().is_empty());
        dp.mark_scan(&[0, 2]);
        assert_eq!(dp.scan_registers(), vec![0, 2]);
    }
}
