//! The end-to-end synthesis-for-testability flow.

use std::error::Error;
use std::fmt;

use hlstb_bist::registers::BistPlan;
use hlstb_cdfg::{Cdfg, Schedule};
use hlstb_hls::bind::{self, BindError, Binding, RegAlgo};
use hlstb_hls::datapath::{Datapath, DatapathError};
use hlstb_hls::estimate::{estimate_area, RegisterCosts};
use hlstb_hls::expand::{self, ControllerMode, ExpandError, ExpandOptions, ExpandedDatapath};
use hlstb_hls::fu::ResourceLimits;
use hlstb_hls::sched::{self, ListPriority, SchedError};
use hlstb_scan::kcontrol::{self, KControlPlan};
use hlstb_scan::scanvars::{self, ScanSelectOptions};
use hlstb_scan::simsched::{self, SimSchedOptions};
use hlstb_sgraph::cycles::{enumerate_cycles, CycleLimits};
use hlstb_sgraph::depth::sequential_depth;
use hlstb_sgraph::mfvs::{minimum_feedback_vertex_set, MfvsOptions};
use hlstb_sgraph::NodeId;

use hlstb_netlist::atpg::{generate_all, AtpgOptions};
use hlstb_netlist::fsim::ParallelOptions;
use hlstb_netlist::random::random_pattern_run_opts;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{AtpgSummary, GradingSummary, TestabilityReport};

/// Scheduler selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Resource-constrained list scheduling (least slack first).
    #[default]
    List,
    /// List scheduling with the I/O-aware priority of §3.2.
    IoAware,
    /// Force-directed scheduling with the given extra latency.
    ForceDirected(u32),
    /// ASAP (unconstrained).
    Asap,
}

/// Register-assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegisterPolicy {
    /// Left-edge minimum-register assignment.
    #[default]
    LeftEdge,
    /// DSATUR conflict-graph coloring.
    Dsatur,
    /// I/O-register maximization (Lee et al., §3.2).
    IoMax,
    /// Boundary-variable scan assignment (Lee, Jha & Wolf, §3.3.1).
    Boundary,
    /// Loop-avoiding assignment (Potkonjak, Dey & Roy, §3.3.2).
    LoopAvoiding,
    /// Self-adjacency-minimizing assignment (Avra, §5.1).
    Avra,
}

/// The DFT strategy applied after data-path construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DftStrategy {
    /// No test hardware.
    #[default]
    None,
    /// Every register scannable.
    FullScan,
    /// Gate-level-style partial scan: a minimum feedback vertex set of
    /// the register S-graph is scanned.
    GateLevelPartialScan,
    /// Behavioral partial scan: scan variables selected on the CDFG with
    /// the §3.3.1 effectiveness measures; residual assignment loops are
    /// broken by MFVS on what remains.
    BehavioralPartialScan,
    /// Simultaneous scheduling and assignment that avoids loop formation
    /// (§3.3.2); overrides the scheduler and register policy.
    SimultaneousLoopAvoidance,
    /// BIST with the naive TPGR/SR/CBILBO configuration (§5 baseline).
    BistNaive,
    /// BIST with maximal TPGR/SR sharing and exact CBILBO conditions
    /// (§5.1, Parulkar et al.).
    BistShared,
    /// Non-scan k-level controllability/observability test points
    /// (§4.2, Dey & Potkonjak).
    KLevelTestPoints(u32),
}

/// Errors from the flow.
#[derive(Debug)]
pub enum FlowError {
    /// Scheduling failed.
    Sched(SchedError),
    /// Binding failed.
    Bind(BindError),
    /// Data-path construction failed.
    Datapath(DatapathError),
    /// Gate-level expansion failed.
    Expand(ExpandError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Sched(e) => write!(f, "scheduling: {e}"),
            FlowError::Bind(e) => write!(f, "binding: {e}"),
            FlowError::Datapath(e) => write!(f, "data path: {e}"),
            FlowError::Expand(e) => write!(f, "expansion: {e}"),
        }
    }
}

impl Error for FlowError {}

impl From<SchedError> for FlowError {
    fn from(e: SchedError) -> Self {
        FlowError::Sched(e)
    }
}
impl From<BindError> for FlowError {
    fn from(e: BindError) -> Self {
        FlowError::Bind(e)
    }
}
impl From<DatapathError> for FlowError {
    fn from(e: DatapathError) -> Self {
        FlowError::Datapath(e)
    }
}
impl From<ExpandError> for FlowError {
    fn from(e: ExpandError) -> Self {
        FlowError::Expand(e)
    }
}

/// A complete synthesized, DFT-processed design.
#[derive(Debug, Clone)]
pub struct SynthesizedDesign {
    /// The behavior.
    pub cdfg: Cdfg,
    /// The schedule.
    pub schedule: Schedule,
    /// The binding.
    pub binding: Binding,
    /// The data path (scan marks applied).
    pub datapath: Datapath,
    /// The gate-level expansion.
    pub expanded: ExpandedDatapath,
    /// The testability report.
    pub report: TestabilityReport,
    /// BIST configuration, when a BIST strategy ran.
    pub bist_plan: Option<BistPlan>,
    /// k-level test-point plan, when that strategy ran.
    pub kcontrol_plan: Option<KControlPlan>,
}

/// Output of the front-end stage ([`SynthesisFlow::front_end`]):
/// schedule, binding, and data path, *before* DFT insertion. The DSE
/// engine memoizes this artifact — every DFT strategy except the
/// integrated loop-avoidance flow shares it.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// The schedule.
    pub schedule: Schedule,
    /// The binding.
    pub binding: Binding,
    /// The data path; scan marks are applied later by
    /// [`SynthesisFlow::apply_dft`].
    pub datapath: Datapath,
    /// Registers pre-selected for scan by the `Boundary` register
    /// policy (or seeded by the integrated loop-avoidance scheduler);
    /// read — never drained — by the DFT stage, so one `FrontEnd` can
    /// be cloned and re-processed under many strategies.
    pub boundary_scan: Vec<usize>,
}

/// Plans attached by the DFT stage ([`SynthesisFlow::apply_dft`]); the
/// scan marks themselves land in the data path.
#[derive(Debug, Clone, Default)]
pub struct DftPlans {
    /// BIST configuration, for the BIST strategies.
    pub bist: Option<BistPlan>,
    /// k-level test-point plan, for that strategy.
    pub kcontrol: Option<KControlPlan>,
}

/// Structural facts of the pre-scan register S-graph that no DFT
/// strategy can change (scan marks flag registers; they do not add or
/// remove S-graph edges). Split out of the report stage so a sweep can
/// compute them once per front end — cycle enumeration plus MFVS is
/// the dominant non-grading cost on loop-heavy designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgraphFacts {
    /// Non-self-loop cycles in the register S-graph.
    pub cycles: usize,
    /// Size of a minimum feedback vertex set (the gate-level
    /// partial-scan baseline).
    pub mfvs_size: usize,
}

/// Builder for one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisFlow {
    cdfg: Cdfg,
    scheduler: Scheduler,
    policy: RegisterPolicy,
    strategy: DftStrategy,
    width: u32,
    controller: ControllerMode,
    reset_controller: bool,
    grade_patterns: Option<usize>,
    run_atpg: bool,
}

impl SynthesisFlow {
    /// Starts a flow for a behavior with minimal resources, the default
    /// list scheduler, left-edge registers, no DFT, 4-bit width.
    pub fn new(cdfg: Cdfg) -> Self {
        SynthesisFlow {
            cdfg,
            scheduler: Scheduler::default(),
            policy: RegisterPolicy::default(),
            strategy: DftStrategy::default(),
            width: 4,
            controller: ControllerMode::Expanded,
            reset_controller: false,
            grade_patterns: None,
            run_atpg: false,
        }
    }

    /// Sets the scheduler.
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Sets the register policy.
    pub fn register_policy(mut self, p: RegisterPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Sets the DFT strategy.
    pub fn strategy(mut self, s: DftStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Sets the data-path width in bits.
    pub fn width(mut self, w: u32) -> Self {
        self.width = w;
        self
    }

    /// Sets the controller realization of the expansion.
    pub fn controller(mut self, c: ControllerMode) -> Self {
        self.controller = c;
        self
    }

    /// Adds a synchronous reset to the expanded controller (needed for
    /// non-scan sequential ATPG to initialize the FSM).
    pub fn reset_controller(mut self, on: bool) -> Self {
        self.reset_controller = on;
        self
    }

    /// Grades the expanded netlist with `patterns` pseudorandom
    /// full-scan patterns after synthesis and attaches the coverage and
    /// engine statistics to the report. The run is deterministic (fixed
    /// seed) and off by default.
    pub fn grade_random(mut self, patterns: usize) -> Self {
        self.grade_patterns = Some(patterns);
        self
    }

    /// Runs deterministic test generation (PODEM with fault-dropping
    /// simulation) after synthesis, targeting the faults the
    /// pseudorandom pass left undetected — or the whole collapsed
    /// universe when [`Self::grade_random`] was not requested — and
    /// attaches an [`AtpgSummary`] to the report.
    pub fn grade_atpg(mut self, on: bool) -> Self {
        self.run_atpg = on;
        self
    }

    /// The cycle-enumeration budget shared by the DFT and report
    /// stages.
    fn cycle_limits() -> CycleLimits {
        CycleLimits {
            max_cycles: 4096,
            max_len: 24,
        }
    }

    /// Stage 1 — the front end: schedule, bind, and build the data
    /// path, with no DFT applied yet. For
    /// [`DftStrategy::SimultaneousLoopAvoidance`] the integrated
    /// scheduler/assigner runs instead and seeds `boundary_scan` with
    /// its loop-concentrating registers.
    ///
    /// Every functional-unit class the behavior uses gets one unit
    /// ([`ResourceLimits::minimal_for`]), so the result depends only on
    /// the behavior, scheduler, register policy, and — for the
    /// integrated strategy — the strategy itself; the DSE engine
    /// memoizes it on exactly that key.
    ///
    /// # Errors
    ///
    /// Returns scheduling, binding, or data-path failures as a
    /// [`FlowError`].
    pub fn front_end(&self) -> Result<FrontEnd, FlowError> {
        let limits = ResourceLimits::minimal_for(&self.cdfg);
        if self.strategy == DftStrategy::SimultaneousLoopAvoidance {
            let r = simsched::schedule_and_assign(
                &self.cdfg,
                &SimSchedOptions {
                    limits,
                    ..Default::default()
                },
            )?;
            return Ok(FrontEnd {
                schedule: r.schedule,
                binding: r.binding,
                datapath: r.datapath,
                boundary_scan: r.scan_registers,
            });
        }
        let cdfg = &self.cdfg;
        let sched_span = hlstb_trace::span("sched");
        let schedule = match self.scheduler {
            Scheduler::List => sched::list_schedule(cdfg, &limits, ListPriority::Slack)?,
            Scheduler::IoAware => sched::list_schedule(cdfg, &limits, ListPriority::IoAware)?,
            Scheduler::ForceDirected(extra) => {
                sched::force_directed(cdfg, sched::critical_path(cdfg) + extra)?
            }
            Scheduler::Asap => sched::asap(cdfg)?,
        };
        sched_span.end();
        let bind_span = hlstb_trace::span("bind");
        let (fu_of, fus) = bind::bind_fus(cdfg, &schedule);
        let mut boundary_scan = Vec::new();
        let regs = match self.policy {
            RegisterPolicy::LeftEdge => bind::assign_registers(cdfg, &schedule, RegAlgo::LeftEdge),
            RegisterPolicy::Dsatur => bind::assign_registers(cdfg, &schedule, RegAlgo::Dsatur),
            RegisterPolicy::IoMax => hlstb_scan::ioreg::assign_io_max(cdfg, &schedule).regs,
            RegisterPolicy::Boundary => {
                let a = hlstb_scan::boundary::assign_boundary(cdfg, &schedule, 4096);
                boundary_scan = (0..a.scan_register_count).collect();
                a.regs
            }
            RegisterPolicy::LoopAvoiding => {
                simsched::loop_avoiding_registers(cdfg, &schedule, &fu_of)
            }
            RegisterPolicy::Avra => hlstb_bist::selfadj::avra_assignment(cdfg, &schedule, &fu_of),
        };
        let binding = Binding::from_parts(cdfg, &schedule, fu_of, fus, regs)?;
        bind_span.end();
        let datapath = Datapath::build(cdfg, &schedule, &binding)?;
        Ok(FrontEnd {
            schedule,
            binding,
            datapath,
            boundary_scan,
        })
    }

    /// Stage 2 — apply the DFT strategy: mark scan registers on the
    /// front end's data path and attach BIST / test-point plans.
    /// `boundary_scan` is read, never drained, so a cached [`FrontEnd`]
    /// clone can be re-processed under every strategy of a sweep.
    pub fn apply_dft(&self, fe: &mut FrontEnd) -> DftPlans {
        let dft_span = hlstb_trace::span("dft.apply");
        let mut plans = DftPlans::default();
        let datapath = &mut fe.datapath;
        match self.strategy {
            DftStrategy::None => {}
            DftStrategy::FullScan => {
                let all: Vec<usize> = (0..datapath.registers().len()).collect();
                datapath.mark_scan(&all);
            }
            DftStrategy::GateLevelPartialScan | DftStrategy::SimultaneousLoopAvoidance => {
                // For the integrated flow, scheduling already
                // concentrated all feedback into the scan-seeded
                // registers; a minimum feedback vertex set on the
                // resulting S-graph (often a subset of the seeds, or
                // empty when loops became tolerated self-loops) is the
                // final scan set. For the gate-level-style strategy the
                // MFVS on the oblivious data path is the whole point.
                let sg = datapath.register_sgraph();
                let fvs = minimum_feedback_vertex_set(&sg, MfvsOptions::default());
                let marks: Vec<usize> = fvs.nodes.iter().map(|n| n.index()).collect();
                datapath.mark_scan(&marks);
            }
            DftStrategy::BehavioralPartialScan => {
                let sel = scanvars::select_scan_variables(
                    &self.cdfg,
                    &fe.schedule,
                    &ScanSelectOptions::default(),
                );
                let lookup = fe.binding.regs.lookup(&self.cdfg);
                let mut marks: Vec<usize> = sel
                    .scan_vars
                    .iter()
                    .filter_map(|v| lookup[v.index()])
                    .collect();
                marks.extend_from_slice(&fe.boundary_scan);
                marks.sort_unstable();
                marks.dedup();
                datapath.mark_scan(&marks);
                // Residual assignment loops: break with MFVS on the rest.
                let sg = datapath.register_sgraph();
                let scanned: std::collections::BTreeSet<NodeId> = datapath
                    .scan_registers()
                    .iter()
                    .map(|&r| NodeId(r as u32))
                    .collect();
                let (rest, back) = sg.without_nodes(&scanned);
                let fvs = minimum_feedback_vertex_set(&rest, MfvsOptions::default());
                let extra: Vec<usize> = fvs.nodes.iter().map(|n| back[n.index()].index()).collect();
                datapath.mark_scan(&extra);
            }
            DftStrategy::BistNaive => {
                plans.bist = Some(hlstb_bist::registers::naive_plan(datapath));
            }
            DftStrategy::BistShared => {
                plans.bist = Some(hlstb_bist::share::shared_plan(datapath));
            }
            DftStrategy::KLevelTestPoints(k) => {
                let sg = datapath.register_sgraph();
                let inputs: Vec<NodeId> = datapath
                    .input_registers()
                    .iter()
                    .map(|&r| NodeId(r as u32))
                    .collect();
                let outputs: Vec<NodeId> = datapath
                    .output_registers()
                    .iter()
                    .map(|&r| NodeId(r as u32))
                    .collect();
                plans.kcontrol = Some(kcontrol::plan_k_control(
                    &sg,
                    k,
                    &inputs,
                    &outputs,
                    Self::cycle_limits(),
                ));
            }
        }
        dft_span.end();
        plans
    }

    /// Stage 3 — gate-level expansion of the (possibly scan-marked)
    /// data path.
    ///
    /// # Errors
    ///
    /// Returns expansion failures as a [`FlowError`].
    pub fn expand_netlist(&self, datapath: &Datapath) -> Result<ExpandedDatapath, FlowError> {
        Ok(expand::expand(
            datapath,
            &ExpandOptions {
                width: self.width,
                controller: self.controller,
                reset_controller: self.reset_controller,
            },
        )?)
    }

    /// Computes the strategy-independent [`SgraphFacts`] of a data
    /// path. Scan marks flag registers without touching S-graph edges,
    /// so the result is identical before and after
    /// [`Self::apply_dft`].
    pub fn sgraph_facts(datapath: &Datapath) -> SgraphFacts {
        let _span = hlstb_trace::span("sgraph.facts");
        let sg = datapath.register_sgraph();
        let cycles = enumerate_cycles(&sg, Self::cycle_limits())
            .into_iter()
            .filter(|c| !c.is_self_loop())
            .count();
        let mfvs_size = minimum_feedback_vertex_set(&sg, MfvsOptions::default())
            .nodes
            .len();
        SgraphFacts { cycles, mfvs_size }
    }

    /// Stage 4 — the testability report: post-scan S-graph structure,
    /// area, BIST overhead, and the optional grading / ATPG passes.
    pub fn build_report(
        &self,
        datapath: &Datapath,
        expanded: &ExpandedDatapath,
        bist_plan: Option<&BistPlan>,
        facts: &SgraphFacts,
    ) -> TestabilityReport {
        let report_span = hlstb_trace::span("report");
        let cycles = facts.cycles;
        let mfvs_size = facts.mfvs_size;
        let sg = datapath.register_sgraph();
        let scanned: std::collections::BTreeSet<NodeId> = datapath
            .scan_registers()
            .iter()
            .map(|&r| NodeId(r as u32))
            .collect();
        let (post, back) = sg.without_nodes(&scanned);
        let acyclic = post.is_acyclic(true);
        // Post-scan depth: scan registers act as pseudo I/O.
        let mut din: Vec<NodeId> = Vec::new();
        let mut dout: Vec<NodeId> = Vec::new();
        for (new, old) in back.iter().enumerate() {
            let r = old.index();
            if datapath.input_registers().contains(&r) {
                din.push(NodeId(new as u32));
            }
            if datapath.output_registers().contains(&r) {
                dout.push(NodeId(new as u32));
            }
        }
        let depth = sequential_depth(&post, &din, &dout);
        // Register-area cost of a shared BIST configuration: reported
        // for every run so the §5 cost axis is visible without
        // re-synthesizing under a BIST strategy. Reuses the attached
        // plan when one was built.
        let bist_overhead_percent = {
            let _span = hlstb_trace::span("bist.plan");
            match bist_plan {
                Some(plan) => plan.overhead_percent(self.width, &RegisterCosts::default()),
                None => hlstb_bist::share::shared_plan(datapath)
                    .overhead_percent(self.width, &RegisterCosts::default()),
            }
        };
        // Optional fault-grading pass: pseudorandom full-scan coverage
        // of the expanded netlist, fixed-seeded so reports reproduce.
        let faults = (self.grade_patterns.is_some() || self.run_atpg)
            .then(|| hlstb_netlist::fault::collapsed_faults(&expanded.netlist));
        let mut random_detected = std::collections::BTreeSet::new();
        let grading = self.grade_patterns.map(|patterns| {
            let faults = faults.as_deref().unwrap_or(&[]);
            let mut rng = StdRng::seed_from_u64(0xDAC_1996);
            let (run, stats) = random_pattern_run_opts(
                &expanded.netlist,
                faults,
                patterns,
                &mut rng,
                &ParallelOptions::default(),
            );
            let coverage_percent = run.summary.coverage_percent();
            random_detected = run.summary.detected;
            GradingSummary {
                coverage_percent,
                patterns,
                stats,
            }
        });
        // Optional deterministic top-up: PODEM over what the random
        // pass missed (or everything, when it never ran).
        let atpg = self.run_atpg.then(|| {
            let faults = faults.as_deref().unwrap_or(&[]);
            let residual: Vec<_> = faults
                .iter()
                .filter(|f| !random_detected.contains(f))
                .copied()
                .collect();
            let run = generate_all(&expanded.netlist, &residual, &AtpgOptions::default());
            let combined = random_detected.len() + run.detected;
            AtpgSummary {
                targeted: residual.len(),
                detected: run.detected,
                untestable: run.untestable,
                aborted: run.aborted,
                patterns: run.patterns.len(),
                decisions: run.effort.decisions,
                backtracks: run.effort.backtracks,
                combined_coverage_percent: 100.0 * combined as f64 / faults.len().max(1) as f64,
            }
        });
        let report = TestabilityReport {
            name: self.cdfg.name().to_string(),
            period: datapath.period(),
            registers: datapath.registers().len(),
            io_registers: {
                let mut io = datapath.input_registers();
                io.extend(datapath.output_registers());
                io.sort_unstable();
                io.dedup();
                io.len()
            },
            fus: datapath.fus().len(),
            scan_registers: datapath.scan_registers().len(),
            sgraph_cycles: cycles,
            sgraph_acyclic_after_scan: acyclic,
            mfvs_size,
            max_control_depth: depth.max_control(),
            max_observe_depth: depth.max_observe(),
            gates: expanded.netlist.num_gates(),
            area: estimate_area(datapath, self.width, &RegisterCosts::default()).total(),
            bist_overhead_percent,
            grading,
            atpg,
        };
        report_span.end();
        report
    }

    /// Runs the flow, composing the public stages —
    /// [`Self::front_end`] → [`Self::apply_dft`] →
    /// [`Self::expand_netlist`] → [`Self::sgraph_facts`] →
    /// [`Self::build_report`]. The builder survives the call, so one
    /// configured flow can run many times.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline stage failure as a [`FlowError`].
    pub fn run(&self) -> Result<SynthesizedDesign, FlowError> {
        let mut fe = self.front_end()?;
        let plans = self.apply_dft(&mut fe);
        let expanded = self.expand_netlist(&fe.datapath)?;
        let facts = Self::sgraph_facts(&fe.datapath);
        let report = self.build_report(&fe.datapath, &expanded, plans.bist.as_ref(), &facts);
        Ok(SynthesizedDesign {
            cdfg: self.cdfg.clone(),
            schedule: fe.schedule,
            binding: fe.binding,
            datapath: fe.datapath,
            expanded,
            report,
            bist_plan: plans.bist,
            kcontrol_plan: plans.kcontrol,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlstb_cdfg::benchmarks;

    #[test]
    fn default_flow_builds_every_benchmark() {
        for g in benchmarks::all() {
            let d = SynthesisFlow::new(g.clone()).run();
            assert!(d.is_ok(), "{}: {:?}", g.name(), d.err());
            let d = d.unwrap();
            assert!(d.report.gates > 0);
            assert_eq!(d.report.scan_registers, 0);
        }
    }

    #[test]
    fn full_scan_marks_everything() {
        let d = SynthesisFlow::new(benchmarks::diffeq())
            .strategy(DftStrategy::FullScan)
            .run()
            .unwrap();
        assert_eq!(d.report.scan_registers, d.report.registers);
        assert!(d.report.sgraph_acyclic_after_scan);
    }

    #[test]
    fn partial_scan_strategies_break_all_loops() {
        for strategy in [
            DftStrategy::GateLevelPartialScan,
            DftStrategy::BehavioralPartialScan,
        ] {
            for g in [
                benchmarks::diffeq(),
                benchmarks::ewf(),
                benchmarks::iir_biquad(),
            ] {
                let d = SynthesisFlow::new(g.clone())
                    .strategy(strategy)
                    .run()
                    .unwrap();
                assert!(
                    d.report.sgraph_acyclic_after_scan,
                    "{} with {strategy:?}",
                    g.name()
                );
                assert!(d.report.scan_registers < d.report.registers);
            }
        }
    }

    #[test]
    fn simultaneous_avoidance_scans_no_more_than_oblivious() {
        let g = benchmarks::figure1();
        let avoid = SynthesisFlow::new(g.clone())
            .strategy(DftStrategy::SimultaneousLoopAvoidance)
            .run()
            .unwrap();
        let oblivious = SynthesisFlow::new(g)
            .strategy(DftStrategy::GateLevelPartialScan)
            .run()
            .unwrap();
        assert!(avoid.report.scan_registers <= oblivious.report.scan_registers);
    }

    #[test]
    fn bist_strategies_attach_plans() {
        let d = SynthesisFlow::new(benchmarks::diffeq())
            .strategy(DftStrategy::BistShared)
            .run()
            .unwrap();
        let plan = d.bist_plan.expect("plan attached");
        assert_eq!(plan.kind_of.len(), d.report.registers);
    }

    #[test]
    fn klevel_strategy_attaches_plan() {
        let d = SynthesisFlow::new(benchmarks::diffeq())
            .strategy(DftStrategy::KLevelTestPoints(1))
            .run()
            .unwrap();
        assert!(d.kcontrol_plan.is_some());
    }

    #[test]
    fn grading_pass_attaches_coverage() {
        let base = SynthesisFlow::new(benchmarks::figure1())
            .strategy(DftStrategy::FullScan)
            .grade_random(256)
            .run()
            .unwrap();
        let graded = base.report.grading.as_ref().expect("grading attached");
        assert!(
            graded.coverage_percent > 50.0,
            "{}",
            graded.coverage_percent
        );
        assert_eq!(graded.patterns, 256);
        assert!(graded.stats.fault_evals > 0);
        // The default flow stays grading-free (report shape unchanged).
        let plain = SynthesisFlow::new(benchmarks::figure1()).run().unwrap();
        assert!(plain.report.grading.is_none());
    }

    #[test]
    fn atpg_topup_attaches_summary_and_never_lowers_coverage() {
        let d = SynthesisFlow::new(benchmarks::figure1())
            .strategy(DftStrategy::FullScan)
            .grade_random(64)
            .grade_atpg(true)
            .run()
            .unwrap();
        let g = d.report.grading.as_ref().expect("grading attached");
        let a = d.report.atpg.as_ref().expect("atpg attached");
        assert!(a.combined_coverage_percent >= g.coverage_percent);
        assert!(a.targeted <= g.stats.faults);
        // ATPG alone targets the whole collapsed universe.
        let d2 = SynthesisFlow::new(benchmarks::figure1())
            .strategy(DftStrategy::FullScan)
            .grade_atpg(true)
            .run()
            .unwrap();
        assert!(d2.report.grading.is_none());
        let a2 = d2.report.atpg.as_ref().expect("atpg attached");
        assert!(a2.targeted > 0);
        assert!(a2.detected + a2.untestable + a2.aborted <= a2.targeted + a2.detected);
    }

    /// Strips the wall-clock component of a report so two runs of the
    /// same flow compare equal (every other field is deterministic).
    fn detimed(mut r: TestabilityReport) -> TestabilityReport {
        if let Some(g) = r.grading.as_mut() {
            g.stats.wall_good = std::time::Duration::ZERO;
            g.stats.wall_fault = std::time::Duration::ZERO;
        }
        r
    }

    #[test]
    fn run_keeps_the_builder_and_repeats_its_report() {
        for strategy in [
            DftStrategy::None,
            DftStrategy::FullScan,
            DftStrategy::BehavioralPartialScan,
            DftStrategy::SimultaneousLoopAvoidance,
            DftStrategy::BistShared,
            DftStrategy::KLevelTestPoints(2),
        ] {
            let flow = SynthesisFlow::new(benchmarks::figure1())
                .strategy(strategy)
                .grade_random(64);
            let first = flow.run().unwrap();
            // The builder survives run: run it again.
            let again = flow.run().unwrap();
            assert_eq!(detimed(first.report), detimed(again.report), "{strategy:?}");
        }
    }

    #[test]
    fn staged_pipeline_composes_to_the_monolithic_result() {
        let flow =
            SynthesisFlow::new(benchmarks::diffeq()).strategy(DftStrategy::BehavioralPartialScan);
        let mut fe = flow.front_end().unwrap();
        // Facts are strategy-independent: identical before and after DFT.
        let before = SynthesisFlow::sgraph_facts(&fe.datapath);
        let plans = flow.apply_dft(&mut fe);
        let after = SynthesisFlow::sgraph_facts(&fe.datapath);
        assert_eq!(before, after);
        let expanded = flow.expand_netlist(&fe.datapath).unwrap();
        let report = flow.build_report(&fe.datapath, &expanded, plans.bist.as_ref(), &after);
        let whole = flow.run().unwrap();
        assert_eq!(report, whole.report);
    }

    #[test]
    fn iomax_policy_raises_io_register_share() {
        let g = benchmarks::ewf();
        let base = SynthesisFlow::new(g.clone()).run().unwrap();
        let io = SynthesisFlow::new(g)
            .register_policy(RegisterPolicy::IoMax)
            .run()
            .unwrap();
        assert!(io.report.io_registers >= base.report.io_registers);
    }
}
