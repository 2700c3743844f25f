//! Invariants of the generated control tables and expansions, checked
//! across the whole benchmark suite.

use hlstb_cdfg::benchmarks;
use hlstb_hls::bind::{self, BindOptions};
use hlstb_hls::datapath::{Datapath, PortSource, RegSource};
use hlstb_hls::expand::{control_signal_table, expand, ControllerMode, ExpandOptions};
use hlstb_hls::fu::ResourceLimits;
use hlstb_hls::sched::{self, ListPriority};

fn datapaths() -> Vec<(String, Datapath)> {
    benchmarks::all()
        .into_iter()
        .map(|g| {
            let lim = ResourceLimits::minimal_for(&g);
            let s = sched::list_schedule(&g, &lim, ListPriority::Slack).unwrap();
            let b = bind::bind(&g, &s, &BindOptions::default()).unwrap();
            let dp = Datapath::build(&g, &s, &b).unwrap();
            (g.name().to_string(), dp)
        })
        .collect()
}

#[test]
fn selects_always_address_real_sources() {
    for (name, dp) in datapaths() {
        for (t, step) in dp.control().iter().enumerate() {
            for (r, &sel) in step.reg_select.iter().enumerate() {
                if step.reg_enable[r] {
                    assert!(
                        sel < dp.reg_sources()[r].len().max(1),
                        "{name}: step {t} register {r} selects missing source"
                    );
                }
            }
            for (f, ports) in step.port_select.iter().enumerate() {
                for (p, &sel) in ports.iter().enumerate() {
                    let n = dp.port_sources()[f][p].len();
                    if n > 0 {
                        assert!(sel < n, "{name}: step {t} fu {f} port {p}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_fu_port_source_is_used_somewhere() {
    for (name, dp) in datapaths() {
        for (f, ports) in dp.port_sources().iter().enumerate() {
            for (p, sources) in ports.iter().enumerate() {
                for (idx, _) in sources.iter().enumerate() {
                    let used = dp
                        .control()
                        .iter()
                        .any(|st| st.fu_op[f].is_some() && st.port_select[f][p] == idx);
                    assert!(used, "{name}: fu {f} port {p} source {idx} is dead");
                }
            }
        }
    }
}

#[test]
fn external_loads_exist_exactly_for_inputs() {
    for (name, dp) in datapaths() {
        let externals: usize = dp
            .reg_sources()
            .iter()
            .flatten()
            .filter(|s| matches!(s, RegSource::External(_)))
            .count();
        assert_eq!(externals, dp.pi_regs().len(), "{name}");
    }
}

#[test]
fn signal_table_matches_expanded_external_inputs() {
    for (name, dp) in datapaths() {
        let table = control_signal_table(&dp);
        let exp = expand(
            &dp,
            &ExpandOptions {
                width: 4,
                controller: ControllerMode::External,
                reset_controller: false,
            },
        )
        .unwrap();
        assert_eq!(exp.control_inputs.len(), table.len(), "{name}");
        for ((tn, _), (en, _)) in table.iter().zip(&exp.control_inputs) {
            assert_eq!(tn, en, "{name}");
        }
    }
}

#[test]
fn constants_never_occupy_registers() {
    for (name, dp) in datapaths() {
        for (f, ports) in dp.port_sources().iter().enumerate() {
            for sources in ports {
                for s in sources {
                    if let PortSource::Register(r) = s {
                        assert!(*r < dp.registers().len(), "{name}: fu {f}");
                    }
                }
            }
        }
    }
}

#[test]
fn expanded_gate_count_scales_linearly_with_width() {
    let g = benchmarks::tseng();
    let lim = ResourceLimits::minimal_for(&g);
    let s = sched::list_schedule(&g, &lim, ListPriority::Slack).unwrap();
    let b = bind::bind(&g, &s, &BindOptions::default()).unwrap();
    let dp = Datapath::build(&g, &s, &b).unwrap();
    let n4 = expand(
        &dp,
        &ExpandOptions {
            width: 4,
            ..Default::default()
        },
    )
    .unwrap()
    .netlist
    .num_gates();
    let n8 = expand(
        &dp,
        &ExpandOptions {
            width: 8,
            ..Default::default()
        },
    )
    .unwrap()
    .netlist
    .num_gates();
    // Between 1.5x and 3x: linear-ish (controller overhead is fixed,
    // multipliers are quadratic but tseng has none).
    let ratio = n8 as f64 / n4 as f64;
    assert!(ratio > 1.5 && ratio < 3.0, "{n4} -> {n8}");
}
