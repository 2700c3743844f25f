//! Runs every experiment in sequence — the full reproduction sweep.
fn main() {
    let sinks = hlstb::trace::Sinks::from_env();
    sinks.start();
    print!("{}", hlstb::tools::render_table1());
    println!();
    for t in [
        hlstb_bench::fig1::run(),
        hlstb_bench::atpg_complexity::run(),
        hlstb_bench::scan_exps::ioreg_table(),
        hlstb_bench::scan_exps::scanvars_table(),
        hlstb_bench::scan_exps::boundary_table(),
        hlstb_bench::scan_exps::simsched_table(),
        hlstb_bench::scan_exps::deflect_table(),
        hlstb_bench::rtl_exps::controller_table(),
        hlstb_bench::rtl_exps::rtl_dft_table(),
        hlstb_bench::bist_exps::selfadj_table(),
        hlstb_bench::bist_exps::tfb_table(),
        hlstb_bench::bist_exps::share_table(),
        hlstb_bench::bist_exps::sessions_table(),
        hlstb_bench::bist_exps::arith_table(),
        hlstb_bench::hier_exp::run(40),
        hlstb_bench::rtl_exps::behmod_table(),
        hlstb_bench::rtl_exps::tpi_table(),
        hlstb_bench::bist_exps::bist_coverage_table(),
        hlstb_bench::scaling::run(&[8, 16, 24, 32], 3, 6),
        hlstb_bench::fsim_bench::sweep(512).table(),
        hlstb_bench::ablation::share_weight_sweep(),
        hlstb_bench::ablation::test_weight_sweep(),
        hlstb_bench::scoreboard::run(40),
        hlstb_bench::dse_exp::coverage_matrix(512),
    ] {
        println!("{t}");
    }
    if let Err(e) = sinks.finish() {
        eprintln!("{e}");
    }
}
