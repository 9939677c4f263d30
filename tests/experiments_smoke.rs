//! Smoke tests: every experiment binary's library entry point runs in quick
//! mode and reports the claims it was built to check. This keeps the whole
//! reproduction harness compiling, running, and honest under `cargo test`.

use hc_bench::experiments as exp;
use hc_bench::RunConfig;

fn quick() -> RunConfig {
    RunConfig::quick()
}

#[test]
fn fig2_reports_worked_example() {
    let out = exp::fig2::run(quick());
    assert!(out.contains("<14, 3, 11, 3, 0, 11, 0>"));
}

#[test]
fn fig3_reports_uniform_run_reduction() {
    let out = exp::fig3::run(quick());
    assert!(out.contains("uniform run"));
    assert!(out.contains("distinct tail"));
}

#[test]
fn fig5_reports_order_of_magnitude_claim() {
    let out = exp::fig5::run(quick());
    assert!(out.contains("Minimum S~/S̄ gain observed"));
    assert!(out.contains("Social Network"));
    assert!(out.contains("NetTrace"));
    assert!(out.contains("Search Logs"));
}

#[test]
fn fig6_reports_crossover_and_series() {
    let out = exp::fig6::run(quick());
    assert!(out.contains("crossover"));
    assert!(out.contains("ε = 0.01"));
    assert!(out.matches("== Fig. 6").count() == 6, "2 datasets × 3 ε");
}

#[test]
fn fig7_reports_boundary_vs_interior() {
    let out = exp::fig7::run(quick());
    assert!(out.contains("uniform-run interior"));
    assert!(out.contains("count-change boundary"));
}

#[test]
fn thm2_reports_both_sweeps() {
    let out = exp::thm2_scaling::run(quick());
    assert!(out.contains("sweep over d"));
    assert!(out.contains("sweep over n"));
}

#[test]
fn thm4_reports_predicted_factor() {
    let out = exp::thm4_factor::run(quick());
    assert!(out.contains("predicted factor"));
    assert!(out.contains("9.33"));
}

#[test]
fn appendix_e_reports_scaling_reference() {
    let out = exp::appendix_e::run(quick());
    assert!(out.contains("N^(2/3) reference"));
}

#[test]
fn ablations_all_run() {
    assert!(exp::ablation_branching::run(quick()).contains("branching factor"));
    assert!(exp::ablation_budget::run(quick()).contains("budget allocation"));
    assert!(exp::ablation_wavelet::run(quick()).contains("wavelet"));
    assert!(exp::ablation_matrix::run(quick()).contains("crossover"));
    assert!(exp::ablation_nonneg::run(quick()).contains("non-negativity"));
    assert!(exp::ablation_geometric::run(quick()).contains("geometric"));
    assert!(exp::ablation_quadtree::run(quick()).contains("quadtree"));
}

#[test]
fn accuracy_planner_reports_ranked_ladder_and_both_backends() {
    let out = exp::accuracy_planner::run(quick());
    assert!(out.contains("Accuracy-first planning"));
    assert!(out.contains("ranked by solved ε"));
    assert!(out.contains("reference"));
    assert!(out.contains("fast-ln-wide"));
    assert!(out.contains("Winning plan executed"));
}

#[test]
fn accuracy_planner_quick_golden_seed_20100913() {
    // Generated by this repository's own pipeline (f64 Debug round-trips
    // exactly). The quick run plans over n = 2¹⁰ at the default seed and
    // executes the winning plan under both noise backends; any drift in
    // the accuracy inversion, the custom-split optimizer, the release,
    // the inference, or the serving path shows up here as an
    // exact-equality failure. Frozen per the backend versioning policy.
    let report = exp::accuracy_planner::compute(quick());
    assert_eq!(report.domain_size, 1 << 10);
    assert_eq!(report.bound, 50.0);
    let ladder: Vec<(&str, u64)> = report
        .plans
        .iter()
        .map(|p| (p.label.as_str(), p.epsilon.to_bits()))
        .collect();
    assert_eq!(
        ladder,
        vec![
            ("budgeted custom (k = 2)", 4.300820293682012f64.to_bits()),
            ("hierarchical (H̄, k = 2)", 7.610129330818328f64.to_bits()),
            ("flat (L̃)", 9.157907656849488f64.to_bits()),
            (
                "budgeted geometric (ratio 2.00)",
                12.644427548851555f64.to_bits()
            ),
        ]
    );
    let exec: Vec<(&str, u64, u64, f64)> = report
        .execution
        .iter()
        .map(|x| {
            (
                x.backend,
                x.mean_abs.to_bits(),
                x.worst_abs.to_bits(),
                x.over_share,
            )
        })
        .collect();
    assert_eq!(
        exec,
        vec![
            (
                "reference",
                2.022327403761836f64.to_bits(),
                8.977001417957581f64.to_bits(),
                0.0
            ),
            (
                "fast-ln-wide",
                2.1617553410327894f64.to_bits(),
                9.187267598994367f64.to_bits(),
                0.0
            ),
        ]
    );
}

#[test]
fn ablation_budget_quick_golden_seed_20100913() {
    // Every (ratio, range size) error of the quick budget ablation, pinned
    // by bits: its table prints four significant digits, which would hide
    // a drift in the per-level noise, the GLS inference or the serving
    // path. Generated by this repository's own pipeline (f64 Debug
    // round-trips exactly).
    let points: Vec<(f64, usize, u64)> = exp::ablation_budget::compute(quick())
        .iter()
        .map(|p| (p.ratio, p.size, p.inferred.to_bits()))
        .collect();
    assert_eq!(
        points,
        vec![
            (0.5, 4, 120180698.49181767f64.to_bits()),
            (0.5, 64, 133096283.58686402f64.to_bits()),
            (0.5, 128, 125403215.23530762f64.to_bits()),
            (1.0, 4, 21233.256447875385f64.to_bits()),
            (1.0, 64, 31844.37275039168f64.to_bits()),
            (1.0, 128, 44497.23160834286f64.to_bits()),
            (1.5, 4, 2946.4039833561683f64.to_bits()),
            (1.5, 64, 16454.224072532645f64.to_bits()),
            (1.5, 128, 30597.61942867858f64.to_bits()),
            (2.0, 4, 2040.0950475484228f64.to_bits()),
            (2.0, 64, 21808.13782728618f64.to_bits()),
            (2.0, 128, 38505.07451484077f64.to_bits()),
        ]
    );
}
