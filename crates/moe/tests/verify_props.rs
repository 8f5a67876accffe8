//! Property tests for the static verifier: on randomly generated
//! production lines — nested subassembly lines, rework loops, zero
//! coverages, the low-yield regime — every freshly compiled program
//! must verify with zero errors, and every number either engine
//! produces must fall inside the verifier's [`StaticBounds`]:
//! per-started-unit cost, shipped fraction, rework attempts, sub-unit
//! builds, and — read off the probe plane's exact per-unit draw
//! counters, across lane widths — RNG draws consumed. The probed
//! [`RunStats`] snapshot itself must be bit-identical across thread
//! counts, and width-invariant in its core.
//!
//! [`RunStats`]: ipass_moe::RunStats

use ipass_moe::{
    Attach, CostCategory, FailAction, Flow, Line, Part, Probe, Process, Rework, SimOptions,
    StepCost, Test, YieldModel, DEFAULT_SUBASSEMBLY_RETRY_BUDGET,
};
use ipass_units::{Money, Probability};
use proptest::prelude::*;

fn p(v: f64) -> Probability {
    Probability::clamped(v)
}

#[derive(Debug, Clone)]
enum StageSpec {
    Process {
        cost: f64,
        yield_: f64,
    },
    Attach {
        part_cost: f64,
        part_yield: f64,
        qty: u32,
    },
    /// An attach consuming a nested line's output.
    SubLine {
        sub_cost: f64,
        sub_yield: f64,
        tested: bool,
        qty: u32,
    },
    Test {
        cost: f64,
        coverage: f64,
        rework: Option<(f64, f64, u32)>,
    },
}

fn stage_strategy() -> impl Strategy<Value = StageSpec> {
    prop_oneof![
        (0.0f64..5.0, 0.1f64..=1.0).prop_map(|(cost, yield_)| StageSpec::Process { cost, yield_ }),
        (0.0f64..20.0, 0.5f64..=1.0, 1u32..4).prop_map(|(part_cost, part_yield, qty)| {
            StageSpec::Attach {
                part_cost,
                part_yield,
                qty,
            }
        }),
        // Sub-line yields stay ≥ 0.4 so expected retry counts remain
        // far inside the retry budget (see the analytic-containment
        // caveat in the `verify` module docs).
        (0.5f64..8.0, 0.4f64..1.0, proptest::bool::ANY, 1u32..3).prop_map(
            |(sub_cost, sub_yield, tested, qty)| StageSpec::SubLine {
                sub_cost,
                sub_yield,
                tested,
                qty,
            }
        ),
        (
            0.0f64..3.0,
            0.0f64..=1.0,
            proptest::option::of((0.0f64..2.0, 0.0f64..=1.0, 0u32..4))
        )
            .prop_map(|(cost, coverage, rework)| StageSpec::Test {
                cost,
                coverage,
                rework
            }),
    ]
}

fn build_flow(carrier_cost: f64, carrier_yield: f64, stages: &[StageSpec]) -> Flow {
    let mut builder = Line::builder(
        "random",
        Part::new("carrier", CostCategory::Substrate)
            .with_cost(StepCost::fixed(Money::new(carrier_cost)))
            .with_incoming_yield(YieldModel::flat(p(carrier_yield))),
    );
    for (i, spec) in stages.iter().enumerate() {
        builder = match spec {
            StageSpec::Process { cost, yield_ } => builder.process(
                Process::new(format!("proc{i}"))
                    .with_cost(StepCost::fixed(Money::new(*cost)))
                    .with_yield(YieldModel::flat(p(*yield_))),
            ),
            StageSpec::Attach {
                part_cost,
                part_yield,
                qty,
            } => builder.attach(
                Attach::new(format!("attach{i}"))
                    .input(
                        Part::new(format!("part{i}"), CostCategory::Chip)
                            .with_cost(StepCost::fixed(Money::new(*part_cost)))
                            .with_incoming_yield(YieldModel::flat(p(*part_yield))),
                        *qty,
                    )
                    .with_cost(StepCost::per_item(Money::new(0.1), *qty)),
            ),
            StageSpec::SubLine {
                sub_cost,
                sub_yield,
                tested,
                qty,
            } => {
                let mut sub = Line::builder(
                    format!("sub{i}"),
                    Part::new(format!("blank{i}"), CostCategory::Substrate)
                        .with_cost(StepCost::fixed(Money::new(*sub_cost))),
                )
                .process(
                    Process::new(format!("fab{i}")).with_yield(YieldModel::flat(p(*sub_yield))),
                );
                if *tested {
                    sub = sub.test(Test::new(format!("probe{i}")).with_coverage(p(0.95)));
                }
                builder.attach(
                    Attach::new(format!("join{i}"))
                        .input(sub.build().expect("sub-line is non-empty"), *qty)
                        .with_yield(YieldModel::flat(p(0.99))),
                )
            }
            StageSpec::Test {
                cost,
                coverage,
                rework,
            } => {
                let action = match rework {
                    Some((rc, rs, attempts)) => FailAction::Rework(Rework::new(
                        StepCost::fixed(Money::new(*rc)),
                        p(*rs),
                        *attempts,
                    )),
                    None => FailAction::Scrap,
                };
                builder.test(
                    Test::new(format!("test{i}"))
                        .with_cost(StepCost::fixed(Money::new(*cost)))
                        .with_coverage(p(*coverage))
                        .on_fail(action),
                )
            }
        };
    }
    Flow::new(builder.build().expect("non-empty line"))
        .with_nre(Money::new(500.0))
        .with_volume(10_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every freshly compiled program passes structural verification:
    /// compilation may never emit a program that violates the invariant
    /// catalog. (Warnings are legitimate — the generator produces
    /// zero-coverage tests and zero-attempt rework on purpose.)
    #[test]
    fn compiled_programs_verify_without_errors(
        carrier_cost in 0.5f64..20.0,
        carrier_yield in 0.5f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let diags = flow.compiled().unwrap().verify();
        prop_assert!(!diags.has_errors(), "errors on a compiled program:\n{diags}");
    }

    /// Both engines land inside the verifier's static intervals: the
    /// analytic expectation and the Monte Carlo estimate of
    /// per-started-unit cost and shipped fraction, and the Monte Carlo
    /// rework-attempt and sub-build totals against `units × bound`.
    #[test]
    fn engine_reports_fall_inside_static_bounds(
        carrier_cost in 0.5f64..20.0,
        carrier_yield in 0.5f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let compiled = flow.compiled().unwrap();
        let bounds = compiled
            .static_bounds(DEFAULT_SUBASSEMBLY_RETRY_BUDGET)
            .unwrap();

        if let Ok(report) = compiled.analyze() {
            // total_spend excludes NRE, matching the bounds' scope.
            let per_started = report.total_spend().units() / report.started();
            prop_assert!(
                bounds.cost_per_unit.contains(per_started),
                "analytic {per_started} outside {:?}", bounds.cost_per_unit
            );
            prop_assert!(bounds.shipped_fraction.contains(report.shipped_fraction()));
        }

        let units = 2_000u64;
        match compiled.simulate_summary(&SimOptions::new(units).with_seed(seed)) {
            Ok(summary) => {
                let report = &summary.report;
                let per_started = report.total_spend().units() / report.started();
                prop_assert!(
                    bounds.cost_per_unit.contains(per_started),
                    "mc {per_started} outside {:?}", bounds.cost_per_unit
                );
                prop_assert!(bounds.shipped_fraction.contains(report.shipped_fraction()));
                prop_assert!(
                    summary.rework_attempts
                        <= bounds.rework_per_unit.hi.saturating_mul(units)
                );
                prop_assert!(summary.rework_attempts >= bounds.rework_per_unit.lo * units);
                prop_assert!(
                    summary.sub_units_built
                        <= bounds.sub_builds_per_unit.hi.saturating_mul(units)
                );
                prop_assert!(summary.sub_units_built >= bounds.sub_builds_per_unit.lo * units);
            }
            // A flow that ships (essentially) nothing is a legal
            // generator outcome; the bounds have nothing to contain.
            Err(e) => prop_assert!(
                matches!(e, ipass_moe::FlowError::NothingShipped { .. }),
                "unexpected MC failure: {e}"
            ),
        }
    }

    /// The draw budget is sound per unit: the probe plane counts each
    /// unit's actual RNG consumption exactly (off the counter-based
    /// generator's stream position), and the measured min/max must land
    /// inside `bounds.draws_per_unit` — the interval the lane kernel's
    /// run-batching budget relies on. The simulated report must also be
    /// identical across lane widths.
    #[test]
    fn measured_draws_stay_inside_the_budget_across_lane_widths(
        carrier_cost in 0.5f64..20.0,
        carrier_yield in 0.5f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let compiled = flow.compiled().unwrap();
        let bounds = compiled
            .static_bounds(DEFAULT_SUBASSEMBLY_RETRY_BUDGET)
            .unwrap();
        match compiled.simulate_summary(
            &SimOptions::new(300).with_seed(seed).with_probe(Probe::ON),
        ) {
            Ok(summary) => {
                let stats = summary.stats.expect("probed run carries stats");
                prop_assert_eq!(stats.units, 300);
                prop_assert!(
                    bounds.draws_per_unit.contains(stats.draws_min)
                        && bounds.draws_per_unit.contains(stats.draws_max),
                    "draw range [{}, {}] escapes bounds {:?}",
                    stats.draws_min,
                    stats.draws_max,
                    bounds.draws_per_unit
                );
                prop_assert_eq!(stats.rework_attempts, summary.rework_attempts);
                prop_assert_eq!(stats.sub_units_built, summary.sub_units_built);
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    ipass_moe::FlowError::NothingShipped { .. }
                        | ipass_moe::FlowError::SubassemblyStarved { .. }
                ),
                "unexpected routing failure: {e}"
            ),
        }

        let units = 500u64;
        let widths = [1usize, 4, 64];
        let reports: Vec<_> = widths
            .iter()
            .map(|&w| {
                compiled.simulate_summary(
                    &SimOptions::new(units).with_seed(seed).with_lane_width(w),
                )
            })
            .collect();
        match &reports[0] {
            Ok(base) => {
                for (w, r) in widths.iter().zip(&reports).skip(1) {
                    let r = r.as_ref().unwrap_or_else(|e| {
                        panic!("width {w} failed where width 1 succeeded: {e}")
                    });
                    prop_assert_eq!(&base.report, &r.report, "lane width {} diverged", w);
                    prop_assert_eq!(base.rework_attempts, r.rework_attempts);
                    prop_assert_eq!(base.sub_units_built, r.sub_units_built);
                }
            }
            Err(e) => prop_assert!(matches!(
                e,
                ipass_moe::FlowError::NothingShipped { .. }
                    | ipass_moe::FlowError::SubassemblyStarved { .. }
            )),
        }
    }

    /// The deterministic plane's promise: a probed [`RunStats`] is
    /// bit-identical for any thread count (full equality, lanes
    /// histogram included — chunk geometry depends only on `units`),
    /// and its [`invariant_core`] — everything except the
    /// width-dependent lane-occupancy histogram — is additionally
    /// identical across lane widths.
    ///
    /// [`RunStats`]: ipass_moe::RunStats
    /// [`invariant_core`]: ipass_moe::RunStats::invariant_core
    #[test]
    fn probed_run_stats_are_invariant_across_threads_and_widths(
        carrier_cost in 0.5f64..20.0,
        carrier_yield in 0.5f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let compiled = flow.compiled().unwrap();
        let units = 600u64;
        let run = |threads: usize, width: usize| {
            compiled.simulate_summary(
                &SimOptions::new(units)
                    .with_seed(seed)
                    .with_threads(threads)
                    .with_lane_width(width)
                    .with_probe(Probe::ON),
            )
        };
        match run(1, 4) {
            Ok(base) => {
                let base_stats = base.stats.expect("probed run carries stats");
                for threads in [2usize, 8] {
                    let r = run(threads, 4).unwrap_or_else(|e| {
                        panic!("{threads} threads failed where 1 succeeded: {e}")
                    });
                    prop_assert_eq!(
                        base_stats,
                        r.stats.expect("probed run carries stats"),
                        "RunStats diverged at {} threads",
                        threads
                    );
                }
                for width in [1usize, 64] {
                    let r = run(1, width).unwrap_or_else(|e| {
                        panic!("width {width} failed where 4 succeeded: {e}")
                    });
                    prop_assert_eq!(
                        base_stats.invariant_core(),
                        r.stats.expect("probed run carries stats").invariant_core(),
                        "invariant core diverged at lane width {}",
                        width
                    );
                }
            }
            Err(e) => prop_assert!(matches!(
                e,
                ipass_moe::FlowError::NothingShipped { .. }
                    | ipass_moe::FlowError::SubassemblyStarved { .. }
            )),
        }
    }
}
