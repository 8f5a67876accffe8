//! The explorer path: `FlowExplorer::refine` over solution 2's
//! substrate cost scale × functional-test coverage space, with promoted
//! points rebuilt through `BuildUpPlan::production_flow`.

use crate::gen::Grid;
use crate::measure::median;
use ipass_core::{BuildUp, BuildUpPlan, CostInputs, SelectionObjective};
use ipass_explore::{
    FlowAxis, FlowExplorer, Levels, Metric, Objective, RefineOptions, Refined, SamplerSpec,
};
use ipass_gps::{bom::gps_bom, table2::cost_inputs};
use ipass_moe::{CompiledFlow, Executor, Flow, FlowError};
use ipass_units::{Area, Probability};
use std::time::Instant;

/// Monte Carlo budget per promoted point: small, so the analytic screen
/// and the per-point rebuilds dominate a refine, not the kernel.
pub const MC_UNITS: u64 = 2_000;

/// Solution 2's plan, cost card and compiled production flow.
#[derive(Debug)]
pub struct Space {
    plan: BuildUpPlan,
    area: Area,
    card: CostInputs,
    compiled: CompiledFlow,
    carrier: String,
}

impl Space {
    /// Plan solution 2 and compile its production flow.
    pub fn new() -> Result<Space, String> {
        let buildup = BuildUp::paper_solutions()[1];
        let plan = buildup
            .plan(&gps_bom(&buildup), SelectionObjective::MinArea)
            .map_err(|e| e.to_string())?;
        let area = plan.area().substrate_area;
        let card = cost_inputs(&buildup);
        let flow = plan
            .production_flow(area, &card)
            .map_err(|e| e.to_string())?;
        let carrier = flow.line().carrier().name().to_owned();
        let compiled = flow.compiled().map_err(|e| e.to_string())?;
        Ok(Space {
            plan,
            area,
            card,
            compiled,
            carrier,
        })
    }

    /// An explorer over `grid`, minimizing final cost and escape rate.
    pub fn explorer(&self, grid: &Grid, executor: Executor) -> FlowExplorer {
        let (s0, s1) = grid.cost_scale;
        let (c0, c1) = grid.coverage;
        FlowExplorer::new(self.compiled.clone())
            .axis(FlowAxis::cost_scale(
                &self.carrier,
                Levels::linspace(s0, s1, grid.side),
            ))
            .axis(FlowAxis::coverage(
                "functional test",
                Levels::linspace(c0, c1, grid.side),
            ))
            .objective(Objective::minimize(Metric::FinalCostPerShipped))
            .objective(Objective::minimize(Metric::EscapeRate))
            .with_executor(executor)
    }

    /// The `refine` build closure: the promoted point's production flow,
    /// rebuilt from a modified cost card.
    pub fn build(&self, coords: &[f64]) -> Result<Flow, FlowError> {
        let mut card = self.card.clone();
        card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * coords[0];
        card.fault_coverage = Probability::clamped(coords[1]);
        self.plan.production_flow(self.area, &card)
    }

    /// Plan, compile, build the explorer and get the base flow's first
    /// answer, `reps` times; returns the median in seconds with the last
    /// space and explorer.
    pub fn timed_setup(
        grid: &Grid,
        threads: usize,
        reps: usize,
    ) -> Result<(f64, Space, FlowExplorer), String> {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let start = Instant::now();
            let space = Space::new()?;
            let explorer = space.explorer(grid, Executor::new(threads));
            explorer.compiled().analyze().map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64());
            last = Some((space, explorer));
        }
        let (space, explorer) = last.expect("reps >= 1");
        Ok((median(&times), space, explorer))
    }
}

/// Refine options: margin 0 promotes exactly the analytic frontier.
pub fn options(grid: &Grid) -> RefineOptions {
    RefineOptions {
        margin: 0.0,
        mc_units: MC_UNITS,
        seed: grid.refine_seed,
        ..RefineOptions::default()
    }
}

/// Run one refine.
pub fn refine<B>(explorer: &FlowExplorer, grid: &Grid, build: B) -> Result<Refined, String>
where
    B: Fn(&[f64]) -> Result<Flow, FlowError> + Sync,
{
    explorer
        .refine(&SamplerSpec::Grid, &options(grid), build)
        .map_err(|e| e.to_string())
}

/// What a refine must reproduce: the analytic frontier's indices, the
/// promoted indices and the bits of every confirmation objective.
pub fn digest(refined: &Refined) -> Vec<u64> {
    let mut digest: Vec<u64> = refined
        .frontier()
        .indices()
        .into_iter()
        .map(|i| i as u64)
        .collect();
    digest.push(u64::MAX);
    digest.extend(refined.promoted.iter().map(|&i| i as u64));
    for c in &refined.confirmations {
        digest.push(c.index as u64);
        digest.extend(c.objectives.iter().map(|o| o.to_bits()));
    }
    digest
}
