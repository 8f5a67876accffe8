//! The five-step methodology behind a single entry point.
//!
//! [`TradeStudy`] takes the BOM, the candidate build-ups with their cost
//! cards and performance scores, and runs selection → area → cost →
//! figure of merit in one call, returning a [`StudyReport`] that renders
//! the full decision story.

use crate::bom::BomItem;
use crate::flowbuild::CostInputs;
use crate::fom::{CandidateScore, DecisionError, DecisionTable, FomWeights};
use crate::plan::{AreaBreakdown, BuildUpPlan, PlanError, SelectionObjective};
use crate::technology::BuildUp;
use ipass_explore::{
    Exploration, ExploreError, FlowAxis, FlowExplorer, FrontierDiff, Metric, Objective, SamplerSpec,
};
use ipass_moe::{CompiledFlow, CostReport, FlowError, PatchDirective};
use ipass_sim::Executor;
use ipass_units::Money;
use std::error::Error;
use std::fmt;

/// One candidate of a trade study: a build-up, its Table-2-style cost
/// card and its (externally assessed) performance score.
#[derive(Debug, Clone)]
pub struct StudyCandidate {
    /// The build-up.
    pub buildup: BuildUp,
    /// The cost/yield card.
    pub inputs: CostInputs,
    /// Performance score in `(0, 1]` (from the RF assessment).
    pub performance: f64,
}

impl StudyCandidate {
    /// Create a candidate.
    pub fn new(buildup: BuildUp, inputs: CostInputs, performance: f64) -> StudyCandidate {
        StudyCandidate {
            buildup,
            inputs,
            performance,
        }
    }
}

/// Error running a trade study.
#[derive(Debug)]
#[non_exhaustive]
pub enum StudyError {
    /// No candidates were registered.
    NoCandidates,
    /// Technology selection failed for a candidate.
    Plan(PlanError),
    /// Cost evaluation failed for a candidate.
    Flow(FlowError),
    /// Ranking failed.
    Decision(DecisionError),
    /// A design-space exploration failed.
    Explore(ExploreError),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::NoCandidates => write!(f, "trade study has no candidates"),
            StudyError::Plan(e) => write!(f, "planning failed: {e}"),
            StudyError::Flow(e) => write!(f, "cost evaluation failed: {e}"),
            StudyError::Decision(e) => write!(f, "ranking failed: {e}"),
            StudyError::Explore(e) => write!(f, "exploration failed: {e}"),
        }
    }
}

impl Error for StudyError {}

impl From<PlanError> for StudyError {
    fn from(e: PlanError) -> StudyError {
        StudyError::Plan(e)
    }
}

impl From<FlowError> for StudyError {
    fn from(e: FlowError) -> StudyError {
        StudyError::Flow(e)
    }
}

impl From<DecisionError> for StudyError {
    fn from(e: DecisionError) -> StudyError {
        StudyError::Decision(e)
    }
}

impl From<ExploreError> for StudyError {
    fn from(e: ExploreError) -> StudyError {
        StudyError::Explore(e)
    }
}

/// A configured trade study (methodology steps 1–5).
///
/// The first registered candidate is the reference the others are
/// normalized against (the paper's "solution 1 = 100 %").
///
/// # Examples
///
/// ```
/// use ipass_core::{
///     BomItem, BuildUp, FomWeights, PassivePolicy, Realization, SelectionObjective,
///     StudyCandidate, TradeStudy,
/// };
/// use ipass_units::{Area, Money, Probability};
///
/// # fn card(pcb: bool) -> ipass_core::CostInputs {
/// #     ipass_core::CostInputs {
/// #         substrate_cost_per_cm2: Money::new(if pcb { 0.1 } else { 2.25 }),
/// #         substrate_fab_yield_per_cm2: None,
/// #         substrate_yield: Probability::clamped(if pcb { 0.9999 } else { 0.9 }),
/// #         chips: vec![ipass_core::ChipCost::new("ASIC", Money::new(20.0), Probability::clamped(0.99))],
/// #         chip_attach_cost_per_die: Money::new(0.1),
/// #         chip_attach_yield: Probability::clamped(0.99),
/// #         wire_bond_cost_per_bond: Money::new(0.01),
/// #         wire_bond_yield: Probability::clamped(0.9999),
/// #         smd_parts_cost_override: None,
/// #         smd_attach_cost_per_part: Money::new(0.01),
/// #         smd_attach_yield: Probability::clamped(0.9999),
/// #         packaging: (!pcb).then(|| (Money::new(3.5), Probability::clamped(0.968))),
/// #         final_test_cost: Money::new(2.0),
/// #         fault_coverage: Probability::clamped(0.99),
/// #         yield_basis: ipass_core::YieldBasis::PerStep,
/// #     }
/// # }
/// let bom = vec![
///     BomItem::die("ASIC")
///         .with_packaged(Realization::new(Area::from_mm2(400.0), Money::new(25.0)))
///         .with_flip_chip(Realization::new(Area::from_mm2(36.0), Money::new(20.0))),
///     BomItem::passive("bias R", 30)
///         .with_smd(Realization::new(Area::from_mm2(3.75), Money::new(0.02)))
///         .with_integrated(Realization::new(Area::from_mm2(0.2), Money::ZERO)),
/// ];
/// let report = TradeStudy::new("demo", bom)
///     .candidate(StudyCandidate::new(BuildUp::pcb_reference(), card(true), 1.0))
///     .candidate(StudyCandidate::new(
///         BuildUp::mcm_flip_chip(PassivePolicy::Optimized),
///         card(false),
///         1.0,
///     ))
///     .run()?;
/// assert_eq!(report.rows().len(), 2);
/// println!("{}", report.render());
/// # Ok::<(), ipass_core::StudyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TradeStudy {
    name: String,
    bom: Vec<BomItem>,
    candidates: Vec<StudyCandidate>,
    objective: SelectionObjective,
    weights: FomWeights,
    executor: Executor,
}

impl TradeStudy {
    /// Create a study over a BOM.
    pub fn new(name: impl Into<String>, bom: Vec<BomItem>) -> TradeStudy {
        TradeStudy {
            name: name.into(),
            bom,
            candidates: Vec::new(),
            objective: SelectionObjective::MinArea,
            weights: FomWeights::unweighted(),
            executor: Executor::available(),
        }
    }

    /// Register a candidate (the first is the reference).
    pub fn candidate(mut self, candidate: StudyCandidate) -> TradeStudy {
        self.candidates.push(candidate);
        self
    }

    /// Change the selection objective (default: the paper's minimum
    /// area).
    pub fn with_objective(mut self, objective: SelectionObjective) -> TradeStudy {
        self.objective = objective;
        self
    }

    /// Change the figure-of-merit weights (default: unweighted product).
    pub fn with_weights(mut self, weights: FomWeights) -> TradeStudy {
        self.weights = weights;
        self
    }

    /// Change the executor candidates are fanned out on (default: one
    /// worker per available core; results do not depend on the choice).
    pub fn with_executor(mut self, executor: Executor) -> TradeStudy {
        self.executor = executor;
        self
    }

    /// Run all five steps.
    ///
    /// Candidates are evaluated in parallel on the study's executor.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] when no candidates are registered, a
    /// candidate cannot be planned, or a flow cannot be evaluated.
    pub fn run(&self) -> Result<StudyReport, StudyError> {
        let mut reports = self.run_scenarios(std::slice::from_ref(&StudyScenario::baseline()))?;
        Ok(reports.pop().expect("one scenario in, one report out"))
    }

    /// Run the study under several scenarios at once.
    ///
    /// Memoization happens on two levels, both fanned out through the
    /// executor:
    ///
    /// 1. **Plan + compile** per (candidate, objective): scenarios that
    ///    share a selection objective share the selected plan, its
    ///    packed areas and the *compiled* production program.
    /// 2. **Cost** per (candidate, objective, patch): a scenario's
    ///    [`cost patch`](StudyScenario::patch) is applied to the cached
    ///    compiled program — a copy of the flat op vector with a few
    ///    slots overwritten, never a rebuilt flow — and scenarios with
    ///    equal patches share the resulting report and only re-rank the
    ///    decision.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] when no candidates are registered, or any
    /// candidate fails to plan or evaluate under any scenario (including
    /// a patch naming a slot the compiled flow does not expose).
    pub fn run_scenarios(
        &self,
        scenarios: &[StudyScenario],
    ) -> Result<Vec<StudyReport>, StudyError> {
        if self.candidates.is_empty() {
            return Err(StudyError::NoCandidates);
        }
        // Scenario configurations collapse into equivalence classes:
        // that deduplication *is* the memoization — each (candidate,
        // objective) cell is planned and compiled exactly once, each
        // (candidate, objective, patch) cell costed exactly once,
        // however many scenarios share them.
        let mut objectives: Vec<SelectionObjective> = Vec::new();
        let mut cost_classes: Vec<(usize, Option<&[PatchDirective]>)> = Vec::new();
        let scenario_class: Vec<usize> = scenarios
            .iter()
            .map(|s| {
                let objective = s.objective.unwrap_or(self.objective);
                let o = match objectives.iter().position(|c| *c == objective) {
                    Some(i) => i,
                    None => {
                        objectives.push(objective);
                        objectives.len() - 1
                    }
                };
                let patch = s.patch.as_deref();
                match cost_classes
                    .iter()
                    .position(|&(co, cp)| co == o && cp == patch)
                {
                    Some(i) => i,
                    None => {
                        cost_classes.push((o, patch));
                        cost_classes.len() - 1
                    }
                }
            })
            .collect();

        // Level 1: plan, size and compile each candidate once per
        // objective class.
        let base_grid: Vec<(usize, usize)> = (0..self.candidates.len())
            .flat_map(|c| (0..objectives.len()).map(move |o| (c, o)))
            .collect();
        let bases = self.executor.try_map(&base_grid, |_, &(c, o)| {
            self.plan_candidate(c, objectives[o])
        })?;

        // Level 2: one analytic evaluation per candidate × cost class,
        // patching the cached program instead of rebuilding anything.
        let cost_grid: Vec<(usize, usize)> = (0..self.candidates.len())
            .flat_map(|c| (0..cost_classes.len()).map(move |k| (c, k)))
            .collect();
        let costs = self.executor.try_map(&cost_grid, |_, &(c, k)| {
            let (o, patch) = cost_classes[k];
            let compiled = &bases[c * objectives.len() + o].compiled;
            let mut point = compiled.patch();
            if let Some(directives) = patch {
                for directive in directives {
                    point.apply(directive)?;
                }
            }
            point.analyze()
        })?;

        scenarios
            .iter()
            .zip(scenario_class.iter())
            .map(|(scenario, &class)| {
                let (obj_class, _) = cost_classes[class];
                let rows: Vec<StudyRow> = (0..self.candidates.len())
                    .map(|c| {
                        let base = &bases[c * objectives.len() + obj_class];
                        StudyRow {
                            plan: base.plan.clone(),
                            area: base.area,
                            cost: costs[c * cost_classes.len() + class].clone(),
                            performance: base.performance,
                        }
                    })
                    .collect();
                let scores: Vec<CandidateScore> = rows
                    .iter()
                    .map(|row| {
                        CandidateScore::new(
                            row.plan.buildup().to_string(),
                            row.performance,
                            row.area.module_area,
                            row.cost.final_cost_per_shipped(),
                        )
                    })
                    .collect();
                let reference = scores[0].name.clone();
                let weights = scenario.weights.unwrap_or(self.weights);
                let decision = DecisionTable::rank(&scores, &reference, weights)?;
                let name = if scenario.name.is_empty() {
                    self.name.clone()
                } else {
                    format!("{} / {}", self.name, scenario.name)
                };
                Ok(StudyReport {
                    name,
                    rows,
                    decision,
                })
            })
            .collect()
    }

    /// Run a design-space exploration over every candidate: the same
    /// axes (say, amortization volume × test coverage) are swept over
    /// each candidate's compiled production program through
    /// `ipass-explore`, and the study is decided on the *frontier-best*
    /// cost of each candidate rather than a single point estimate.
    ///
    /// Each candidate is planned and compiled once (the study's
    /// selection objective applies); the explorer then screens every
    /// sampled point analytically — a patched op-vector copy per point,
    /// never a rebuilt flow — and extracts a Pareto frontier over
    /// *(final cost per shipped unit ↓, shipped fraction ↑)*. The
    /// returned [`StudyExploration`] carries, per candidate, the full
    /// screen, the frontier, and the frontier diff against the
    /// reference candidate, plus a [`DecisionTable`] ranked at each
    /// candidate's cheapest frontier point.
    ///
    /// The axes name patch slots by their stage/part path; they must
    /// resolve in **every** candidate's compiled flow (stages shared by
    /// construction — `"functional test"`, volume — are safe choices).
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] when no candidates are registered, a
    /// candidate fails to plan, an axis names a slot some candidate
    /// does not expose, or ranking fails.
    pub fn run_exploration(
        &self,
        axes: &[FlowAxis],
        sampler: &SamplerSpec,
    ) -> Result<StudyExploration, StudyError> {
        if self.candidates.is_empty() {
            return Err(StudyError::NoCandidates);
        }
        let cells: Vec<usize> = (0..self.candidates.len()).collect();
        let bases = self
            .executor
            .try_map(&cells, |_, &c| self.plan_candidate(c, self.objective))?;
        let explorations: Vec<Exploration> = bases
            .iter()
            .map(|cell| {
                let mut explorer = FlowExplorer::new(cell.compiled.clone())
                    .objective(Objective::minimize(Metric::FinalCostPerShipped))
                    .objective(Objective::maximize(Metric::ShippedFraction))
                    .with_executor(self.executor);
                for axis in axes {
                    explorer = explorer.axis(axis.clone());
                }
                Ok::<Exploration, StudyError>(explorer.explore(sampler)?)
            })
            .collect::<Result<_, _>>()?;

        // Only the reference's frontier is needed for the diffs — keep
        // a copy of that and *move* each (potentially huge) screen into
        // its CandidateExploration.
        let reference_frontier = explorations[0].frontier.clone();
        let mut candidates = Vec::with_capacity(bases.len());
        let mut scores = Vec::with_capacity(bases.len());
        for (i, (cell, exploration)) in bases.iter().zip(explorations).enumerate() {
            let best = exploration
                .frontier
                .best_by(0)
                .expect("explorations have at least one point");
            let best_cost = Money::new(best.objectives[0]);
            scores.push(CandidateScore::new(
                cell.plan.buildup().to_string(),
                cell.performance,
                cell.area.module_area,
                best_cost,
            ));
            let vs_reference = if i == 0 {
                None
            } else {
                Some(exploration.frontier.diff(&reference_frontier)?)
            };
            candidates.push(CandidateExploration {
                name: cell.plan.buildup().to_string(),
                exploration,
                best_cost,
                vs_reference,
            });
        }
        let reference = scores[0].name.clone();
        let decision = DecisionTable::rank(&scores, &reference, self.weights)?;
        Ok(StudyExploration {
            name: self.name.clone(),
            candidates,
            decision,
        })
    }

    fn plan_candidate(
        &self,
        index: usize,
        objective: SelectionObjective,
    ) -> Result<PlannedCell, StudyError> {
        let candidate = &self.candidates[index];
        let plan = candidate.buildup.plan(&self.bom, objective)?;
        let area = plan.area();
        let compiled = plan
            .production_flow(area.substrate_area, &candidate.inputs)?
            .compiled()?;
        Ok(PlannedCell {
            plan,
            area,
            compiled,
            performance: candidate.performance,
        })
    }
}

/// The objective-dependent half of one candidate's assessment, shared
/// by every scenario with that objective: the plan, its areas and the
/// compiled production program cost patches apply to.
#[derive(Debug, Clone)]
struct PlannedCell {
    plan: BuildUpPlan,
    area: AreaBreakdown,
    compiled: CompiledFlow,
    performance: f64,
}

/// One scenario of a [`TradeStudy::run_scenarios`] batch: overrides for
/// the study's selection objective, figure-of-merit weights, and/or the
/// cost model itself (as patches on each candidate's compiled
/// production program).
#[derive(Debug, Clone, Default)]
pub struct StudyScenario {
    /// Scenario label, appended to the report name (empty = baseline).
    pub name: String,
    /// Objective override (`None` uses the study's objective).
    pub objective: Option<SelectionObjective>,
    /// Weight override (`None` uses the study's weights).
    pub weights: Option<FomWeights>,
    /// Cost-model patch applied to every candidate's compiled flow
    /// (`None` evaluates the unpatched program). Directives name slots
    /// by their stage/part path — e.g. `"functional test"` or
    /// `"chip assembly/ASIC"`; scenarios with equal patches share the
    /// memoized cost evaluation.
    pub patch: Option<Vec<PatchDirective>>,
}

impl StudyScenario {
    /// The study's own configuration, unmodified.
    pub fn baseline() -> StudyScenario {
        StudyScenario::default()
    }

    /// A named scenario with no overrides yet.
    pub fn named(name: impl Into<String>) -> StudyScenario {
        StudyScenario {
            name: name.into(),
            ..StudyScenario::default()
        }
    }

    /// Override the selection objective.
    pub fn with_objective(mut self, objective: SelectionObjective) -> StudyScenario {
        self.objective = Some(objective);
        self
    }

    /// Override the figure-of-merit weights.
    pub fn with_weights(mut self, weights: FomWeights) -> StudyScenario {
        self.weights = Some(weights);
        self
    }

    /// Patch the cost model: the directives are applied to every
    /// candidate's compiled production program before the analytic
    /// evaluation.
    pub fn with_patch(mut self, patch: Vec<PatchDirective>) -> StudyScenario {
        self.patch = Some(patch);
        self
    }
}

/// The full assessment of one candidate.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// The selected plan (step 1).
    pub plan: BuildUpPlan,
    /// The sized areas (step 3).
    pub area: AreaBreakdown,
    /// The cost report (step 4).
    pub cost: CostReport,
    /// The performance score (step 2, supplied).
    pub performance: f64,
}

/// The outcome of a [`TradeStudy`].
#[derive(Debug, Clone)]
pub struct StudyReport {
    name: String,
    rows: Vec<StudyRow>,
    decision: DecisionTable,
}

impl StudyReport {
    /// Study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-candidate assessments, in registration order.
    pub fn rows(&self) -> &[StudyRow] {
        &self.rows
    }

    /// The ranked decision (step 5).
    pub fn decision(&self) -> &DecisionTable {
        &self.decision
    }

    /// The per-candidate assessment as a typed artifact table
    /// (selection counts, module area, cost, performance).
    pub fn artifact_table(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        self.rows.iter().fold(
            ipass_report::Table::new(format!("trade study: {}", self.name))
                .text_column("candidate")
                .integer_column("SMDs")
                .integer_column("IPs")
                .integer_column("dies")
                .numeric_column("module [mm²]", 0)
                .numeric_column("cost", 2)
                .numeric_column("perf", 2),
            |t, row| {
                t.row(vec![
                    Cell::text(row.plan.buildup().to_string()),
                    Cell::int(row.plan.smd_placements() as i64),
                    Cell::int(row.plan.integrated_count() as i64),
                    Cell::int(row.plan.die_count() as i64),
                    Cell::num(row.area.module_area.mm2()),
                    Cell::num(row.cost.final_cost_per_shipped().units()),
                    Cell::num(row.performance),
                ])
            },
        )
    }

    /// Render the study: the candidate table plus the decision table
    /// (both through the artifact pipeline's aligned txt sink).
    pub fn render(&self) -> String {
        let mut out = self.artifact_table().to_txt();
        out.push('\n');
        out.push_str(&self.decision.render());
        out
    }
}

impl fmt::Display for StudyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One candidate's slice of a [`TradeStudy::run_exploration`].
#[derive(Debug, Clone)]
pub struct CandidateExploration {
    /// The candidate (build-up) name.
    pub name: String,
    /// The full analytic screen and its Pareto frontier over
    /// *(final cost ↓, shipped fraction ↑)*.
    pub exploration: Exploration,
    /// The cheapest frontier cost — what the decision table ranks on.
    pub best_cost: Money,
    /// Frontier diff against the reference candidate (`None` for the
    /// reference itself): which of this candidate's trade-off points
    /// the reference beats outright, and vice versa.
    pub vs_reference: Option<FrontierDiff>,
}

/// The outcome of [`TradeStudy::run_exploration`]: per-candidate
/// frontiers plus the decision table ranked at each candidate's
/// frontier-best cost.
#[derive(Debug, Clone)]
pub struct StudyExploration {
    name: String,
    /// Per-candidate explorations, in registration order (the first is
    /// the reference).
    pub candidates: Vec<CandidateExploration>,
    /// The ranking at frontier-best costs.
    pub decision: DecisionTable,
}

impl StudyExploration {
    /// Study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Render the exploration: per-candidate frontier summaries plus
    /// the decision table.
    pub fn render(&self) -> String {
        let mut out = format!("trade-study exploration: {}\n", self.name);
        for c in &self.candidates {
            out.push_str(&format!(
                "  {:<26} frontier {:>3} / {:>5} points, best cost {:>9.2}",
                c.name,
                c.exploration.frontier.members().len(),
                c.exploration.points.len(),
                c.best_cost.units(),
            ));
            if let Some(diff) = &c.vs_reference {
                out.push_str(&format!(
                    "  (vs reference: {}/{} survive, reference {}/{})",
                    diff.left_surviving.len(),
                    diff.left_total,
                    diff.right_surviving.len(),
                    diff.right_total,
                ));
            }
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&self.decision.render());
        out
    }
}

impl fmt::Display for StudyExploration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bom::Realization;
    use crate::flowbuild::{ChipCost, YieldBasis};
    use crate::technology::PassivePolicy;
    use ipass_units::{Area, Money, Probability};

    fn card(pcb: bool) -> CostInputs {
        CostInputs {
            substrate_cost_per_cm2: Money::new(if pcb { 0.1 } else { 2.25 }),
            substrate_fab_yield_per_cm2: None,
            substrate_yield: Probability::clamped(if pcb { 0.9999 } else { 0.9 }),
            chips: vec![ChipCost::new(
                "ASIC",
                Money::new(20.0),
                Probability::clamped(0.99),
            )],
            chip_attach_cost_per_die: Money::new(0.1),
            chip_attach_yield: Probability::clamped(0.99),
            wire_bond_cost_per_bond: Money::new(0.01),
            wire_bond_yield: Probability::clamped(0.9999),
            smd_parts_cost_override: None,
            smd_attach_cost_per_part: Money::new(0.01),
            smd_attach_yield: Probability::clamped(0.9999),
            packaging: (!pcb).then(|| (Money::new(3.5), Probability::clamped(0.968))),
            final_test_cost: Money::new(2.0),
            fault_coverage: Probability::clamped(0.99),
            yield_basis: YieldBasis::PerStep,
        }
    }

    fn bom() -> Vec<BomItem> {
        vec![
            BomItem::die("ASIC")
                .with_packaged(Realization::new(Area::from_mm2(400.0), Money::new(25.0)))
                .with_flip_chip(Realization::new(Area::from_mm2(36.0), Money::new(20.0))),
            BomItem::passive("bias R", 30)
                .with_smd(Realization::new(Area::from_mm2(3.75), Money::new(0.02)))
                .with_integrated(Realization::new(Area::from_mm2(0.2), Money::ZERO)),
        ]
    }

    fn study() -> TradeStudy {
        TradeStudy::new("unit test", bom())
            .candidate(StudyCandidate::new(
                BuildUp::pcb_reference(),
                card(true),
                1.0,
            ))
            .candidate(StudyCandidate::new(
                BuildUp::mcm_flip_chip(PassivePolicy::Optimized),
                card(false),
                0.9,
            ))
    }

    #[test]
    fn runs_end_to_end() {
        let report = study().run().unwrap();
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.decision().rows().len(), 2);
        assert_eq!(report.name(), "unit test");
        // The reference row normalizes to 1.
        assert_eq!(report.decision().rows()[0].size_ratio, 1.0);
        let text = report.render();
        assert!(text.contains("module") && text.contains("FoM"));
    }

    #[test]
    fn empty_study_is_an_error() {
        let err = TradeStudy::new("empty", bom()).run().unwrap_err();
        assert!(matches!(err, StudyError::NoCandidates));
    }

    #[test]
    fn plan_errors_propagate() {
        let study = TradeStudy::new("bad", vec![BomItem::passive("ghost", 1)]).candidate(
            StudyCandidate::new(BuildUp::pcb_reference(), card(true), 1.0),
        );
        assert!(matches!(study.run(), Err(StudyError::Plan(_))));
    }

    #[test]
    fn scenario_batch_shares_subresults_and_reranks() {
        let batch = study()
            .run_scenarios(&[
                StudyScenario::baseline(),
                StudyScenario::named("perf-heavy").with_weights(FomWeights {
                    performance: 10.0,
                    size: 1.0,
                    cost: 1.0,
                }),
            ])
            .unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].name(), "unit test");
        assert_eq!(batch[1].name(), "unit test / perf-heavy");
        // Same objective ⇒ identical memoized plans and cost rows.
        for (a, b) in batch[0].rows().iter().zip(batch[1].rows().iter()) {
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.area.module_area, b.area.module_area);
        }
        // Different weights ⇒ different ranking of the MCM candidate.
        let base_fom = batch[0].decision().rows()[1].fom;
        let heavy_fom = batch[1].decision().rows()[1].fom;
        assert!(heavy_fom < base_fom);
        // Batch result matches individual runs exactly.
        let solo = study().run().unwrap();
        assert_eq!(solo.decision().rows()[1].fom, base_fom);
    }

    #[test]
    fn empty_scenario_list_is_empty() {
        assert!(study().run_scenarios(&[]).unwrap().is_empty());
    }

    #[test]
    fn patched_scenarios_change_cost_without_replanning() {
        let quadruple_test = || {
            vec![PatchDirective::ScaleCost {
                slot: "functional test".into(),
                factor: 4.0,
            }]
        };
        let batch = study()
            .run_scenarios(&[
                StudyScenario::baseline(),
                StudyScenario::named("pricey test").with_patch(quadruple_test()),
                StudyScenario::named("same patch again").with_patch(quadruple_test()),
            ])
            .unwrap();
        // The plan/area half is shared with the baseline; only the cost
        // moves.
        for (a, b) in batch[0].rows().iter().zip(batch[1].rows().iter()) {
            assert_eq!(a.area.module_area, b.area.module_area);
            assert!(b.cost.final_cost_per_shipped() > a.cost.final_cost_per_shipped());
        }
        // Equal patches collapse into one memoized cost evaluation.
        for (b, c) in batch[1].rows().iter().zip(batch[2].rows().iter()) {
            assert_eq!(b.cost, c.cost);
        }
        // The patched cell equals rebuilding the flow with the scaled
        // card — the patch is a shortcut, not an approximation.
        let mut scaled_card = card(true);
        scaled_card.final_test_cost = Money::new(8.0);
        let plan = BuildUp::pcb_reference()
            .plan(&bom(), SelectionObjective::MinArea)
            .unwrap();
        let rebuilt = plan
            .production_flow(plan.area().substrate_area, &scaled_card)
            .unwrap()
            .analyze()
            .unwrap();
        assert_eq!(
            batch[1].rows()[0].cost.final_cost_per_shipped(),
            rebuilt.final_cost_per_shipped()
        );
    }

    #[test]
    fn patch_naming_an_unknown_slot_fails_the_study() {
        let err = study()
            .run_scenarios(&[StudyScenario::named("broken").with_patch(vec![
                PatchDirective::ScaleCost {
                    slot: "ghost stage".into(),
                    factor: 2.0,
                },
            ])])
            .unwrap_err();
        assert!(matches!(
            err,
            StudyError::Flow(FlowError::UnknownPatchSlot { .. })
        ));
    }

    #[test]
    fn exploration_ranks_on_frontier_best_cost() {
        use ipass_explore::Levels;

        let axes = vec![
            FlowAxis::volume(Levels::linspace(1_000.0, 100_000.0, 6)),
            FlowAxis::coverage("functional test", Levels::linspace(0.9, 0.999, 6)),
        ];
        let result = study().run_exploration(&axes, &SamplerSpec::Grid).unwrap();
        assert_eq!(result.candidates.len(), 2);
        assert_eq!(result.decision.rows().len(), 2);
        for c in &result.candidates {
            assert_eq!(c.exploration.points.len(), 36);
            assert!(!c.exploration.frontier.members().is_empty());
            // Frontier-best really is the minimum cost over the screen.
            let min = c
                .exploration
                .points
                .iter()
                .map(|p| p.objectives[0])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(c.best_cost.units(), min);
        }
        // The reference carries no self-diff; the challenger does.
        assert!(result.candidates[0].vs_reference.is_none());
        assert!(result.candidates[1].vs_reference.is_some());
        let text = result.render();
        assert!(text.contains("frontier") && text.contains("FoM"));
        // Thread count never changes the outcome.
        let serial = study()
            .with_executor(Executor::serial())
            .run_exploration(&axes, &SamplerSpec::Grid)
            .unwrap();
        for (a, b) in result.candidates.iter().zip(serial.candidates.iter()) {
            assert_eq!(a.exploration.points, b.exploration.points);
            assert_eq!(a.best_cost, b.best_cost);
        }
    }

    #[test]
    fn exploration_rejects_unknown_slots_and_empty_studies() {
        use ipass_explore::Levels;

        let axes = vec![FlowAxis::cost_scale(
            "ghost stage",
            Levels::linspace(0.5, 1.5, 3),
        )];
        let err = study()
            .run_exploration(&axes, &SamplerSpec::Grid)
            .unwrap_err();
        assert!(matches!(
            err,
            StudyError::Explore(ExploreError::Flow(FlowError::UnknownPatchSlot { .. }))
        ));
        let err = TradeStudy::new("empty", bom())
            .run_exploration(&axes, &SamplerSpec::Grid)
            .unwrap_err();
        assert!(matches!(err, StudyError::NoCandidates));
    }

    #[test]
    fn serial_executor_matches_parallel() {
        let parallel = study().run().unwrap();
        let serial = study()
            .with_executor(ipass_sim::Executor::serial())
            .run()
            .unwrap();
        assert_eq!(
            parallel.decision().rows().len(),
            serial.decision().rows().len()
        );
        for (a, b) in parallel
            .decision()
            .rows()
            .iter()
            .zip(serial.decision().rows().iter())
        {
            assert_eq!(a.fom, b.fom);
        }
    }

    #[test]
    fn weights_are_applied() {
        let default = study().run().unwrap();
        let perf_heavy = study()
            .with_weights(FomWeights {
                performance: 10.0,
                size: 1.0,
                cost: 1.0,
            })
            .run()
            .unwrap();
        // With heavy performance weighting the 0.9-perf MCM drops.
        let d = default.decision().rows()[1].fom;
        let p = perf_heavy.decision().rows()[1].fom;
        assert!(p < d);
    }
}
