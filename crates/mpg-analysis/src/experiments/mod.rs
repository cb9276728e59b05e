//! Experiment registry.

use crate::table::Table;

mod e01_phases;
mod e02_blocking;
mod e03_nonblocking;
mod e04_collective;
mod e05_dot;
mod e06_token_ring;
mod e07_window;
mod e08_des;
mod e09_lln;
mod e10_micro;
mod e11_prediction;
mod e12_reduction;
mod e13_sensitivity;
mod e14_absorption;
mod e15_critical;
mod e16_parameterization;

/// Everything an experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id (`e1` … `e16`).
    pub id: &'static str,
    /// Human title naming the paper artifact.
    pub title: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form notes (renders, warnings, file paths).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders tables and notes as text.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// One reproducible experiment.
pub trait Experiment: Sync {
    /// Short id (`e1` … `e16`).
    fn id(&self) -> &'static str;

    /// Human title naming the paper artifact.
    fn title(&self) -> &'static str;

    /// Runs the experiment. `quick` shrinks problem sizes for CI.
    fn run(&self, quick: bool) -> ExperimentResult;
}

/// All experiments in paper order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e01_phases::Phases),
        Box::new(e02_blocking::BlockingPair),
        Box::new(e03_nonblocking::NonblockingPair),
        Box::new(e04_collective::CollectiveModel),
        Box::new(e05_dot::DotExport),
        Box::new(e06_token_ring::TokenRingSweep),
        Box::new(e07_window::WindowedStreaming),
        Box::new(e08_des::DesComparison),
        Box::new(e09_lln::LlnConvergence),
        Box::new(e10_micro::MicroSignatures),
        Box::new(e11_prediction::CrossPlatform),
        Box::new(e12_reduction::NoiseReduction),
        Box::new(e13_sensitivity::Sensitivity),
        Box::new(e14_absorption::AbsorptionAblation),
        Box::new(e15_critical::CriticalRegions),
        Box::new(e16_parameterization::Parameterization),
    ]
}

/// Looks an experiment up by id.
pub fn by_id(id: &str) -> Option<Box<dyn Experiment>> {
    all_experiments().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_sixteen_unique_ids() {
        let exps = all_experiments();
        assert_eq!(exps.len(), 16);
        let mut ids: Vec<&str> = exps.iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn lookup_by_id() {
        assert!(by_id("e6").is_some());
        assert!(by_id("e99").is_none());
    }

    /// Every experiment must run in quick mode and produce at least one
    /// non-empty table.
    #[test]
    fn all_experiments_run_quick() {
        for e in all_experiments() {
            let r = e.run(true);
            assert_eq!(r.id, e.id());
            assert!(
                r.tables.iter().any(|t| !t.is_empty()),
                "{} produced no data",
                e.id()
            );
            // Rendering never panics.
            let _ = r.render();
        }
    }
}
