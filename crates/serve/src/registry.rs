//! The flow registry: named flows, compiled once at registration.
//!
//! Compilation (validation, label indexing, op lowering) is the
//! expensive, shareable step of the compile-once / query-many model;
//! [`FlowRegistry::register`] performs it exactly once per
//! registration and keeps the outcome, so every request afterwards is
//! a name lookup plus an `Arc` clone. A flow that fails to compile
//! keeps its [`FlowError`] and answers each request for it with that
//! error. The registry counts compiles and successful lookups; the
//! `stats` verb reports them as the compiled-program cache's misses
//! and hits.

use crate::protocol::{ErrorCode, ServeError};
use ipass_moe::{CompiledFlow, Flow, FlowError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named, registered flow and the outcome of compiling it.
#[derive(Debug)]
struct Entry {
    name: String,
    compiled: Result<Arc<CompiledFlow>, FlowError>,
}

/// Registered flows with their compiled programs.
#[derive(Debug, Default)]
pub struct FlowRegistry {
    entries: Vec<Entry>,
    /// Compiles performed by [`FlowRegistry::register`].
    compiles: u64,
    /// Successful [`FlowRegistry::compiled`] lookups.
    lookups: AtomicU64,
}

impl FlowRegistry {
    /// An empty registry.
    pub fn new() -> FlowRegistry {
        FlowRegistry::default()
    }

    /// Compile `flow` and register it under `name` (replaces an
    /// existing entry of the same name — last registration wins, like
    /// a patch slot write).
    pub fn register(&mut self, name: impl Into<String>, flow: Flow) -> &mut FlowRegistry {
        let name = name.into();
        let compiled = flow.compiled().map(Arc::new);
        self.compiles += 1;
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry { name, compiled });
        self
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The compiled program registered under `name` (a shared handle).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownFlow`] for unregistered names,
    /// [`ErrorCode::EngineError`] when the flow failed to compile at
    /// registration.
    pub fn compiled(&self, name: &str) -> Result<Arc<CompiledFlow>, ServeError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| {
                ServeError::new(
                    ErrorCode::UnknownFlow,
                    format!("no flow named {name:?} is registered (try \"list\")"),
                )
            })?;
        let compiled = entry
            .compiled
            .clone()
            .map_err(|e| ServeError::new(ErrorCode::EngineError, e.to_string()))?;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        Ok(compiled)
    }

    /// Compiles performed so far (one per registration).
    pub(crate) fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Successful [`FlowRegistry::compiled`] lookups so far.
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipass_moe::{CostCategory, Line, Part, Process, StepCost, YieldModel};
    use ipass_units::{Money, Probability};

    fn toy(name: &str, cost: f64) -> Flow {
        Flow::new(
            Line::builder(
                name,
                Part::new("c", CostCategory::Substrate)
                    .with_cost(StepCost::fixed(Money::new(cost))),
            )
            .process(Process::new("p").with_yield(YieldModel::flat(Probability::new(0.9).unwrap())))
            .build()
            .unwrap(),
        )
    }

    #[test]
    fn compiles_once_and_counts_hits() {
        let mut reg = FlowRegistry::new();
        reg.register("a", toy("a", 1.0))
            .register("b", toy("b", 2.0));
        assert_eq!(reg.names(), vec!["a", "b"]);
        // Both flows compiled at registration, before any lookup.
        assert_eq!((reg.lookups(), reg.compiles()), (0, 2));
        let first = reg.compiled("a").unwrap();
        let again = reg.compiled("a").unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((reg.lookups(), reg.compiles()), (2, 2));
        // An unknown flow counts nothing.
        assert!(reg.compiled("ghost").is_err());
        assert_eq!((reg.lookups(), reg.compiles()), (2, 2));
    }

    #[test]
    fn reregistration_replaces_and_rehashes() {
        let mut reg = FlowRegistry::new();
        reg.register("a", toy("a", 1.0));
        let before = reg.compiled("a").unwrap().analyze().unwrap();
        reg.register("a", toy("a", 5.0));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.compiles(), 2);
        let after = reg.compiled("a").unwrap().analyze().unwrap();
        assert!(after.final_cost_per_shipped() > before.final_cost_per_shipped());
    }
}
