//! The `Healer` trait: the common interface of Xheal and every baseline.
//!
//! The insert/delete/repair model (Figure 1 of the paper) drives any healer
//! through the same two adversarial events; workloads and experiments are
//! written against this trait so Xheal and the baselines are interchangeable.

use xheal_graph::{Graph, NodeId};

use crate::batch::BatchVictim;
use crate::error::HealError;
use crate::heal::Xheal;

/// A self-healing strategy reacting to adversarial node insertions and
/// deletions.
pub trait Healer {
    /// Human-readable strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The current healed network graph `G_t`.
    fn graph(&self) -> &Graph;

    /// Handles an adversarial insertion of `v` with black edges to
    /// `neighbors`.
    ///
    /// # Errors
    ///
    /// Implementations reject duplicate nodes and unknown neighbors.
    fn on_insert(&mut self, v: NodeId, neighbors: &[NodeId]) -> Result<(), HealError>;

    /// Handles an adversarial deletion of `v` and repairs the network.
    ///
    /// # Errors
    ///
    /// Implementations reject deletion of absent nodes.
    fn on_delete(&mut self, v: NodeId) -> Result<(), HealError>;

    /// Handles the simultaneous adversarial deletion of several nodes.
    ///
    /// The default falls back to deleting them one at a time — a *sequential
    /// approximation* that lets every baseline run burst workloads; healers
    /// with a genuine simultaneous-deletion repair (Xheal's batch extension)
    /// override it.
    ///
    /// # Errors
    ///
    /// Implementations reject absent or duplicated victims. The default
    /// validates the whole burst with [`BatchVictim::validate`] before
    /// deleting anything.
    fn on_delete_batch(&mut self, victims: &[NodeId]) -> Result<(), HealError> {
        BatchVictim::validate(self.graph(), victims)?;
        for &v in victims {
            self.on_delete(v)?;
        }
        Ok(())
    }
}

impl Healer for Xheal {
    fn name(&self) -> &'static str {
        "xheal"
    }

    fn graph(&self) -> &Graph {
        Xheal::graph(self)
    }

    fn on_insert(&mut self, v: NodeId, neighbors: &[NodeId]) -> Result<(), HealError> {
        self.heal_insert(v, neighbors)
    }

    fn on_delete(&mut self, v: NodeId) -> Result<(), HealError> {
        self.heal_delete(v).map(|_| ())
    }

    fn on_delete_batch(&mut self, victims: &[NodeId]) -> Result<(), HealError> {
        self.heal_delete_batch(victims).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XhealConfig;
    use xheal_graph::generators;

    #[test]
    fn xheal_implements_healer() {
        let mut h: Box<dyn Healer> =
            Box::new(Xheal::new(&generators::star(6), XhealConfig::default()));
        assert_eq!(h.name(), "xheal");
        h.on_delete(NodeId::new(0)).unwrap();
        assert!(xheal_graph::components::is_connected(h.graph()));
        assert!(h.on_delete(NodeId::new(0)).is_err());
    }
}
