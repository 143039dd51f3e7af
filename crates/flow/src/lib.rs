//! # uopcache-flow
//!
//! A min-cost max-flow solver used by the flow-based offline optimal (FOO)
//! replacement policy and its FLACK extension.
//!
//! The solver implements **successive shortest paths with Johnson potentials**:
//! after an initial potential computation (a single topological-order
//! relaxation when the graph is a DAG with edges from lower to higher node
//! indices — which the FOO interval network always is — or Bellman–Ford
//! otherwise), every augmentation runs Dijkstra on reduced costs.
//!
//! The network is stored once, as flat CSR arcs with inline twin indices,
//! and Dijkstra runs on a two-tier queue: a monotone radix heap above the
//! current distance level and a min-heap by node index at it. The queue
//! settles nodes in exactly the order of the classic lazy-deletion binary
//! heap, so ties between equal-cost paths break the same way and FOO's
//! decisions do not depend on the queue; see [`graph`] for the layout, the
//! queue and that tie-break invariant.
//!
//! Costs may be negative (FOO rewards caching an interval with a negative
//! cost); capacities must be non-negative.
//!
//! # Examples
//!
//! ```
//! use uopcache_flow::FlowGraph;
//!
//! // Two parallel paths from 0 to 3 with different costs.
//! let mut g = FlowGraph::new(4);
//! let cheap = g.add_edge(0, 1, 5, 1);
//! g.add_edge(1, 3, 5, 1);
//! let pricey = g.add_edge(0, 2, 5, 4);
//! g.add_edge(2, 3, 5, 4);
//! let result = g.min_cost_flow(0, 3, 7);
//! assert_eq!(result.flow, 7);
//! assert_eq!(result.cost, 5 * 2 + 2 * 8); // 5 units cheap, 2 units pricey
//! assert_eq!(g.flow_on(cheap), 5);
//! assert_eq!(g.flow_on(pricey), 2);
//! ```

pub mod graph;
#[cfg(test)]
mod reference;

pub use graph::{EdgeId, FlowGraph, McmfResult};
