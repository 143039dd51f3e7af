//! The binary-heap successive-shortest-path solver that [`FlowGraph`]
//! replaced, kept as the reference its augmenting paths are checked against:
//! a lazy-deletion `BinaryHeap<Reverse<(distance, node)>>` per Dijkstra over a
//! `Vec<Vec<u32>>` adjacency.

use crate::{FlowGraph, McmfResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uopcache_model::rng::{Prng, Rng};

struct Edge {
    to: u32,
    cap: i64,
    cost: i64,
}

/// The reference network; edge `i` of [`ReferenceGraph::add_edge`] is
/// `edges[2 * i]`, its residual twin `edges[2 * i + 1]`.
struct ReferenceGraph {
    edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
    is_forward_dag: bool,
}

impl ReferenceGraph {
    fn new(nodes: usize) -> Self {
        ReferenceGraph {
            edges: Vec::new(),
            adj: (0..nodes).map(|_| Vec::new()).collect(),
            is_forward_dag: true,
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) {
        if from >= to {
            self.is_forward_dag = false;
        }
        let id = u32::try_from(self.edges.len()).expect("small test graphs");
        self.edges.push(Edge {
            to: u32::try_from(to).expect("small test graphs"),
            cap,
            cost,
        });
        self.edges.push(Edge {
            to: u32::try_from(from).expect("small test graphs"),
            cap: 0,
            cost: -cost,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
    }

    fn flow_on(&self, edge: usize) -> i64 {
        self.edges[2 * edge + 1].cap
    }

    fn min_cost_flow(&mut self, source: usize, sink: usize, max_flow: i64) -> McmfResult {
        let n = self.adj.len();
        let mut potential = if self.edges.iter().all(|e| e.cost >= 0) {
            vec![0i64; n]
        } else if self.is_forward_dag {
            self.dag_potentials(source)
        } else {
            self.bellman_ford_potentials(source)
        };

        let mut total = McmfResult::default();
        let mut dist = vec![i64::MAX; n];
        let mut par_edge = vec![u32::MAX; n];

        while total.flow < max_flow {
            dist.fill(i64::MAX);
            par_edge.fill(u32::MAX);
            dist[source] = 0;
            let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
            heap.push(Reverse((
                0,
                u32::try_from(source).expect("small test graphs"),
            )));
            while let Some(Reverse((d, u))) = heap.pop() {
                let u = u as usize;
                if d > dist[u] {
                    continue;
                }
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap <= 0 {
                        continue;
                    }
                    let v = e.to as usize;
                    if potential[u] == i64::MAX || potential[v] == i64::MAX {
                        continue;
                    }
                    let nd = d + e.cost + potential[u] - potential[v];
                    if nd < dist[v] {
                        dist[v] = nd;
                        par_edge[v] = eid;
                        heap.push(Reverse((nd, e.to)));
                    }
                }
            }
            if dist[sink] == i64::MAX {
                break;
            }
            for v in 0..n {
                if dist[v] != i64::MAX {
                    potential[v] = potential[v].saturating_add(dist[v]);
                }
            }
            let mut push = max_flow - total.flow;
            let mut v = sink;
            while v != source {
                let eid = par_edge[v] as usize;
                push = push.min(self.edges[eid].cap);
                v = self.edges[eid ^ 1].to as usize;
            }
            let mut v = sink;
            let mut path_cost = 0;
            while v != source {
                let eid = par_edge[v] as usize;
                self.edges[eid].cap -= push;
                self.edges[eid ^ 1].cap += push;
                path_cost += self.edges[eid].cost;
                v = self.edges[eid ^ 1].to as usize;
            }
            total.flow += push;
            total.cost += push * path_cost;
        }
        total
    }

    fn dag_potentials(&self, source: usize) -> Vec<i64> {
        let n = self.adj.len();
        let mut dist = vec![i64::MAX; n];
        dist[source] = 0;
        for u in 0..n {
            if dist[u] == i64::MAX {
                continue;
            }
            for &eid in &self.adj[u] {
                let e = &self.edges[eid as usize];
                let v = e.to as usize;
                if e.cap <= 0 || v <= u {
                    continue;
                }
                dist[v] = dist[v].min(dist[u] + e.cost);
            }
        }
        dist
    }

    fn bellman_ford_potentials(&self, source: usize) -> Vec<i64> {
        let n = self.adj.len();
        let mut dist = vec![i64::MAX; n];
        let mut in_queue = vec![false; n];
        dist[source] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        in_queue[source] = true;
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &eid in &self.adj[u] {
                let e = &self.edges[eid as usize];
                if e.cap <= 0 || dist[u] == i64::MAX {
                    continue;
                }
                let v = e.to as usize;
                let nd = dist[u] + e.cost;
                if nd < dist[v] {
                    dist[v] = nd;
                    if !in_queue[v] {
                        queue.push_back(v);
                        in_queue[v] = true;
                    }
                }
            }
        }
        dist
    }
}

/// One min-cost-flow instance: `(from, to, cap, cost)` edges in insertion
/// order, routed from node 0 to the last node.
struct Instance {
    nodes: usize,
    edges: Vec<(usize, usize, i64, i64)>,
    max_flow: i64,
}

/// Solves `inst` on `graph` (reset first, so every solver buffer is reused
/// from the previous instance) and on a fresh reference, and asserts the
/// same result and the same flow on every edge.
fn assert_same_paths(graph: &mut FlowGraph, inst: &Instance, what: &str) {
    graph.reset(inst.nodes);
    let mut reference = ReferenceGraph::new(inst.nodes);
    let ids: Vec<_> = inst
        .edges
        .iter()
        .map(|&(u, v, cap, cost)| {
            reference.add_edge(u, v, cap, cost);
            graph.add_edge(u, v, cap, cost)
        })
        .collect();
    let sink = inst.nodes - 1;
    let want = reference.min_cost_flow(0, sink, inst.max_flow);
    let got = graph.min_cost_flow(0, sink, inst.max_flow);
    assert_eq!(got, want, "{what}: result");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            graph.flow_on(id),
            reference.flow_on(i),
            "{what}: flow on edge {i} {:?}",
            inst.edges[i]
        );
    }
}

/// Per-unit interval costs: a handful of values, so equal-cost paths
/// and equal distances are the norm, as in FOO's scaled benefits.
const COSTS: [i64; 4] = [-840, -420, -280, -210];

/// A FOO interval network: a chain of capacity `ways` with cost 0,
/// forward interval edges of capacity 1..=4 (some parallel to a chain
/// link), and `ways` units of flow, 2..=12.
fn foo_shaped(rng: &mut Prng) -> Instance {
    let nodes = rng.gen_range(2..=160usize);
    let ways = rng.gen_range(2..=12i64);
    let mut intervals = Vec::new();
    for _ in 0..rng.gen_range(0..=2 * nodes) {
        let from = rng.gen_range(0..nodes - 1);
        let room = nodes - 1 - from;
        let span = if rng.gen_bool(0.2) {
            1
        } else {
            let reach = [3, 24, room][rng.gen_range(0..3usize)].min(room);
            rng.gen_range(1..=reach)
        };
        let cap = rng.gen_range(1..=4i64);
        let cost = COSTS[rng.gen_range(0..COSTS.len())];
        intervals.push((from, from + span, cap, cost));
    }
    let chain = (0..nodes - 1).map(|k| (k, k + 1, ways, 0));
    let edges = if rng.gen_bool(0.5) {
        // FOO's own order: the chain, then intervals by closing access.
        intervals.sort_by_key(|iv| iv.1);
        chain.chain(intervals).collect()
    } else {
        let mut all: Vec<_> = chain.chain(intervals).collect();
        for i in (1..all.len()).rev() {
            all.swap(i, rng.gen_range(0..=i));
        }
        all
    };
    Instance {
        nodes,
        edges,
        max_flow: ways,
    }
}

/// A random general network with backward edges (so the potentials
/// come from Bellman–Ford) and negative costs but no negative cycles:
/// each cost is a small non-negative weight shifted by node potentials.
fn general(rng: &mut Prng) -> Instance {
    let nodes = rng.gen_range(2..=30usize);
    let zero_costs = rng.gen_bool(0.1);
    let shift: Vec<i64> = (0..nodes)
        .map(|_| {
            if zero_costs {
                0
            } else {
                rng.gen_range(-6..=6i64)
            }
        })
        .collect();
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..=4 * nodes) {
        let u = rng.gen_range(0..nodes);
        let v = rng.gen_range(0..nodes);
        if u == v {
            continue;
        }
        let weight = if zero_costs {
            0
        } else {
            rng.gen_range(0..=3i64)
        };
        let cap = rng.gen_range(0..=5i64);
        edges.push((u, v, cap, weight + shift[v] - shift[u]));
    }
    Instance {
        nodes,
        edges,
        max_flow: rng.gen_range(1..=10i64),
    }
}

#[test]
fn same_augmenting_paths_as_the_binary_heap_solver_on_foo_networks() {
    let mut rng = Prng::seed_from_u64(0xF00);
    let mut graph = FlowGraph::new(0);
    for case in 0..400 {
        let inst = foo_shaped(&mut rng);
        assert_same_paths(&mut graph, &inst, &format!("foo case {case}"));
    }
}

#[test]
fn same_augmenting_paths_as_the_binary_heap_solver_on_general_graphs() {
    let mut rng = Prng::seed_from_u64(0x6E7);
    let mut graph = FlowGraph::new(0);
    for case in 0..400 {
        let inst = general(&mut rng);
        assert_same_paths(&mut graph, &inst, &format!("general case {case}"));
    }
}
