//! The three workloads and their inputs. Every request body is generated
//! here from the run's seed, with the benchmark's own generators and
//! random source, so the inputs stay fixed while the program changes.

use std::fmt::Write as _;

/// Default `cache_node_budget` of `ampc-serve`: the cache charges each
/// entry its nodes plus twice its edges.
pub const DEFAULT_CACHE_NODE_BUDGET: usize = 1 << 23;

/// The workloads, by name.
pub const NAMES: [&str; 3] = [
    "forest100k-2a1",
    "powerlaw25k-m8-derand",
    "forest100k-cached",
];

/// The query of the default request: Theorem 1.3's `(2+ε)α+1` variant.
const TWO_ALPHA_QUERY: &str = "algorithm=two-alpha-plus-one&alpha=2";

/// What kind of graph a workload posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Union of `k` random spanning trees on `n` nodes (arboricity ≤ `k`).
    ForestUnion { n: usize, k: usize },
    /// Preferential attachment: node `v` attaches to up to `m0` earlier
    /// nodes, chosen by degree (arboricity ≤ `m0`, heavy-tailed degrees).
    PowerLaw { n: usize, m0: usize },
}

/// One workload: a graph family, a request and a client count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    /// Query string of `POST /v1/color` (without `wait=1`).
    pub query: &'static str,
    /// Concurrent client connections in the closed loop.
    pub clients: usize,
    /// `(2+ε)α+1` with the default `ε = 0.5`, checked on every response of
    /// the `two-alpha-plus-one` variant.
    pub palette_bound: Option<usize>,
    /// `Some(k)`: the timed loop resubmits a fixed set of `k` graphs, all
    /// computed during warm-up. `None`: every timed job is a new graph.
    pub cached_set: Option<usize>,
    /// Distinct warm-up jobs before the timed window (ignored with a
    /// cached set, whose warm-up computes the set).
    pub warmup_jobs: usize,
    /// New graphs generated per second of timed window; the window ends
    /// early if a faster program uses them all up.
    pub jobs_per_second_budget: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let forest = Family::ForestUnion { n: 100_000, k: 2 };
        Some(match name {
            "forest100k-2a1" => Workload {
                name: "forest100k-2a1",
                family: forest,
                query: TWO_ALPHA_QUERY,
                clients: 2,
                palette_bound: Some(6),
                cached_set: None,
                warmup_jobs: 4,
                jobs_per_second_budget: 4,
            },
            "powerlaw25k-m8-derand" => Workload {
                name: "powerlaw25k-m8-derand",
                family: Family::PowerLaw { n: 25_000, m0: 8 },
                query: "algorithm=large-arboricity&alpha=8&runtime=parallel&threads=2",
                clients: 1,
                palette_bound: None,
                cached_set: None,
                warmup_jobs: 2,
                jobs_per_second_budget: 3,
            },
            "forest100k-cached" => Workload {
                name: "forest100k-cached",
                family: forest,
                query: TWO_ALPHA_QUERY,
                clients: 1,
                palette_bound: Some(6),
                cached_set: Some(4),
                warmup_jobs: 0,
                jobs_per_second_budget: 0,
            },
            _ => return None,
        })
    }

    /// Generates the inputs of one run: warm-up requests, then the timed
    /// requests (for a cached set, the same requests serve both).
    pub fn inputs(&self, seed: u64, seconds: u64, smoke: bool) -> Inputs {
        let (warmup, timed) = match self.cached_set {
            Some(set) => (set, set),
            None if smoke => (1, self.clients),
            None => (
                self.warmup_jobs,
                self.jobs_per_second_budget * seconds as usize + 2 * self.clients,
            ),
        };
        // Two generator threads; graph `index` depends only on the seed.
        let make = |phase: u64, count: usize| -> Vec<Request> {
            let one = |index: usize| {
                let mut rng = Rng::for_graph(seed, self.name, phase, index as u64);
                Request::post(self.query, &self.family.generate(&mut rng))
            };
            let half = count.div_ceil(2);
            std::thread::scope(|scope| {
                let second = scope.spawn(|| (half..count).map(one).collect::<Vec<_>>());
                let mut requests: Vec<Request> = (0..half).map(one).collect();
                requests.extend(second.join().expect("a generator thread panicked"));
                requests
            })
        };
        match self.cached_set {
            Some(_) => {
                let set = make(0, warmup);
                Inputs {
                    warmup: set.clone(),
                    timed: set,
                }
            }
            None => Inputs {
                warmup: make(0, warmup),
                timed: make(1, timed),
            },
        }
    }
}

/// The pre-serialized requests of one run.
pub struct Inputs {
    pub warmup: Vec<Request>,
    pub timed: Vec<Request>,
}

/// One `POST /v1/color?wait=1` request, serialized before the server
/// starts: the timed loop only writes these bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request line, headers and body.
    pub wire: Vec<u8>,
    /// Offset of the body in `wire`.
    pub body_start: usize,
}

impl Request {
    pub fn post(query: &str, edges: &EdgeList) -> Request {
        let body = edges.to_body();
        let mut wire = format!(
            "POST /v1/color?{query}&wait=1 HTTP/1.1\r\nHost: servebench\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        let body_start = wire.len();
        wire.extend_from_slice(&body);
        Request { wire, body_start }
    }

    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_start..]
    }
}

/// An undirected simple graph as a sorted list of `(u, v)` pairs, `u < v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    pub nodes: usize,
    pub edges: Vec<(u32, u32)>,
}

impl EdgeList {
    fn from_pairs(nodes: usize, mut edges: Vec<(u32, u32)>) -> EdgeList {
        for edge in &mut edges {
            if edge.0 > edge.1 {
                *edge = (edge.1, edge.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        EdgeList { nodes, edges }
    }

    /// The cost the result cache charges for this graph.
    pub fn cache_cost(&self) -> usize {
        self.nodes + 2 * self.edges.len()
    }

    /// The whitespace-separated edge list the service parses, one `u v`
    /// line per edge.
    pub fn to_body(&self) -> Vec<u8> {
        let mut body = String::with_capacity(self.edges.len() * 13);
        for &(u, v) in &self.edges {
            let _ = writeln!(body, "{u} {v}");
        }
        body.into_bytes()
    }

    /// Parses a body written by [`EdgeList::to_body`]: the benchmark's own
    /// reading of what the server received, used to check colorings.
    pub fn parse_body(body: &[u8]) -> Result<EdgeList, String> {
        let mut edges = Vec::new();
        let mut nodes = 0usize;
        for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).map_err(|_| "body is not UTF-8")?;
            let mut ids = text.split_ascii_whitespace().map(str::parse::<u32>);
            let (Some(Ok(u)), Some(Ok(v)), None) = (ids.next(), ids.next(), ids.next()) else {
                return Err(format!("bad edge line `{text}`"));
            };
            nodes = nodes.max(u.max(v) as usize + 1);
            edges.push((u, v));
        }
        Ok(EdgeList::from_pairs(nodes, edges))
    }
}

impl Family {
    pub fn generate(self, rng: &mut Rng) -> EdgeList {
        match self {
            Family::ForestUnion { n, k } => {
                let mut edges = Vec::with_capacity(n * k);
                let mut labels: Vec<u32> = (0..n as u32).collect();
                for _ in 0..k {
                    rng.shuffle(&mut labels);
                    for i in 1..n {
                        let parent = rng.below(i as u64) as usize;
                        edges.push((labels[i], labels[parent]));
                    }
                }
                EdgeList::from_pairs(n, edges)
            }
            Family::PowerLaw { n, m0 } => {
                let mut edges = Vec::with_capacity(n * m0);
                // Every edge endpoint once: sampling from it picks a node
                // with probability proportional to its degree.
                let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m0);
                let mut chosen: Vec<u32> = Vec::with_capacity(m0);
                for v in 1..n as u32 {
                    chosen.clear();
                    for _ in 0..m0.min(v as usize) {
                        // One uniform pick in five keeps early nodes from
                        // being the only hubs.
                        let target = if endpoints.is_empty() || rng.below(5) == 0 {
                            rng.below(u64::from(v)) as u32
                        } else {
                            endpoints[rng.below(endpoints.len() as u64) as usize]
                        };
                        if !chosen.contains(&target) {
                            chosen.push(target);
                        }
                    }
                    for &target in &chosen {
                        edges.push((target, v));
                        endpoints.push(v);
                        endpoints.push(target);
                    }
                }
                EdgeList::from_pairs(n, edges)
            }
        }
    }
}

/// SplitMix64: a small, fast, seedable generator whose stream is fixed by
/// this file alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The stream of graph `index` in `phase` (0 warm-up, 1 timed) of a
    /// workload, for a run seed.
    fn for_graph(seed: u64, workload: &str, phase: u64, index: u64) -> Rng {
        let mut state = seed ^ 0x5eed_0000_0000_0000;
        for byte in workload.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(state ^ phase.rotate_left(32) ^ index.wrapping_mul(0x9e37_79b9));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_bodies() {
        for name in NAMES {
            let workload = Workload::by_name(name).unwrap();
            let a = workload.inputs(7, 1, true);
            let b = workload.inputs(7, 1, true);
            let c = workload.inputs(8, 1, true);
            assert_eq!(a.timed.len(), b.timed.len(), "{name}");
            for (x, y) in a.timed.iter().zip(&b.timed) {
                assert_eq!(x.wire, y.wire, "{name}");
            }
            assert_ne!(a.timed[0].wire, c.timed[0].wire, "{name}: seeds differ");
        }
    }

    #[test]
    fn timed_graphs_are_distinct_from_each_other_and_from_warmup() {
        let workload = Workload::by_name("powerlaw25k-m8-derand").unwrap();
        let inputs = workload.inputs(3, 1, false);
        let mut bodies: Vec<&[u8]> = inputs
            .warmup
            .iter()
            .chain(&inputs.timed)
            .map(Request::body)
            .collect();
        let total = bodies.len();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), total, "every job is a new graph");
    }

    #[test]
    fn graphs_have_the_advertised_shape() {
        let mut rng = Rng::new(1);
        let forest = Family::ForestUnion { n: 100_000, k: 2 }.generate(&mut rng);
        assert_eq!(forest.nodes, 100_000);
        assert!(forest.edges.len() > 199_000 && forest.edges.len() <= 199_998);
        let body = forest.to_body();
        assert!(
            (2_200_000..2_500_000).contains(&body.len()),
            "{}",
            body.len()
        );
        assert_eq!(EdgeList::parse_body(&body).unwrap(), forest);

        let power = Family::PowerLaw { n: 25_000, m0: 8 }.generate(&mut rng);
        assert_eq!(power.nodes, 25_000);
        assert!(power.edges.len() > 180_000 && power.edges.len() <= 200_000);
        assert!(power.edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn the_cached_set_fits_the_default_cache_budget() {
        let workload = Workload::by_name("forest100k-cached").unwrap();
        let inputs = workload.inputs(11, 1, false);
        assert_eq!(inputs.timed.len(), workload.cached_set.unwrap());
        let cost: usize = inputs
            .timed
            .iter()
            .map(|request| EdgeList::parse_body(request.body()).unwrap().cache_cost())
            .sum();
        assert!(
            cost <= DEFAULT_CACHE_NODE_BUDGET,
            "cached set costs {cost} > {DEFAULT_CACHE_NODE_BUDGET}"
        );
    }

    #[test]
    fn bodies_are_framed_as_http_requests() {
        let edges = EdgeList::from_pairs(3, vec![(2, 0), (1, 2), (0, 2)]);
        let request = Request::post("algorithm=auto", &edges);
        let text = String::from_utf8(request.wire.clone()).unwrap();
        assert!(text.starts_with("POST /v1/color?algorithm=auto&wait=1 HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert_eq!(request.body(), b"0 2\n1 2\n");
    }
}
