//! Checks every response of a run: the job finished, the coloring covers
//! every node, is proper, and stays within the variant's palette bound.
//! Runs after the timed window.

use crate::client::Exchange;
use crate::json::{self, Value};
use crate::workload::EdgeList;

/// What a successful response tells the benchmark.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Served from the result cache.
    pub cached: bool,
    /// The job's execution time, `result.wall_clock_nanos` (0 for a hit).
    pub exec_ms: f64,
    /// Distinct colors of the coloring.
    pub colors_used: usize,
    /// The β of the job's partition.
    pub beta: Option<usize>,
}

/// Judges one request of the timed window. `Err` is the reason it counts
/// as failed.
pub fn judge(
    result: &Result<Exchange, String>,
    graph: &EdgeList,
    palette_bound: Option<usize>,
) -> Result<Checked, String> {
    let exchange = result.as_ref().map_err(|e| format!("transport: {e}"))?;
    if exchange.status != 200 {
        return Err(format!(
            "status {}: {}",
            exchange.status,
            snippet(&exchange.body)
        ));
    }
    let document = json::parse(&exchange.body).map_err(|e| format!("bad json: {e}"))?;
    let status = document.at(&["status"]).and_then(Value::str);
    if status != Some("done") {
        return Err(format!("job not done: {}", status.unwrap_or("no status")));
    }
    let colors = document
        .at(&["result", "coloring"])
        .and_then(Value::arr)
        .ok_or("coloring: missing")?;
    if colors.len() != graph.nodes {
        return Err(format!(
            "coloring: {} colors for {} nodes",
            colors.len(),
            graph.nodes
        ));
    }
    let colors: Vec<u64> = colors
        .iter()
        .map(|c| {
            c.num()
                .filter(|c| c.fract() == 0.0 && *c >= 0.0)
                .map(|c| c as u64)
        })
        .collect::<Option<_>>()
        .ok_or("coloring: a node is uncolored or not an integer")?;
    if let Some(&(u, v)) = graph
        .edges
        .iter()
        .find(|&&(u, v)| colors[u as usize] == colors[v as usize])
    {
        return Err(format!("improper: edge {u}-{v} is monochromatic"));
    }
    let mut distinct = colors.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let colors_used = distinct.len();
    if let Some(bound) = palette_bound {
        if colors_used > bound {
            return Err(format!("palette: {colors_used} colors > bound {bound}"));
        }
    }
    if let Some(reported) = document.num_at(&["result", "colors_used"]) {
        if reported as usize != colors_used {
            return Err(format!(
                "palette: server reports {reported} colors, coloring has {colors_used}"
            ));
        }
    }
    Ok(Checked {
        cached: document.at(&["cached"]).and_then(Value::bool) == Some(true),
        exec_ms: document
            .num_at(&["result", "wall_clock_nanos"])
            .unwrap_or(0.0)
            / 1e6,
        colors_used,
        beta: document.num_at(&["result", "beta"]).map(|b| b as usize),
    })
}

fn snippet(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use std::time::Duration;

    fn triangle_plus_leaf() -> EdgeList {
        EdgeList::parse_body(b"0 1\n1 2\n0 2\n2 3\n").unwrap()
    }

    fn answer(status: u16, body: &str, polls: u32) -> Result<Exchange, String> {
        Ok(Exchange {
            status,
            body: body.as_bytes().to_vec(),
            upload: Duration::ZERO,
            wait: Duration::ZERO,
            download: Duration::ZERO,
            total: Duration::from_millis(5),
            polls,
        })
    }

    fn done(colors: &str, used: usize) -> String {
        format!(
            r#"{{"job":9,"status":"done","cached":false,"result":{{"colors_used":{used},
            "beta":5,"wall_clock_nanos":2000000,"coloring":[{colors}]}}}}"#
        )
    }

    #[test]
    fn accepts_a_proper_complete_coloring() {
        let checked = judge(
            &answer(200, &done("0,1,2,0", 3), 0),
            &triangle_plus_leaf(),
            Some(6),
        )
        .unwrap();
        assert_eq!(checked.colors_used, 3);
        assert_eq!(checked.exec_ms, 2.0);
        assert_eq!(checked.beta, Some(5));
    }

    #[test]
    fn error_rate_counts_every_kind_of_failure() {
        let graph = triangle_plus_leaf();
        let cases = [
            // A 202 polled to a finished job is a success.
            (answer(200, &done("0,1,2,0", 3), 4), true),
            // Timeouts: of the socket, or of the polling.
            (
                Err("read: Resource temporarily unavailable".to_string()),
                false,
            ),
            (Err("job 3 not terminal after 60s".to_string()), false),
            // A non-200 final answer, or a job that failed.
            (answer(503, r#"{"error":"shedding load"}"#, 0), false),
            (
                answer(200, r#"{"job":3,"status":"failed","error":"x"}"#, 2),
                false,
            ),
            // Improper, incomplete, uncolored or over the palette bound.
            (answer(200, &done("0,1,1,0", 2), 0), false),
            (answer(200, &done("0,1,2", 3), 0), false),
            (answer(200, &done("0,1,2,null", 3), 0), false),
            (answer(200, &done("0,1,7,0", 3), 0), true),
            (answer(200, &done("0,1,2,3", 3), 0), false),
        ];
        let mut tally = Tally::default();
        for (result, ok) in &cases {
            match judge(result, &graph, Some(6)) {
                Ok(_) => {
                    assert!(ok, "{result:?} should fail");
                    tally.success();
                }
                Err(reason) => {
                    assert!(!ok, "{result:?} should pass: {reason}");
                    tally.failure(&reason);
                }
            }
        }
        assert_eq!((tally.attempted, tally.failed), (10, 8));
        assert_eq!(tally.error_rate(), 0.8);
        // A tight palette bound fails an otherwise proper coloring.
        assert!(judge(&answer(200, &done("0,1,2,0", 3), 0), &graph, Some(2)).is_err());
    }
}
