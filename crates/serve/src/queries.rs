//! The three query kernels behind the server's endpoints.
//!
//! `/mix` solves for µ, `/admit` runs SybilLimit, and `/escape` builds
//! the escape table of a (graph, `w`) pair, whose entries answer every
//! start node at once ([`escape_table`]); the server keeps the tables
//! and looks each probe up.
//!
//! Everything here returns `Result<_, String>` — the string becomes a
//! typed JSON error body, never a panic. This module is inside the
//! SL005 hot-path lint scope: graph and parameter validation happens
//! *before* calling into estimator APIs whose contracts are assert-
//! based (`SybilLimit::new` panics on an empty graph, walk evolution
//! indexes by node id, and so on).

use socmix_core::{MixingBounds, Slem};
use socmix_linalg::{LinearOp, WalkOp};
use socmix_obs::{Counter, Histogram, Span, Value};
use socmix_par::Pool;
use socmix_sybil::sybillimit::Verification;
use socmix_sybil::{SybilLimit, SybilLimitParams};

use crate::catalog::LoadedGraph;

static MIX_NS: Histogram = Histogram::new("serve.query.mix_ns");
static TABLE_NS: Histogram = Histogram::new("serve.table.build_ns");
static ADMIT_NS: Histogram = Histogram::new("serve.query.admit_ns");
static SLEM_SOLVES: Counter = Counter::new("serve.slem_solves");

/// Fixed seed for served SLEM solves: two queries for the same graph
/// must agree bit-for-bit, so the estimator's randomized start vector
/// is pinned.
const SLEM_SEED: u64 = 0x0050_c1a1;

/// `GET /mix?graph=..&eps=..` — the SLEM µ and the paper's mixing-time
/// bracket `T(ε) ∈ [lower, upper]` at the requested ε.
///
/// Renders the full JSON body so the answer cache can serve the exact
/// same bytes.
pub fn mix(lg: &LoadedGraph, eps: f64, pool: Pool) -> Result<String, String> {
    if !(eps.is_finite() && eps > 0.0 && eps < 1.0) {
        return Err(format!("eps must be in (0, 1), got {eps}"));
    }
    let _span = Span::start(&MIX_NS);
    SLEM_SOLVES.incr();
    let est = Slem::auto(&lg.graph)
        .seed(SLEM_SEED)
        .pool(pool)
        .estimate()
        .map_err(|e| format!("slem estimation failed: {e}"))?;
    let bounds = MixingBounds::new(est.mu, lg.graph.num_nodes());
    let (lower, upper) = bounds.at_epsilon(eps);
    let mut obj = vec![
        ("graph".to_string(), Value::Str(lg.slug.clone())),
        ("n".to_string(), Value::Int(lg.graph.num_nodes() as i64)),
        ("mu".to_string(), Value::Float(est.mu)),
        ("eps".to_string(), Value::Float(eps)),
        ("t_lower".to_string(), Value::Float(lower)),
        ("t_upper".to_string(), Value::Float(upper)),
        ("converged".to_string(), Value::Bool(est.converged)),
        ("iterations".to_string(), Value::Int(est.iterations as i64)),
    ];
    if let Some(l2) = est.lambda2 {
        obj.push(("lambda2".to_string(), Value::Float(l2)));
    }
    Ok(Value::Obj(obj).to_compact())
}

/// Checks escape-probe arguments: `w` in `1..=10000` and every node
/// honest. The server checks each query before it joins a batch, so
/// one bad node fails only its own query, never the batch it would
/// have shared.
pub fn check_escape(lg: &LoadedGraph, nodes: &[u64], w: usize) -> Result<(), String> {
    if w == 0 || w > 10_000 {
        return Err(format!("w must be in 1..=10000, got {w}"));
    }
    let honest = lg.attacked.honest;
    match nodes.iter().find(|&&node| node as usize >= honest) {
        Some(node) => Err(format!(
            "node {node} is not an honest node (honest ids are 0..{honest})"
        )),
        None => Ok(()),
    }
}

/// The escape table of the loaded graph's attacked twin at walk
/// length `w`: h_w = P^w·1_S, whose entry v is the probability that a
/// `w`-step walk from v ends inside the Sybil region S (non-absorbing:
/// the "is inside at step w" event). One table answers every start
/// node.
///
/// It is built backwards. With x_t = D·h_t, the recurrence
/// h_{t+1} = P·h_t reads x_{t+1} = A·D⁻¹·x_t, which is exactly
/// [`WalkOp::apply`]. So the walk starts from x_0 = D·1_S, takes `w`
/// applies and ends with h_w = D⁻¹·x_w. An isolated node gets 0, as
/// the forward walk gave it: the operator drops an isolated node's
/// mass. Each apply gives the same bits at every pool width and shard
/// count, so the table does too.
pub fn escape_table(lg: &LoadedGraph, w: usize, pool: Pool) -> Result<Vec<f64>, String> {
    check_escape(lg, &[], w)?;
    let attacked = &lg.attacked;
    let g = &attacked.graph;
    let n = g.num_nodes();
    let _span = Span::start(&TABLE_NS);
    let op = WalkOp::with_pool(g, pool);
    let mut x = vec![0.0f64; n];
    for (v, xv) in x.iter_mut().enumerate().skip(attacked.honest) {
        *xv = g.degree(v as u32) as f64;
    }
    let mut y = vec![0.0f64; n];
    for _ in 0..w {
        op.apply(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    for (h, inv) in x.iter_mut().zip(op.inv_degrees()) {
        *h *= inv;
    }
    Ok(x)
}

/// Escape-probe batch: each start node's entry of [`escape_table`]. A
/// batch and a lone probe read the same table, so batched and
/// per-request dispatch serve identical bytes.
pub fn escape_batch(
    lg: &LoadedGraph,
    nodes: &[u64],
    w: usize,
    pool: Pool,
) -> Result<Vec<f64>, String> {
    check_escape(lg, nodes, w)?;
    entries(&escape_table(lg, w, pool)?, nodes)
}

/// The entries of an escape table at `nodes`, in order.
pub(crate) fn entries(table: &[f64], nodes: &[u64]) -> Result<Vec<f64>, String> {
    nodes
        .iter()
        .map(|&node| {
            usize::try_from(node)
                .ok()
                .and_then(|v| table.get(v).copied())
                .ok_or_else(|| format!("node {node} is outside the escape table"))
        })
        .collect()
}

/// Renders one `/escape` response body from a batch-computed value.
pub fn render_escape(lg: &LoadedGraph, node: u64, w: usize, prob: f64) -> String {
    Value::Obj(vec![
        ("graph".to_string(), Value::Str(lg.slug.clone())),
        ("node".to_string(), Value::Int(node as i64)),
        ("w".to_string(), Value::Int(w as i64)),
        ("escape_probability".to_string(), Value::Float(prob)),
        (
            "sybil_count".to_string(),
            Value::Int((lg.attacked.graph.num_nodes() - lg.attacked.honest) as i64),
        ),
    ])
    .to_compact()
}

/// `POST /admit` — run SybilLimit with `verifier` judging `suspects`
/// on the loaded graph's attacked twin.
pub fn admit(
    lg: &LoadedGraph,
    verifier: u64,
    suspects: &[u64],
    w: usize,
    pool: Pool,
) -> Result<String, String> {
    let attacked = &lg.attacked;
    let n = attacked.graph.num_nodes();
    if attacked.graph.num_edges() == 0 {
        return Err("graph has no edges".to_string());
    }
    if w == 0 || w > 10_000 {
        return Err(format!("w must be in 1..=10000, got {w}"));
    }
    if verifier as usize >= attacked.honest {
        return Err(format!(
            "verifier {verifier} must be an honest node (0..{})",
            attacked.honest
        ));
    }
    if suspects.is_empty() || suspects.len() > 4096 {
        return Err(format!(
            "suspects must list 1..=4096 nodes, got {}",
            suspects.len()
        ));
    }
    for &s in suspects {
        if s as usize >= n {
            return Err(format!("suspect {s} out of range (graph has {n} nodes)"));
        }
    }
    let _span = Span::start(&ADMIT_NS);
    let params = SybilLimitParams {
        w,
        seed: lg.key,
        ..SybilLimitParams::default()
    };
    let nodes: Vec<u32> = suspects.iter().map(|&s| s as u32).collect();
    let verification = SybilLimit::new(&attacked.graph, params)
        .pool(pool)
        .verify_all(verifier as u32, &nodes);
    Ok(render_admit(lg, verifier, suspects, &verification))
}

fn render_admit(lg: &LoadedGraph, verifier: u64, suspects: &[u64], v: &Verification) -> String {
    let verdicts: Vec<Value> = suspects
        .iter()
        .zip(v.accepted.iter().zip(v.intersected.iter()))
        .map(|(&s, (&accepted, &intersected))| {
            Value::Obj(vec![
                ("node".to_string(), Value::Int(s as i64)),
                (
                    "sybil".to_string(),
                    Value::Bool(lg.attacked.is_sybil(s as u32)),
                ),
                ("accepted".to_string(), Value::Bool(accepted)),
                ("intersected".to_string(), Value::Bool(intersected)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("graph".to_string(), Value::Str(lg.slug.clone())),
        ("verifier".to_string(), Value::Int(verifier as i64)),
        ("r".to_string(), Value::Int(v.r as i64)),
        (
            "accepted_fraction".to_string(),
            Value::Float(v.accepted_fraction()),
        ),
        ("verdicts".to_string(), Value::Arr(verdicts)),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use socmix_graph::GraphBuilder;
    use socmix_linalg::{MultiLinearOp, MultiVec};
    use socmix_sybil::AttackedGraph;
    use std::sync::Arc;

    fn wiki_vote(scale: f64) -> Arc<LoadedGraph> {
        let dir = std::env::temp_dir().join(format!("socmix-serve-q-{}", std::process::id()));
        Catalog::at(dir)
            .load("wiki-vote", scale, 3)
            .expect("wiki-vote graph")
    }

    fn tiny() -> Arc<LoadedGraph> {
        wiki_vote(0.02)
    }

    /// Honest nodes 0..6 — a triangle 0-1-2, a path 2-3, node 4 pendant
    /// on 3, node 5 isolated — and a Sybil triangle 6-7-8 behind the
    /// attack edge 3-6.
    fn pendant_and_isolated() -> LoadedGraph {
        let honest = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)];
        let sybil = [(6, 7), (7, 8), (8, 6), (3, 6)];
        let mut hb = GraphBuilder::from_edges(honest);
        hb.grow_to(6);
        let attacked = GraphBuilder::from_edges(honest.into_iter().chain(sybil)).build();
        assert_eq!(attacked.degree(5), 0, "node 5 is isolated");
        LoadedGraph {
            slug: "pendant".to_string(),
            name: "pendant",
            key: 1,
            scale: 1.0,
            seed: 0,
            graph: Arc::new(hb.build()),
            attacked: Arc::new(AttackedGraph {
                graph: attacked,
                honest: 6,
            }),
        }
    }

    /// The forward point-mass walk the escape table replaced, kept as
    /// its oracle: one column per start node evolves through `w`
    /// `apply_multi` sweeps, and the mass inside the Sybil region is
    /// summed at step `w`.
    fn forward_escape(lg: &LoadedGraph, nodes: &[u64], w: usize) -> Vec<f64> {
        let attacked = &lg.attacked;
        let n = attacked.graph.num_nodes();
        let width = nodes.len();
        let mut x = MultiVec::zeros(n, width);
        let mut y = MultiVec::zeros(n, width);
        for (c, &node) in nodes.iter().enumerate() {
            x.set(node as usize, c, 1.0);
        }
        let op = WalkOp::with_pool(&attacked.graph, Pool::serial());
        for _ in 0..w {
            op.apply_multi(&x, &mut y, width);
            std::mem::swap(&mut x, &mut y);
        }
        let mut probs = vec![0.0f64; width];
        for row in attacked.honest..n {
            for (p, v) in probs.iter_mut().zip(x.row(row)) {
                *p += v;
            }
        }
        probs
    }

    #[test]
    fn escape_table_matches_the_forward_walk_at_every_honest_node() {
        let graphs = [
            wiki_vote(0.02),
            wiki_vote(0.05),
            Arc::new(pendant_and_isolated()),
        ];
        for lg in &graphs {
            let honest: Vec<u64> = (0..lg.attacked.honest as u64).collect();
            for w in [1, 2, 3, 16, 32, 257] {
                let table = escape_batch(lg, &honest, w, Pool::serial()).expect("table");
                let forward = forward_escape(lg, &honest, w);
                for (node, (t, f)) in honest.iter().zip(table.iter().zip(&forward)) {
                    assert!(
                        (t - f).abs() <= 1e-12,
                        "{} w={w} node {node}: table {t} against forward walk {f}",
                        lg.slug
                    );
                }
            }
        }
        // The small graph's corner cases, by value: the isolated node
        // never escapes, and a one-step walk escapes only from the
        // attack edge's end (node 3 has three neighbours).
        let lg = &graphs[2];
        let one = escape_batch(lg, &[0, 3, 4, 5], 1, Pool::serial()).expect("w=1");
        assert_eq!(one, vec![0.0, 1.0 / 3.0, 0.0, 0.0]);
        let long = escape_batch(lg, &[4, 5], 257, Pool::serial()).expect("w=257");
        assert!(long[0] > 0.0 && long[1] == 0.0, "{long:?}");
    }

    #[test]
    fn escape_table_is_bit_identical_across_pool_widths() {
        let lg = wiki_vote(0.05);
        let serial = escape_table(&lg, 32, Pool::serial()).expect("serial");
        for threads in [2, 3] {
            let pooled = escape_table(&lg, 32, Pool::with_threads(threads)).expect("pooled");
            assert!(
                serial
                    .iter()
                    .zip(&pooled)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn mix_renders_parseable_json_and_caches_bitwise() {
        let lg = tiny();
        let a = mix(&lg, 0.25, Pool::serial()).expect("mix");
        let b = mix(&lg, 0.25, Pool::serial()).expect("mix again");
        assert_eq!(a, b, "pinned seed makes repeat solves byte-identical");
        let doc = socmix_obs::parse(&a).expect("valid JSON");
        let mu = doc.get("mu").and_then(Value::as_f64).expect("mu field");
        assert!(
            mu > 0.0 && mu < 1.0,
            "connected graph has mu in (0,1), got {mu}"
        );
        let lo = doc.get("t_lower").and_then(Value::as_f64).expect("t_lower");
        let hi = doc.get("t_upper").and_then(Value::as_f64).expect("t_upper");
        assert!(lo <= hi, "bracket is ordered");
    }

    #[test]
    fn mix_rejects_bad_eps() {
        let lg = tiny();
        for eps in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(
                mix(&lg, eps, Pool::serial()).is_err(),
                "eps={eps} must fail"
            );
        }
    }

    #[test]
    fn batched_escape_is_bit_identical_to_per_request() {
        let lg = tiny();
        let nodes: Vec<u64> = vec![0, 1, 2, 5];
        let batched = escape_batch(&lg, &nodes, 8, Pool::serial()).expect("batched");
        for (i, &node) in nodes.iter().enumerate() {
            let solo = escape_batch(&lg, &[node], 8, Pool::serial()).expect("solo");
            assert_eq!(
                solo[0].to_bits(),
                batched[i].to_bits(),
                "node {node}: batched column must equal the width-1 result bit-for-bit"
            );
            assert!((0.0..=1.0).contains(&solo[0]), "a probability");
        }
    }

    #[test]
    fn escape_validates_nodes_and_w() {
        let lg = tiny();
        let sybil = lg.attacked.honest as u64;
        assert!(escape_batch(&lg, &[sybil], 4, Pool::serial()).is_err());
        assert!(escape_batch(&lg, &[0], 0, Pool::serial()).is_err());
        assert!(escape_batch(&lg, &[0], 1_000_000, Pool::serial()).is_err());
    }

    #[test]
    fn admit_labels_sybils_and_rejects_bad_input() {
        let lg = tiny();
        let sybil = lg.attacked.honest as u64;
        let body = admit(&lg, 0, &[1, sybil], 10, Pool::serial()).expect("admit run");
        let doc = socmix_obs::parse(&body).expect("valid JSON");
        let verdicts = doc
            .get("verdicts")
            .and_then(Value::as_arr)
            .expect("verdicts");
        assert_eq!(verdicts.len(), 2);
        assert_eq!(
            verdicts[0].get("sybil").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(
            verdicts[1].get("sybil").and_then(Value::as_bool),
            Some(true)
        );

        assert!(
            admit(&lg, sybil, &[1], 10, Pool::serial()).is_err(),
            "sybil verifier"
        );
        assert!(
            admit(&lg, 0, &[], 10, Pool::serial()).is_err(),
            "no suspects"
        );
        assert!(
            admit(&lg, 0, &[u64::MAX], 10, Pool::serial()).is_err(),
            "range"
        );
        assert!(admit(&lg, 0, &[1], 0, Pool::serial()).is_err(), "w=0");
    }
}
