//! Implementation of the `socmix` command-line tool.
//!
//! Kept in the library so argument parsing and command logic are unit
//! testable; `src/bin/socmix.rs` is a thin wrapper.

use crate::core::{MixingBounds, Slem};
use crate::gen::Dataset;
use crate::graph::{components, io, sample, stats, trim, Graph};
use crate::markov::ergodicity;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `gen <dataset> <out.edges> [--scale S] [--seed N]`
    Gen {
        dataset: String,
        out: String,
        scale: f64,
        seed: u64,
    },
    /// `stats <graph.edges>`
    Stats { path: String },
    /// `slem <graph.edges> [--method lanczos|power|dense]`
    Slem { path: String, method: String },
    /// `mix <graph.edges> [--epsilon E] [--sources K] [--tmax T] [--seed N]`
    Mix {
        path: String,
        epsilon: f64,
        sources: usize,
        t_max: usize,
        seed: u64,
    },
    /// `trim <graph.edges> <min-degree> <out.edges>`
    Trim {
        path: String,
        min_degree: usize,
        out: String,
    },
    /// `sample <graph.edges> <nodes> <out.edges> [--seed N]`
    Sample {
        path: String,
        nodes: usize,
        out: String,
        seed: u64,
    },
    /// `convert <in> <out>` (format by extension: .edges text, .bin binary)
    Convert { input: String, out: String },
    /// `pagerank <graph.edges> [--top K] [--seed V]` (V = personalization seed node; omit for global)
    Pagerank {
        path: String,
        top: usize,
        seed_node: Option<u32>,
    },
    /// `betweenness <graph.edges> [--top K] [--pivots P]`
    Betweenness {
        path: String,
        top: usize,
        pivots: usize,
    },
    /// `communities <graph.edges> [--method labelprop|spectral] [--clusters K]`
    Communities {
        path: String,
        method: String,
        clusters: usize,
    },
    /// `compare <a.edges> <b.edges> [--epsilon E] [--sources K] [--tmax T]`
    Compare {
        a: String,
        b: String,
        epsilon: f64,
        sources: usize,
        t_max: usize,
    },
    /// `datasets` — list the catalog
    Datasets,
    /// `help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
socmix — measuring the mixing time of social graphs (IMC 2010)

usage: socmix <command> [args]

commands:
  gen <dataset> <out.edges> [--scale S] [--seed N]   generate a catalog stand-in
  stats <graph.edges>                                 basic statistics
  slem <graph.edges> [--method lanczos|power|dense]   second largest eigenvalue modulus
  mix <graph.edges> [--epsilon E] [--sources K] [--tmax T] [--seed N]
                                                      measure the mixing time (both methods)
  trim <graph.edges> <min-degree> <out.edges>         low-degree trimming + LCC
  sample <graph.edges> <nodes> <out.edges> [--seed N] BFS subgraph sample
  convert <in> <out>                                  convert text (.edges) <-> binary (.bin)
  compare <a.edges> <b.edges> [--epsilon E]           side-by-side mixing reports of two graphs
  pagerank <graph.edges> [--top K] [--seed V]         (personalized) PageRank; --seed V anchors at node V
  betweenness <graph.edges> [--top K] [--pivots P]    Brandes betweenness (P>0: pivot-sampled)
  communities <graph.edges> [--method labelprop|spectral] [--clusters K]
                                                      community detection + modularity
  datasets                                            list the Table-1 catalog
";

/// Parses a command line (without `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let mut pos = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
        } else {
            pos.push(a.clone());
        }
    }
    let flag_f64 = |flags: &std::collections::HashMap<String, String>, k: &str, d: f64| {
        flags
            .get(k)
            .map(|v| v.parse::<f64>().map_err(|e| format!("--{k}: {e}")))
            .unwrap_or(Ok(d))
    };
    let flag_usize = |flags: &std::collections::HashMap<String, String>, k: &str, d: usize| {
        flags
            .get(k)
            .map(|v| v.parse::<usize>().map_err(|e| format!("--{k}: {e}")))
            .unwrap_or(Ok(d))
    };
    let flag_u64 = |flags: &std::collections::HashMap<String, String>, k: &str, d: u64| {
        flags
            .get(k)
            .map(|v| v.parse::<u64>().map_err(|e| format!("--{k}: {e}")))
            .unwrap_or(Ok(d))
    };
    let cmd = pos.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "gen" => {
            if pos.len() != 3 {
                return Err("gen needs <dataset> <out.edges>".into());
            }
            Ok(Command::Gen {
                dataset: pos[1].clone(),
                out: pos[2].clone(),
                scale: flag_f64(&flags, "scale", 0.05)?,
                seed: flag_u64(&flags, "seed", 7)?,
            })
        }
        "stats" => {
            if pos.len() != 2 {
                return Err("stats needs <graph.edges>".into());
            }
            Ok(Command::Stats {
                path: pos[1].clone(),
            })
        }
        "slem" => {
            if pos.len() != 2 {
                return Err("slem needs <graph.edges>".into());
            }
            let method = flags
                .get("method")
                .cloned()
                .unwrap_or_else(|| "lanczos".into());
            if !["lanczos", "power", "dense"].contains(&method.as_str()) {
                return Err(format!("unknown --method {method}"));
            }
            Ok(Command::Slem {
                path: pos[1].clone(),
                method,
            })
        }
        "mix" => {
            if pos.len() != 2 {
                return Err("mix needs <graph.edges>".into());
            }
            Ok(Command::Mix {
                path: pos[1].clone(),
                epsilon: flag_f64(&flags, "epsilon", 0.1)?,
                sources: flag_usize(&flags, "sources", 1000)?,
                t_max: flag_usize(&flags, "tmax", 5000)?,
                seed: flag_u64(&flags, "seed", 7)?,
            })
        }
        "trim" => {
            if pos.len() != 4 {
                return Err("trim needs <graph.edges> <min-degree> <out.edges>".into());
            }
            Ok(Command::Trim {
                path: pos[1].clone(),
                min_degree: pos[2].parse().map_err(|e| format!("min-degree: {e}"))?,
                out: pos[3].clone(),
            })
        }
        "sample" => {
            if pos.len() != 4 {
                return Err("sample needs <graph.edges> <nodes> <out.edges>".into());
            }
            Ok(Command::Sample {
                path: pos[1].clone(),
                nodes: pos[2].parse().map_err(|e| format!("nodes: {e}"))?,
                out: pos[3].clone(),
                seed: flag_u64(&flags, "seed", 7)?,
            })
        }
        "convert" => {
            if pos.len() != 3 {
                return Err("convert needs <in> <out>".into());
            }
            Ok(Command::Convert {
                input: pos[1].clone(),
                out: pos[2].clone(),
            })
        }
        "compare" => {
            if pos.len() != 3 {
                return Err("compare needs <a.edges> <b.edges>".into());
            }
            Ok(Command::Compare {
                a: pos[1].clone(),
                b: pos[2].clone(),
                epsilon: flag_f64(&flags, "epsilon", 0.1)?,
                sources: flag_usize(&flags, "sources", 300)?,
                t_max: flag_usize(&flags, "tmax", 5000)?,
            })
        }
        "pagerank" => {
            if pos.len() != 2 {
                return Err("pagerank needs <graph.edges>".into());
            }
            Ok(Command::Pagerank {
                path: pos[1].clone(),
                top: flag_usize(&flags, "top", 10)?,
                seed_node: flags
                    .get("seed")
                    .map(|v| v.parse::<u32>().map_err(|e| format!("--seed: {e}")))
                    .transpose()?,
            })
        }
        "betweenness" => {
            if pos.len() != 2 {
                return Err("betweenness needs <graph.edges>".into());
            }
            Ok(Command::Betweenness {
                path: pos[1].clone(),
                top: flag_usize(&flags, "top", 10)?,
                pivots: flag_usize(&flags, "pivots", 0)?,
            })
        }
        "communities" => {
            if pos.len() != 2 {
                return Err("communities needs <graph.edges>".into());
            }
            let method = flags
                .get("method")
                .cloned()
                .unwrap_or_else(|| "labelprop".into());
            if !["labelprop", "spectral"].contains(&method.as_str()) {
                return Err(format!("unknown --method {method}"));
            }
            Ok(Command::Communities {
                path: pos[1].clone(),
                method,
                clusters: flag_usize(&flags, "clusters", 2)?,
            })
        }
        "datasets" => Ok(Command::Datasets),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Resolves a dataset by (case/punctuation-insensitive) name.
pub fn find_dataset(name: &str) -> Option<Dataset> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect::<String>()
    };
    let want = norm(name);
    Dataset::all()
        .iter()
        .copied()
        .find(|d| norm(d.name()) == want)
}

fn load(path: &str) -> Result<Graph, String> {
    let g = if path.ends_with(".bin") {
        io::load_binary(path).map_err(|e| format!("{path}: {e}"))?
    } else {
        io::load_edge_list(path).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(g)
}

fn save(g: &Graph, path: &str) -> Result<(), String> {
    if path.ends_with(".bin") {
        io::save_binary(g, path).map_err(|e| format!("{path}: {e}"))
    } else {
        io::save_edge_list(g, path).map_err(|e| format!("{path}: {e}"))
    }
}

/// Executes a command, writing human-readable output to `out`.
pub fn run<W: Write>(cmd: &Command, out: &mut W) -> Result<(), String> {
    let w = |e: std::io::Error| format!("write error: {e}");
    match cmd {
        Command::Help => write!(out, "{USAGE}").map_err(w),
        Command::Datasets => {
            writeln!(
                out,
                "{:<14} {:>9} {:>10} {:>10} {:>12}",
                "name", "nodes", "edges", "class", "trust"
            )
            .map_err(w)?;
            for &d in Dataset::all() {
                writeln!(
                    out,
                    "{:<14} {:>9} {:>10} {:>10} {:>12}",
                    d.name(),
                    d.paper_nodes(),
                    d.paper_edges(),
                    format!("{:?}", d.mixing_class()),
                    format!("{:?}", d.trust_model()),
                )
                .map_err(w)?;
            }
            Ok(())
        }
        Command::Gen {
            dataset,
            out: path,
            scale,
            seed,
        } => {
            let ds = find_dataset(dataset)
                .ok_or_else(|| format!("unknown dataset {dataset:?}; see `socmix datasets`"))?;
            let g = ds.generate(*scale, *seed);
            save(&g, path)?;
            writeln!(
                out,
                "wrote {} nodes, {} edges to {path}",
                g.num_nodes(),
                g.num_edges()
            )
            .map_err(w)
        }
        Command::Stats { path } => {
            let g = load(path)?;
            let s = stats::graph_stats(&g);
            let erg = ergodicity(&g);
            let comps = components::connected_components(&g);
            writeln!(out, "nodes:        {}", s.nodes).map_err(w)?;
            writeln!(out, "edges:        {}", s.edges).map_err(w)?;
            writeln!(
                out,
                "degree:       min {} / avg {:.2} / max {}",
                s.min_degree, s.avg_degree, s.max_degree
            )
            .map_err(w)?;
            writeln!(out, "transitivity: {:.4}", s.transitivity).map_err(w)?;
            writeln!(out, "components:   {}", comps.count()).map_err(w)?;
            writeln!(out, "connected:    {}", erg.connected).map_err(w)?;
            writeln!(out, "bipartite:    {}", erg.bipartite).map_err(w)
        }
        Command::Slem { path, method } => {
            let g = load(path)?;
            let slem = match method.as_str() {
                "power" => Slem::power_iteration(&g),
                "dense" => Slem::dense(&g),
                _ => Slem::lanczos(&g),
            };
            let est = slem.estimate().map_err(|e| e.to_string())?;
            writeln!(out, "mu:        {:.8}", est.mu).map_err(w)?;
            if let Some(hi) = est.mu_hi {
                writeln!(out, "mu_hi:     {hi:.8} (mu + {:.1e})", hi - est.mu).map_err(w)?;
            }
            if let (Some(l2), Some(ln)) = (est.lambda2, est.lambda_n) {
                writeln!(out, "lambda2:   {l2:.8}").map_err(w)?;
                writeln!(out, "lambdaN:   {ln:.8}").map_err(w)?;
            }
            writeln!(out, "converged: {}", est.converged).map_err(w)?;
            let b = MixingBounds::new(est.mu, g.num_nodes());
            for eps in [0.25, 0.1, 0.01] {
                let (lo, hi) = b.at_epsilon(eps);
                writeln!(out, "T({eps:<5}) in [{lo:.1}, {hi:.1}]").map_err(w)?;
            }
            Ok(())
        }
        Command::Mix {
            path,
            epsilon,
            sources,
            t_max,
            seed,
        } => {
            let g = load(path)?;
            let report = crate::core::measure(
                &g,
                crate::core::MeasureOptions {
                    epsilon: *epsilon,
                    sources: *sources,
                    t_max: *t_max,
                    seed: *seed,
                },
            )
            .map_err(|e| e.to_string())?;
            write!(out, "{}", report.render()).map_err(w)
        }
        Command::Trim {
            path,
            min_degree,
            out: opath,
        } => {
            let g = load(path)?;
            let (t, _) = trim::trim_to_lcc(&g, *min_degree);
            save(&t, opath)?;
            writeln!(
                out,
                "trimmed to min degree {min_degree}: {} -> {} nodes ({:.1}% kept), wrote {opath}",
                g.num_nodes(),
                t.num_nodes(),
                100.0 * t.num_nodes() as f64 / g.num_nodes().max(1) as f64
            )
            .map_err(w)
        }
        Command::Sample {
            path,
            nodes,
            out: opath,
            seed,
        } => {
            let g = load(path)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            let (s, _) = sample::bfs_sample_random(&g, *nodes, &mut rng);
            save(&s, opath)?;
            writeln!(
                out,
                "BFS sample: {} nodes, {} edges, wrote {opath}",
                s.num_nodes(),
                s.num_edges()
            )
            .map_err(w)
        }
        Command::Compare {
            a,
            b,
            epsilon,
            sources,
            t_max,
        } => {
            let opts = crate::core::MeasureOptions {
                epsilon: *epsilon,
                sources: *sources,
                t_max: *t_max,
                seed: 7,
            };
            for path in [a, b] {
                let g = load(path)?;
                let report = crate::core::measure(&g, opts).map_err(|e| e.to_string())?;
                writeln!(out, "--- {path}").map_err(w)?;
                write!(out, "{}", report.render()).map_err(w)?;
            }
            Ok(())
        }
        Command::Pagerank {
            path,
            top,
            seed_node,
        } => {
            let g = load(path)?;
            use crate::markov::pagerank::{pagerank, personalized_pagerank, PagerankOptions};
            let scores = match seed_node {
                Some(v) => {
                    if (*v as usize) >= g.num_nodes() {
                        return Err(format!("seed node {v} out of range"));
                    }
                    personalized_pagerank(&g, *v, PagerankOptions::default())
                }
                None => pagerank(&g, PagerankOptions::default()),
            };
            let mut order: Vec<usize> = (0..g.num_nodes()).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
            writeln!(out, "{:<8} {:>12} {:>8}", "node", "score", "degree").map_err(w)?;
            for &v in order.iter().take(*top) {
                writeln!(
                    out,
                    "{:<8} {:>12.6e} {:>8}",
                    v,
                    scores[v],
                    g.degree(v as u32)
                )
                .map_err(w)?;
            }
            Ok(())
        }
        Command::Betweenness { path, top, pivots } => {
            let g = load(path)?;
            use crate::graph::centrality::{betweenness, betweenness_sampled};
            let scores = if *pivots == 0 {
                betweenness(&g)
            } else {
                use rand::SeedableRng as _;
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                betweenness_sampled(&g, *pivots, &mut rng)
            };
            let mut order: Vec<usize> = (0..g.num_nodes()).collect();
            order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
            writeln!(out, "{:<8} {:>14} {:>8}", "node", "betweenness", "degree").map_err(w)?;
            for &v in order.iter().take(*top) {
                writeln!(
                    out,
                    "{:<8} {:>14.2} {:>8}",
                    v,
                    scores[v],
                    g.degree(v as u32)
                )
                .map_err(w)?;
            }
            Ok(())
        }
        Command::Communities {
            path,
            method,
            clusters,
        } => {
            let g = load(path)?;
            use crate::community::{
                label_propagation, spectral_clustering, LabelPropOptions, SpectralOptions,
            };
            let p = if method == "spectral" {
                spectral_clustering(
                    &g,
                    SpectralOptions {
                        clusters: (*clusters).max(2),
                        ..Default::default()
                    },
                )
            } else {
                label_propagation(&g, LabelPropOptions::default())
            };
            let mut sizes = p.sizes();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            writeln!(out, "method:      {method}").map_err(w)?;
            writeln!(out, "communities: {}", p.num_communities()).map_err(w)?;
            writeln!(out, "modularity:  {:.4}", p.modularity(&g)).map_err(w)?;
            let preview: Vec<String> = sizes.iter().take(10).map(|s| s.to_string()).collect();
            writeln!(out, "sizes (top): {}", preview.join(", ")).map_err(w)?;
            Ok(())
        }
        Command::Convert { input, out: opath } => {
            let g = load(input)?;
            save(&g, opath)?;
            writeln!(
                out,
                "converted {input} -> {opath} ({} nodes, {} edges)",
                g.num_nodes(),
                g.num_edges()
            )
            .map_err(w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_gen_with_flags() {
        let c = parse(&strs(&[
            "gen",
            "Physics 1",
            "out.edges",
            "--scale",
            "0.1",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Gen {
                dataset: "Physics 1".into(),
                out: "out.edges".into(),
                scale: 0.1,
                seed: 3
            }
        );
    }

    #[test]
    fn parse_defaults() {
        let c = parse(&strs(&["mix", "g.edges"])).unwrap();
        match c {
            Command::Mix {
                epsilon,
                sources,
                t_max,
                seed,
                ..
            } => {
                assert_eq!(epsilon, 0.1);
                assert_eq!(sources, 1000);
                assert_eq!(t_max, 5000);
                assert_eq!(seed, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&strs(&["gen"])).is_err());
        assert!(parse(&strs(&["slem", "g", "--method", "bogus"])).is_err());
        assert!(parse(&strs(&["frobnicate"])).is_err());
        assert!(parse(&strs(&["mix", "g", "--epsilon"])).is_err());
    }

    #[test]
    fn parse_help_variants() {
        for h in [&["help"][..], &["--help"], &["-h"], &[]] {
            assert_eq!(parse(&strs(h)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn dataset_lookup_is_fuzzy() {
        assert_eq!(find_dataset("wiki-vote"), Some(Dataset::WikiVote));
        assert_eq!(find_dataset("WIKIVOTE"), Some(Dataset::WikiVote));
        assert_eq!(find_dataset("physics 1"), Some(Dataset::Physics1));
        assert_eq!(find_dataset("nonsense"), None);
    }

    #[test]
    fn datasets_command_lists_all() {
        let mut buf = Vec::new();
        run(&Command::Datasets, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().count(), 16); // header + 15
        assert!(s.contains("Livejournal A"));
    }

    #[test]
    fn gen_stats_slem_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("socmix-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p1.edges");
        let pstr = path.to_str().unwrap().to_string();
        let mut buf = Vec::new();
        run(
            &Command::Gen {
                dataset: "Physics 1".into(),
                out: pstr.clone(),
                scale: 0.02,
                seed: 1,
            },
            &mut buf,
        )
        .unwrap();
        run(&Command::Stats { path: pstr.clone() }, &mut buf).unwrap();
        run(
            &Command::Slem {
                path: pstr.clone(),
                method: "lanczos".into(),
            },
            &mut buf,
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("connected:    true"));
        assert!(s.contains("mu:"));
        assert!(s.contains("mu_hi:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn convert_text_to_binary() {
        let dir = std::env::temp_dir().join("socmix-cli-convert");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.edges").to_str().unwrap().to_string();
        let bin = dir.join("g.bin").to_str().unwrap().to_string();
        let mut buf = Vec::new();
        run(
            &Command::Gen {
                dataset: "wiki-vote".into(),
                out: txt.clone(),
                scale: 0.02,
                seed: 2,
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Convert {
                input: txt.clone(),
                out: bin.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let a = crate::graph::io::load_edge_list(&txt).unwrap();
        let b = crate::graph::io::load_binary(&bin).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_analysis_commands() {
        let c = parse(&strs(&["pagerank", "g.edges", "--top", "5", "--seed", "3"])).unwrap();
        assert_eq!(
            c,
            Command::Pagerank {
                path: "g.edges".into(),
                top: 5,
                seed_node: Some(3)
            }
        );
        let c = parse(&strs(&["betweenness", "g.edges", "--pivots", "16"])).unwrap();
        assert_eq!(
            c,
            Command::Betweenness {
                path: "g.edges".into(),
                top: 10,
                pivots: 16
            }
        );
        let c = parse(&strs(&[
            "communities",
            "g.edges",
            "--method",
            "spectral",
            "--clusters",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Communities {
                path: "g.edges".into(),
                method: "spectral".into(),
                clusters: 4
            }
        );
        assert!(parse(&strs(&["communities", "g", "--method", "bogus"])).is_err());
    }

    #[test]
    fn parse_compare() {
        let c = parse(&strs(&[
            "compare",
            "a.edges",
            "b.edges",
            "--epsilon",
            "0.25",
        ]))
        .unwrap();
        match c {
            Command::Compare { a, b, epsilon, .. } => {
                assert_eq!(a, "a.edges");
                assert_eq!(b, "b.edges");
                assert_eq!(epsilon, 0.25);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&strs(&["compare", "only-one"])).is_err());
    }

    #[test]
    fn compare_command_runs() {
        let dir = std::env::temp_dir().join("socmix-cli-compare");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.edges").to_str().unwrap().to_string();
        let b = dir.join("b.edges").to_str().unwrap().to_string();
        let mut buf = Vec::new();
        for (ds, path) in [("wiki-vote", &a), ("Physics 1", &b)] {
            run(
                &Command::Gen {
                    dataset: ds.into(),
                    out: path.clone(),
                    scale: 0.02,
                    seed: 1,
                },
                &mut buf,
            )
            .unwrap();
        }
        run(
            &Command::Compare {
                a: a.clone(),
                b: b.clone(),
                epsilon: 0.1,
                sources: 20,
                t_max: 2000,
            },
            &mut buf,
        )
        .unwrap();
        let sout = String::from_utf8(buf).unwrap();
        assert_eq!(sout.matches("mu (SLEM):").count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analysis_commands_run() {
        let dir = std::env::temp_dir().join("socmix-cli-analysis");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges").to_str().unwrap().to_string();
        let mut buf = Vec::new();
        run(
            &Command::Gen {
                dataset: "Enron".into(),
                out: path.clone(),
                scale: 0.01,
                seed: 1,
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Pagerank {
                path: path.clone(),
                top: 5,
                seed_node: None,
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Betweenness {
                path: path.clone(),
                top: 5,
                pivots: 8,
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Communities {
                path: path.clone(),
                method: "labelprop".into(),
                clusters: 2,
            },
            &mut buf,
        )
        .unwrap();
        let sout = String::from_utf8(buf).unwrap();
        assert!(sout.contains("betweenness"));
        assert!(sout.contains("modularity:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trim_and_sample_via_cli() {
        let dir = std::env::temp_dir().join("socmix-cli-trim");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("g.edges").to_str().unwrap().to_string();
        let trimmed = dir.join("t.edges").to_str().unwrap().to_string();
        let sampled = dir.join("s.edges").to_str().unwrap().to_string();
        let mut buf = Vec::new();
        run(
            &Command::Gen {
                dataset: "DBLP".into(),
                out: src.clone(),
                scale: 0.005,
                seed: 3,
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Trim {
                path: src.clone(),
                min_degree: 2,
                out: trimmed.clone(),
            },
            &mut buf,
        )
        .unwrap();
        run(
            &Command::Sample {
                path: src.clone(),
                nodes: 100,
                out: sampled.clone(),
                seed: 1,
            },
            &mut buf,
        )
        .unwrap();
        let t = crate::graph::io::load_edge_list(&trimmed).unwrap();
        assert!(t.num_nodes() == 0 || t.min_degree() >= 2);
        let s = crate::graph::io::load_edge_list(&sampled).unwrap();
        assert_eq!(s.num_nodes(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
