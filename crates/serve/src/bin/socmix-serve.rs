//! `socmix-serve` — mixing-time-as-a-service.
//!
//! ```text
//! socmix-serve [--addr A] [--cache-dir D] [--preload GRAPH:SCALE:SEED]...
//!              [--threads N] [--queue N] [--deadline-ms N] [--batch-max N]
//! ```
//!
//! Every flag has a `SOCMIX_SERVE_*` environment twin (flags win);
//! see `socmix_serve::knobs`. `--preload` loads catalog graphs before
//! the listener opens so the first query never pays a generation.
//! Metrics are always on (the server *is* the ops surface:
//! `GET /metrics`); tracing follows `SOCMIX_TRACE` as everywhere else
//! in the workspace.

use socmix_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: socmix-serve [--addr A] [--cache-dir D] [--preload GRAPH:SCALE:SEED]...\n\
         \x20                   [--threads N] [--queue N] [--deadline-ms N] [--batch-max N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServeConfig::from_env();
    let mut cache_dir = std::path::PathBuf::from("results/cache");
    let mut preload: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("error: {flag} needs a value");
                usage();
            }
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--cache-dir" => cache_dir = value("--cache-dir").into(),
            "--preload" => preload.push(value("--preload")),
            "--threads" => cfg.threads = parse_num(&value("--threads"), "--threads", 1),
            "--queue" => cfg.queue = parse_num(&value("--queue"), "--queue", 1),
            "--deadline-ms" => {
                cfg.deadline = std::time::Duration::from_millis(parse_num(
                    &value("--deadline-ms"),
                    "--deadline-ms",
                    1,
                ) as u64)
            }
            "--batch-max" => cfg.batch_max = parse_num(&value("--batch-max"), "--batch-max", 1),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    socmix_obs::set_metrics_enabled(true);

    let server = match Server::start(cfg.clone(), &cache_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not start server on {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };

    // Preload through the server's own catalog-load path so the graph
    // lands exactly where queries will find it.
    for spec in &preload {
        let (slug, scale, seed) = match parse_preload(spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: bad --preload {spec:?}: {e}");
                std::process::exit(2);
            }
        };
        print!("preloading {slug} at scale {scale} seed {seed} ... ");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let started = std::time::Instant::now();
        match preload_via_http(server.local_addr(), &slug, scale, seed) {
            Ok(()) => println!("done in {:.1}s", started.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("\nerror: preload {slug} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("socmix-serve listening on http://{}", server.local_addr());
    println!(
        "{} workers, queue {}, deadline {}ms, batch max {}",
        cfg.threads,
        cfg.queue,
        cfg.deadline.as_millis(),
        cfg.batch_max
    );

    // No signal handling without dependencies: the process serves
    // until killed, which is how the smoke job and systemd-style
    // supervisors both drive it.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn parse_num(v: &str, flag: &str, min: usize) -> usize {
    match v.parse::<usize>() {
        Ok(n) if n >= min => n,
        _ => {
            eprintln!("error: {flag} must be an integer >= {min}, got {v:?}");
            usage();
        }
    }
}

fn parse_preload(spec: &str) -> Result<(String, f64, u64), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        [slug] => Ok((slug.to_string(), 0.05, 0)),
        [slug, scale] => {
            let scale = scale.parse().map_err(|_| format!("bad scale {scale:?}"))?;
            Ok((slug.to_string(), scale, 0))
        }
        [slug, scale, seed] => {
            let scale = scale.parse().map_err(|_| format!("bad scale {scale:?}"))?;
            let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
            Ok((slug.to_string(), scale, seed))
        }
        _ => Err("expected GRAPH[:SCALE[:SEED]]".to_string()),
    }
}

/// Issues `POST /load` against the just-started server.
fn preload_via_http(
    addr: std::net::SocketAddr,
    slug: &str,
    scale: f64,
    seed: u64,
) -> Result<(), String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let req = format!(
        "POST /load?graph={slug}&scale={scale}&seed={seed} HTTP/1.1\r\n\
         Host: localhost\r\nConnection: close\r\n\r\n"
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| e.to_string())?;
    if reply.starts_with("HTTP/1.1 200") {
        Ok(())
    } else {
        Err(reply.lines().last().unwrap_or("no reply").to_string())
    }
}
