//! `socmix` — command-line interface to the mixing-time toolkit.
//!
//! See `socmix help` (or [`socmix::cli::USAGE`]) for commands.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match socmix::cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", socmix::cli::USAGE);
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = socmix::cli::run(&cmd, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
