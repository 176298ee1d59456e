//! Prints the reference µ table that `src/refs.rs` holds: one
//! `Slem::auto(..).estimate()` at the library's default start seed per
//! graph seed of Physics 2 at paper scale.
//!
//! ```text
//! cargo run --release --manifest-path mixbench/Cargo.toml --bin record_refs
//! ```

use socmix_core::Slem;
use socmix_gen::Dataset;

fn main() {
    for seed in 0..32u64 {
        let g = Dataset::Physics2.generate(1.0, seed);
        let est = Slem::auto(&g)
            .estimate()
            .expect("catalog graphs are connected");
        println!(
            "    {:?}, // graph seed {seed}: {} nodes, {} edges, {} iterations, converged {}",
            est.mu,
            g.num_nodes(),
            g.num_edges(),
            est.iterations,
            est.converged
        );
    }
}
