//! Golden graphs: every catalog stand-in's exact bits, pinned.
//!
//! The artifact cache (`GraphCache`) keys an entry by dataset, scale,
//! seed and `GENERATOR_VERSION`, never by the code that generated it.
//! So a change that alters one bit of a generated graph without
//! bumping the version makes a warm cache serve graphs the generator
//! no longer produces. These tests pin an FNV-1a hash of each graph's
//! CSR arrays: every dataset at a small scale, and the four Physics 2
//! paper-scale graphs whose µ `mixbench` checks against stored
//! references (graph seeds 3, 7, 10 and 23).

use socmix_gen::{Dataset, GENERATOR_VERSION};
use socmix_graph::Graph;

/// Scale and seed of the every-dataset check.
const SMALL_SCALE: f64 = 0.01;
const SMALL_SEED: u64 = 7;

/// `(dataset, hash)` at `SMALL_SCALE` and `SMALL_SEED`.
const SMALL: [(Dataset, u64); 15] = [
    (Dataset::WikiVote, 0x3b5c_b8d2_4be6_fd22),
    (Dataset::Slashdot2, 0x3459_bc4a_ae5b_5035),
    (Dataset::Slashdot1, 0x0ddd_2dd7_c1db_1524),
    (Dataset::Facebook, 0xaf58_4742_33dc_1b79),
    (Dataset::Physics1, 0xdac0_b3c6_c1b1_637d),
    (Dataset::Physics2, 0x25c5_22fa_b408_6c0a),
    (Dataset::Physics3, 0x4fb9_2241_b536_c51d),
    (Dataset::Enron, 0x7950_a8ae_5f4f_2b12),
    (Dataset::Epinion, 0xccea_812b_2103_1b4d),
    (Dataset::Dblp, 0x4057_0b98_b2ac_01b4),
    (Dataset::FacebookA, 0x0922_ef06_1ac9_3b58),
    (Dataset::FacebookB, 0xa86a_1c67_3453_52de),
    (Dataset::LivejournalA, 0xf84e_9fe5_b87d_a81d),
    (Dataset::LivejournalB, 0xd181_6e92_5fdf_9c9b),
    (Dataset::Youtube, 0xb165_b0c9_38f4_9cff),
];

/// `(graph seed, hash)` of Physics 2 at scale 1.0.
const PHYSICS2_PAPER: [(u64, u64); 4] = [
    (3, 0x6910_d797_2ee9_7070),
    (7, 0xfeb0_b0dc_7671_a7b4),
    (10, 0xb91b_be54_4167_0569),
    (23, 0xfffc_f98c_0f9d_1486),
];

/// FNV-1a over the offsets (little-endian `u64`) and then the targets
/// (little-endian `u32`).
fn csr_hash(g: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &o in g.offsets() {
        eat(&(o as u64).to_le_bytes());
    }
    for &t in g.raw_targets() {
        eat(&t.to_le_bytes());
    }
    h
}

/// Fails with every row that moved, and the full table to re-pin from.
fn check(what: &str, rows: &[(String, u64, u64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("  {name}: pinned {want:#018x}, generated {got:#018x}"))
        .collect();
    let table: Vec<String> = rows
        .iter()
        .map(|(name, _, got)| format!("  {name} => {got:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{what}: {} of {} generated graphs changed:\n{}\n\
         A change that alters a generated graph must bump \
         socmix_gen::GENERATOR_VERSION (now {GENERATOR_VERSION}), as README's \
         cache-invalidation rule says, so that no cached graph from the old \
         generator is served; then re-pin these hashes. \
         Generated now:\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n"),
        table.join("\n"),
    );
}

#[test]
fn every_catalog_dataset_generates_its_pinned_graph() {
    assert_eq!(SMALL.len(), Dataset::all().len());
    let rows: Vec<_> = SMALL
        .iter()
        .map(|&(d, want)| {
            let got = csr_hash(&d.generate(SMALL_SCALE, SMALL_SEED));
            (
                format!("{d:?} at scale {SMALL_SCALE}, seed {SMALL_SEED}"),
                want,
                got,
            )
        })
        .collect();
    check("catalog", &rows);
}

#[test]
fn physics2_paper_scale_reference_graphs_are_pinned() {
    let rows: Vec<_> = PHYSICS2_PAPER
        .iter()
        .map(|&(seed, want)| {
            let got = csr_hash(&Dataset::Physics2.generate(1.0, seed));
            (format!("Physics2 at scale 1.0, seed {seed}"), want, got)
        })
        .collect();
    check("Physics 2 reference graphs", &rows);
}
