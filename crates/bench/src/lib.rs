//! Shared infrastructure for the experiment binaries.
//!
//! Each binary regenerates one table or figure of the paper (the crate's
//! `README.md` indexes every binary, the gated ones included):
//!
//! | binary | paper item |
//! |---|---|
//! | `table1_models` | Table 1 — the four models' observable semantics |
//! | `table2_classification` | Table 2 — problem × model classification |
//! | `fig1_triangle_gadget` | Figure 1 — `G'_{s,t}` reduction |
//! | `fig2_eobbfs_gadget` | Figure 2 — `G_i` reduction |
//! | `exp_build_degenerate` | Thm 2 + Lemma 1 — BUILD message-size scaling |
//! | `exp_lower_bounds` | Thms 3/6/8 + Lemma 3 — capacity curves |
//! | `exp_mis` | Thm 5 — MIS validity under adversary sweeps |
//! | `exp_two_cliques` | §5.1 + Open Pb 4 — deterministic & randomized |
//! | `exp_bfs` | Thms 7/10 + Cor 4 + Open Pb 3 ablation |
//! | `exp_subgraph` | Thm 9 — orthogonality of message size & synchrony |
//! | `exp_hierarchy` | Thm 4 — the lattice via promotion adapters |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wb_math::json;

pub mod certify;
pub mod probes;
pub mod table;
pub mod workloads;

/// Fixed seed base so every experiment is reproducible.
pub const SEED: u64 = 0x5_11A5_2012;
