//! The repo-specific knowledge: which modules are sanctioned oracles, which
//! functions are hot-path kernels, where the backend enum and its golden
//! pins live. Every list here is *load-bearing* — the driver fails the pass
//! if an entry goes stale (a listed function that no longer exists, a pin
//! file that vanished), so this file cannot silently drift from the tree.

/// Directories pruned from the workspace walk. `vendor/` holds offline
/// stand-ins for crates.io dependencies (not our invariants to enforce);
/// `crates/lint/tests` holds fixtures that *deliberately* violate rules.
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "crates/lint/tests"];

/// Method names whose results are not correctly rounded by IEEE 754 and may
/// differ across platforms/libms — the frozen-bits rule. (`sqrt` is absent
/// deliberately: IEEE 754 requires exact rounding for it, so it cannot
/// break bit-reproducibility.)
pub const TRANSCENDENTAL_METHODS: &[&str] = &[
    "ln", "log", "log2", "log10", "ln_1p", "exp", "exp2", "exp_m1", "powf", "sin", "cos", "tan",
    "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
];

/// Modules where transcendental calls are sanctioned: the versioned noise
/// backends (every `ln` on the release path is pinned by golden snapshots)
/// and `hc-linalg`'s Cholesky oracle (`log_det` is a spec-level quantity
/// used only by reference/verification paths — reclassified as an oracle
/// module in the initial hc-lint rollout rather than annotated per call).
pub const TRANSCENDENTAL_ORACLE_PATHS: &[&str] =
    &["crates/noise/src/", "crates/linalg/src/chol.rs"];

/// Identifiers that smuggle nondeterminism into result-affecting code.
/// `HashMap`/`HashSet` because their iteration order is randomized per
/// process; the entropy constructors because `SeedStream` substreams are the
/// only sanctioned randomness source.
pub const NONDETERMINISTIC_IDENTS: &[&str] = &[
    "HashMap",
    "HashSet",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
];

/// Modules whose `Iterator::sum::<f64>()` folds *are* the specification —
/// the reference estimators whose fold order downstream fast paths must
/// reproduce bit for bit (the float-fold rule protects the fast paths, not
/// the spec). `crates/ext` holds reference implementations of competing
/// mechanisms; `stats.rs` is measurement harness, not released data.
pub const FOLD_ORACLE_PATHS: &[&str] = &[
    "crates/core/src/hier.rs",
    "crates/core/src/weighted.rs",
    "crates/core/src/isotonic.rs",
    "crates/core/src/unattributed.rs",
    "crates/core/src/universal.rs",
    "crates/core/src/budgeted.rs",
    "crates/core/src/error.rs",
    "crates/core/src/theory.rs",
    "crates/linalg/src/",
    "crates/noise/src/",
    "crates/ext/src/",
    "crates/bench/src/stats.rs",
];

/// The hot-path kernel registry: `(file, functions)` pairs naming the
/// engine-sweep, snapshot-serving, and release-path functions that must stay
/// allocation-free *statically* — complementing the counting-allocator test
/// in `tests/alloc_free.rs`, which only covers the configurations a test
/// happens to exercise. A listed function that no longer exists fails the
/// pass (`stale-config`), so renames must update this table. In-source
/// `// hc-lint: hot-path` markers extend the registry without touching it.
pub const HOT_FUNCTIONS: &[(&str, &[&str])] = &[
    (
        "crates/core/src/engine.rs",
        &[
            // Theorem-3 sweep kernels and their slab/level drivers.
            "up_level_uniform",
            "up_level_weighted",
            "down_level_uniform",
            "down_level_weighted",
            "round_nonneg",
            "zero_round_level",
            "zero_round_windows",
            "count_level",
            "count_windows",
            "leaf_counts",
            "count_slab",
            "count_levels",
            "tile_cut",
            "infer_into",
            "infer_zero_round_into",
            "downward_zero_round",
            "noised_upward",
            "fused_trial",
            "fused_trial_into",
            "release_and_infer",
            "release_and_infer_rounded",
            "release_and_infer_into_snapshot",
            "zero_levels",
            "zero_round_slab",
            "infer_from",
            "copy_slab",
            "downward_tree",
            "downward_into_sink",
            "upward_slab",
            "downward_slab",
            "upward_levels",
            "downward_levels",
            "up_step",
            "down_step",
            "up_kernel",
            "down_kernel",
            "zero_round_in_place",
        ],
    ),
    (
        "crates/core/src/snapshot.rs",
        &[
            // O(1) prefix serving and the SubtreeServer decomposition folds.
            "answer_prefix_into",
            "answer",
            "answer_into",
            "answer_recursive",
            "fold",
            "fold_batch",
            "packed_digits",
            "digit_of_bit",
            "digit",
            "nonzero_digits",
            "digits_between",
            "node_at",
            "quotient",
            "rebuild_from_leaves",
            "rebuild_from_tree_values",
            "rebuild_from_prefix",
            "prefix_scan",
            "scan",
            "total",
            "for_each_node",
            "for_each_node_at_depth",
            "walk",
            "decomposition_len",
            "count_per_depth",
        ],
    ),
    (
        "crates/core/src/plan.rs",
        &[
            // The one release dispatch into a caller's (recycled) snapshot:
            // a warm service publish allocates no prefix through it.
            "release_into",
        ],
    ),
    (
        "crates/core/src/accuracy.rs",
        &[
            // The planner's inner pricing loops call these once per sampled
            // position × candidate ε (bisection multiplies that by ~200
            // probes), so they must stay allocation-free.
            "det_cbrt",
            "alpha_half_width",
            "epsilon_for_alpha_width",
            "invert_monotone",
        ],
    ),
    (
        "crates/mech/src/budget.rs",
        &[
            // Accountant getters sit on the serving read path (checked per
            // publish); `spend`/`spend_at` allocate their ledger rows by
            // design and are deliberately not listed.
            "remaining",
            "remaining_delta",
            "spent",
            "spent_delta",
        ],
    ),
    (
        "crates/mech/src/sequences/hierarchical.rs",
        &[
            // Query evaluation straight into a caller's slice.
            "tree_counts_into_slice",
            "evaluate_into_slice",
        ],
    ),
    (
        "crates/mech/src/sequences/unit.rs",
        &["evaluate_into_slice"],
    ),
    (
        "crates/noise/src/exact_ln.rs",
        &[
            // The Reference lane logarithm and its rounding test, once per
            // draw.
            "ln_scaled",
            "fast_two_sum",
        ],
    ),
    (
        "crates/noise/src/laplace.rs",
        &[
            // The batched Laplace draw paths (2^21 draws per trial); the
            // Reference lane kernel's fallback list lives on the stack.
            "sample",
            "sample_with",
            "fill",
            "fill_with",
            "add_noise",
            "add_noise_with",
            "fill_reference",
            "reference_lane",
            "reference_from_bits",
            "sample_from_bits",
            "fill_wide",
            "draw_strip",
            "transform_strip",
        ],
    ),
    (
        "crates/serve/src/cell.rs",
        &[
            // The epoch-swap read and publish paths: a reader pin must cost
            // two atomics and an Arc bump, never a fresh owned value, and
            // the publisher may allocate only through `Arc::new(snapshot)`
            // (taking ownership of the prebuilt snapshot, not copying it) —
            // a recycled epoch arrives as an `Arc` already. The sharded
            // bank rides the same contract: `broadcast` hands every shard a
            // refcount bump of one `Arc`, so no shard ever holds a copy of
            // the bytes, and hands the evicted epoch back.
            "load",
            "publish",
            "epoch",
            "pin",
            "broadcast",
        ],
    ),
    (
        "crates/serve/src/service.rs",
        &[
            // The serving read path: validation + pinned prefix lookups
            // into a caller-owned buffer; errors are plain-field variants
            // so the failure paths stay allocation-free too.
            "answer",
            "answer_into",
        ],
    ),
];

/// Token sequences forbidden inside hot-path kernels. `resize`, `reserve`,
/// and `push` are deliberately *not* here: the warm-up contract allows
/// capacity growth to the high-water mark (the counting-allocator test pins
/// the warm behaviour); what a kernel must never do is construct fresh
/// owned values per call.
pub const HOT_FORBIDDEN: &[&[&str]] = &[
    &["Vec", ":", ":", "new"],
    &["Vec", ":", ":", "with_capacity"],
    &["Vec", ":", ":", "from"],
    &["vec", "!"],
    &[".", "collect"],
    &[".", "to_vec"],
    &[".", "clone"],
    &[".", "to_string"],
    &[".", "to_owned"],
    &["Box", ":", ":", "new"],
    &["String", ":", ":", "new"],
    &["String", ":", ":", "from"],
    &["format", "!"],
];

/// Where the versioned backend enum lives.
pub const BACKEND_ENUM_PATH: &str = "crates/noise/src/backend.rs";

/// The test files CI runs per backend prefix; every `NoiseBackend` variant
/// must have at least one `<snake_case_variant>_*` test in **each** (the CI
/// bench-smoke job runs `cargo test --test <file> <prefix>_` per backend, so
/// a variant missing from either file silently loses its pin coverage).
pub const BACKEND_PIN_FILES: &[&str] = &["tests/golden_releases.rs", "tests/snapshot_serving.rs"];

/// Converts a `CamelCase` variant name to the `snake_case` golden-pin
/// prefix (`FastLn` → `fast_ln`).
pub fn snake_case(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for (i, c) in variant.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            for lc in c.to_lowercase() {
                out.push(lc);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// True if `rel_path` (workspace-relative, `/`-separated) matches `pat`: a
/// trailing-`/` pattern is a directory prefix, anything else is exact.
pub fn path_matches(rel_path: &str, pat: &str) -> bool {
    if let Some(dir) = pat.strip_suffix('/') {
        rel_path.starts_with(dir) && rel_path.as_bytes().get(dir.len()) == Some(&b'/')
    } else {
        rel_path == pat
    }
}

/// True if any pattern in `pats` matches.
pub fn path_in(rel_path: &str, pats: &[&str]) -> bool {
    pats.iter().any(|p| path_matches(rel_path, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_matches_backend_names() {
        assert_eq!(snake_case("Reference"), "reference");
        assert_eq!(snake_case("FastLn"), "fast_ln");
        assert_eq!(snake_case("AVX512"), "a_v_x512");
    }

    #[test]
    fn dir_patterns_need_a_separator() {
        assert!(path_matches(
            "crates/noise/src/laplace.rs",
            "crates/noise/src/"
        ));
        assert!(!path_matches(
            "crates/noise/srcx/laplace.rs",
            "crates/noise/src/"
        ));
        assert!(path_matches(
            "crates/linalg/src/chol.rs",
            "crates/linalg/src/chol.rs"
        ));
        assert!(!path_matches(
            "crates/linalg/src/chol.rs.bak",
            "crates/linalg/src/chol.rs"
        ));
    }
}
