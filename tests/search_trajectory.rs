//! Pins the GP search trajectory on real Table 3 scenarios: the
//! canonical, timing-free result of `repair_with_trials` (seed 42, three
//! trials) must hash to the same digest as when these goldens were
//! recorded. The canonical result carries every search-determined
//! counter (fitness evals, cache and store hits, generations, the
//! fitness history and the minimized patch), so any change to the RNG
//! stream, the order of evaluations or the side effects of reproduction
//! shows up here — even one that leaves the repair itself unchanged.
//!
//! The cases cover the search's distinct paths:
//! - `flip_flop_cond` is repaired inside the seed population;
//! - `flip_flop_branches` is repaired after several generations;
//! - `mux_width` runs all three trials to the generation cap without
//!   a repair;
//! - `mux_width` at 1,000 evaluations runs each trial out of its
//!   evaluation budget, so the batch the budget runs out in is cut;
//! - `counter_reset` runs with `relocalize: false`, so every parent
//!   reuses the original design's fault localization;
//! - `counter_reset` runs with tight bloat limits, so parents reset to
//!   the original, once for patch length and once for AST growth. The
//!   stock limits never trigger a reset on Table 3.
//!
//! A change that alters the search on purpose must re-record the
//! digests and say why in its description.

use std::time::Duration;

use cirfix::{repair_with_trials, result_to_canonical_json, RepairConfig};
use cirfix_store::Fnv128;

/// `RepairConfig::fast(42)` with a timeout no trial comes near, so the
/// wall clock (the one host-dependent stop condition) never ends a
/// trial. A trial stops on a repair or at the generation cap: its
/// 6,000-evaluation budget outlasts eight generations of 300.
fn config() -> RepairConfig {
    RepairConfig {
        timeout: Duration::from_secs(3600),
        ..RepairConfig::fast(42)
    }
}

/// The Fnv128 digest of the canonical result of three trials.
fn trajectory_digest(id: &str, config: &RepairConfig) -> String {
    let scenario = cirfix_benchmarks::scenario(id).expect("known scenario");
    let problem = scenario.problem().expect("scenario builds");
    let result = repair_with_trials(&problem, config, 3);
    let mut h = Fnv128::new();
    h.write_str(&result_to_canonical_json(&result).to_json());
    h.finish().to_hex()
}

#[test]
fn seed_phase_repair_is_unchanged() {
    assert_eq!(
        trajectory_digest("flip_flop_cond", &config()),
        "f0876589738dce5c7640f2a8443308c9"
    );
}

#[test]
fn multi_generation_repair_is_unchanged() {
    assert_eq!(
        trajectory_digest("flip_flop_branches", &config()),
        "b8171dacc8f5fc1e9e503c1bc17dbefb"
    );
}

#[test]
fn budget_exhausting_search_is_unchanged() {
    assert_eq!(
        trajectory_digest("mux_width", &config()),
        "c066e630171abc0e52144d51c3c4f894"
    );
}

#[test]
fn budget_bound_search_is_unchanged() {
    let config = RepairConfig {
        max_fitness_evals: 1000,
        ..config()
    };
    assert_eq!(
        trajectory_digest("mux_width", &config),
        "de2be37d40ed1f64849dfb65f7f48031"
    );
}

#[test]
fn search_without_relocalization_is_unchanged() {
    let config = RepairConfig {
        relocalize: false,
        ..config()
    };
    assert_eq!(
        trajectory_digest("counter_reset", &config),
        "7823b4a32d3c62e549a5a83d50e0d909"
    );
}

#[test]
fn bloat_resets_are_unchanged() {
    let long_patches = RepairConfig {
        max_patch_len: 1,
        ..config()
    };
    assert_eq!(
        trajectory_digest("counter_reset", &long_patches),
        "d1cd663c4ec999bc191391bba7571ce0"
    );
    let grown_designs = RepairConfig {
        max_growth: 1.0,
        ..config()
    };
    assert_eq!(
        trajectory_digest("counter_reset", &grown_designs),
        "b06c1bbd5c95561f42bef3bb49630b59"
    );
}
