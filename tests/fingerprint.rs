//! Fingerprint stability over the real benchmark suite.
//!
//! The persistent store keys evaluations by a content digest of the
//! patched design, so two properties carry the whole cache's
//! correctness: the digest must be *stable* — hashing the design you
//! get back from printing and re-parsing a variant yields the same
//! digest (otherwise a cache written by one run would be unreadable by
//! the next) — and it must be *discriminating* — variants that print
//! differently never collide (a collision would serve one mutant the
//! other's fitness). Both are checked against every registered
//! benchmark scenario, over the space of single-edit patches.

use std::collections::HashMap;

use cirfix::{apply_patch, variant_fingerprint, Edit, Patch};
use cirfix_ast::{print, visit};
use cirfix_store::{Digest, Fnv128};

/// Every single-edit patch this harness can enumerate deterministically:
/// one delete/negate/blocking-swap per statement and one
/// increment/decrement per expression of the design modules.
fn single_edit_patches(file: &cirfix_ast::SourceFile, design_modules: &[String]) -> Vec<Patch> {
    let mut patches = Vec::new();
    for module in file
        .modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
    {
        for stmt in visit::stmts_of_module(module) {
            let id = stmt.id();
            patches.push(Patch::single(Edit::DeleteStmt { target: id }));
            patches.push(Patch::single(Edit::NegateCond { target: id }));
            patches.push(Patch::single(Edit::BlockingToNonBlocking { target: id }));
            patches.push(Patch::single(Edit::NonBlockingToBlocking { target: id }));
        }
        for expr in visit::exprs_of_module(module) {
            patches.push(Patch::single(Edit::IncrementExpr { target: expr.id() }));
            patches.push(Patch::single(Edit::DecrementExpr { target: expr.id() }));
        }
    }
    patches
}

/// The canonical text the fingerprint hashes: the design modules'
/// pretty-print (testbench modules are covered by the scenario digest).
fn design_text(file: &cirfix_ast::SourceFile, design_modules: &[String]) -> String {
    file.modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
        .map(|m| print::module_to_string(m))
        .collect()
}

#[test]
fn fingerprints_survive_a_print_parse_round_trip() {
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let key = Digest(0x5eed);
        for patch in single_edit_patches(&problem.source, &problem.design_modules) {
            let (variant, stats) = apply_patch(&problem.source, &problem.design_modules, &patch);
            if stats.applied == 0 {
                continue;
            }
            let direct = variant_fingerprint(key, &variant, &problem.design_modules);
            let reparsed = cirfix_parser::parse(&design_text(&variant, &problem.design_modules))
                .unwrap_or_else(|e| panic!("{}: printed variant must re-parse: {e}", scenario.id));
            let round_tripped = variant_fingerprint(key, &reparsed, &problem.design_modules);
            assert_eq!(
                direct, round_tripped,
                "{}: fingerprint changed across print -> parse for {patch:?}",
                scenario.id
            );
        }
    }
}

#[test]
fn distinct_variants_never_collide_on_any_benchmark() {
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let key = Digest(0x5eed);
        // Patches that *print identically* must share a fingerprint —
        // that is the cache's dedup working as intended — so bucket by
        // canonical text first and require exactly one digest per text
        // and one text per digest.
        let mut by_digest: HashMap<u128, String> = HashMap::new();
        let mut by_text: HashMap<String, Digest> = HashMap::new();
        for patch in single_edit_patches(&problem.source, &problem.design_modules) {
            let (variant, _) = apply_patch(&problem.source, &problem.design_modules, &patch);
            let text = design_text(&variant, &problem.design_modules);
            let digest = variant_fingerprint(key, &variant, &problem.design_modules);
            if let Some(previous) = by_text.get(&text) {
                assert_eq!(
                    *previous, digest,
                    "{}: equal prints must fingerprint equally",
                    scenario.id
                );
                continue;
            }
            by_text.insert(text.clone(), digest);
            if let Some(other) = by_digest.insert(digest.0, text.clone()) {
                panic!(
                    "{}: fingerprint collision between distinct variants:\n--- a ---\n{other}\n--- b ---\n{text}",
                    scenario.id
                );
            }
        }
        assert!(
            by_digest.len() > 1,
            "{}: the harness must exercise more than one distinct variant",
            scenario.id
        );
    }
}

/// The canonical prints of every design module of every scenario and of
/// every single-edit variant, as one digest. Store keys hash exactly
/// these bytes, so a printer change that moves this digest would strand
/// every persisted evaluation.
#[test]
fn canonical_prints_are_pinned() {
    let mut originals = Fnv128::new();
    let mut all = Fnv128::new();
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let design = &problem.design_modules;
        for module in problem.source.modules.iter() {
            if design.contains(&module.name) {
                let text = print::module_to_string(module);
                originals.write_str(&text);
                all.write_str(&text);
            }
        }
        for patch in single_edit_patches(&problem.source, design) {
            let (variant, _) = apply_patch(&problem.source, design, &patch);
            for module in variant.modules.iter() {
                if design.contains(&module.name) {
                    all.write_str(&print::module_to_string(module));
                }
            }
        }
    }
    assert_eq!(
        originals.finish().to_hex(),
        "214c19ea4583bf36e38b5f3c01dbcda8",
        "the original designs print differently"
    );
    assert_eq!(
        all.finish().to_hex(),
        "c1979130e54ad24f1f71a22be24d3baf",
        "a variant prints differently"
    );
}
