//! Self-tests: every rule must fire on its violating fixture, stay quiet
//! on the clean one, and honour waivers — plus the capstone check that the
//! workspace itself is lint-clean.
//!
//! Fixtures live in `crates/xtask/fixtures/` (excluded from the workspace
//! walk — `fixtures` is a skipped directory) and are linted here through
//! [`xtask::lint_source`] under *synthetic* workspace paths, so the same
//! file can be exercised as a compute-crate source or as an exempt one.

use xtask::rules::Rule;

/// Lint `source` as if it lived at `rel_path`; return the fired rules.
fn rules_at(rel_path: &str, source: &str) -> Vec<Rule> {
    let (findings, _) = xtask::lint_source(rel_path, source);
    findings.into_iter().map(|f| f.rule).collect()
}

const COMPUTE_PATH: &str = "crates/core/src/fixture.rs";

#[test]
fn hashmap_iteration_in_compute_crate_fires() {
    let src = include_str!("../fixtures/bad_hashmap_iter.rs");
    let rules = rules_at(COMPUTE_PATH, src);
    assert!(
        rules
            .iter()
            .filter(|r| **r == Rule::NondeterministicIter)
            .count()
            >= 2,
        "expected the for-loop and the .iter() chain to fire: {rules:?}"
    );
}

#[test]
fn hashmap_iteration_outside_compute_crates_is_exempt() {
    // Same source under a non-compute crate: experiment harness code may
    // iterate hash maps (it never feeds the determinism contract).
    let src = include_str!("../fixtures/bad_hashmap_iter.rs");
    assert_eq!(rules_at("crates/datasets/src/fixture.rs", src), vec![]);
}

#[test]
fn btreemap_iteration_and_hashmap_lookup_are_clean() {
    let src = include_str!("../fixtures/clean_btreemap_iter.rs");
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![]);
}

#[test]
fn waiver_silences_and_is_reported() {
    let src = include_str!("../fixtures/waived_hashmap_iter.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![], "waived finding must not fire");
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::NondeterministicIter);
    assert!(waivers[0].reason.contains("per-entry rewrite"));
}

#[test]
fn waiver_without_reason_does_not_waive() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, u32>) -> usize {\n\
               // lint: nondeterministic-iter-ok()\n\
               m.iter().count()\n\
               }\n";
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings.len(), 1, "empty reason must not waive");
    assert_eq!(waivers, vec![]);
}

#[test]
fn ambient_time_fires_in_compute_crates_only() {
    let src = include_str!("../fixtures/bad_ambient_time.rs");
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![Rule::AmbientTime]);
    // Bench code measures wall time by design.
    assert_eq!(rules_at("crates/core/benches/fixture.rs", src), vec![]);
}

#[test]
fn random_state_fires_anywhere() {
    let src = include_str!("../fixtures/bad_random_state.rs");
    let rules = rules_at("crates/datasets/src/fixture.rs", src);
    assert!(
        rules.contains(&Rule::RandomState),
        "RandomState is banned even outside compute crates: {rules:?}"
    );
}

#[test]
fn rand_crate_fires_anywhere() {
    let src = include_str!("../fixtures/bad_rand_crate.rs");
    let rules = rules_at("crates/datasets/src/fixture.rs", src);
    assert!(rules.contains(&Rule::RandCrate), "{rules:?}");
}

#[test]
fn env_read_allowlist() {
    let bad = include_str!("../fixtures/bad_env_read.rs");
    assert_eq!(rules_at(COMPUTE_PATH, bad), vec![Rule::EnvRead]);
    let clean = include_str!("../fixtures/clean_env_read.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn undocumented_unsafe_fires_and_safety_comment_passes() {
    let bad = include_str!("../fixtures/bad_unsafe.rs");
    assert_eq!(rules_at(COMPUTE_PATH, bad), vec![Rule::UndocumentedUnsafe]);
    let clean = include_str!("../fixtures/clean_unsafe.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn unsafe_rule_applies_even_in_test_code() {
    // #[cfg(test)] regions are exempt from the compute rules, not from the
    // unsafe rule — UB in a test is still UB.
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               #[test]\n\
               fn t() {\n\
               let xs = [1u8];\n\
               let _ = unsafe { *xs.as_ptr() };\n\
               }\n\
               }\n";
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![Rule::UndocumentedUnsafe]);
}

#[test]
fn target_feature_needs_scalar_sibling() {
    let bad = include_str!("../fixtures/bad_target_feature.rs");
    assert_eq!(
        rules_at(COMPUTE_PATH, bad),
        vec![Rule::MissingScalarSibling]
    );
    let clean = include_str!("../fixtures/clean_target_feature.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn float_reduction_exempt_only_in_kernel_layer() {
    let src = include_str!("../fixtures/bad_float_reduction.rs");
    assert_eq!(
        rules_at(COMPUTE_PATH, src),
        vec![Rule::UnfusedFloatReduction]
    );
    // The fixed-lane layers own their reductions.
    assert_eq!(rules_at("crates/linalg/src/fixture.rs", src), vec![]);
    assert_eq!(rules_at("crates/runtime/src/kernel.rs", src), vec![]);
}

#[test]
fn compute_rules_skip_test_regions() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               use std::collections::HashMap;\n\
               #[test]\n\
               fn t() {\n\
               let m: HashMap<u32, u32> = HashMap::new();\n\
               let _ = m.iter().count();\n\
               let _ = std::time::Instant::now();\n\
               }\n\
               }\n";
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![]);
}

#[test]
fn seed_arithmetic_fires_through_laundering() {
    let src = include_str!("../fixtures/bad_seed_arithmetic.rs");
    let rules = rules_at(COMPUTE_PATH, src);
    assert_eq!(
        rules,
        vec![Rule::SeedArithmetic, Rule::SeedArithmetic],
        "expected both `seed ^ 1` and the laundered `.wrapping_add`: {rules:?}"
    );
    let clean = include_str!("../fixtures/clean_seed_arithmetic.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn seed_arithmetic_waiver_is_reported() {
    let src = include_str!("../fixtures/waived_seed_arithmetic.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![]);
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::SeedArithmetic);
}

#[test]
fn seed_arithmetic_exempt_in_derivation_layer() {
    // The SplitMix64 finalizer *is* seed arithmetic; the sanctioned layer
    // is exempt by file path.
    let src = include_str!("../fixtures/bad_seed_arithmetic.rs");
    assert_eq!(rules_at("crates/runtime/src/seed.rs", src), vec![]);
}

#[test]
fn unjournalled_mutation_fires_and_journalled_is_clean() {
    let bad = include_str!("../fixtures/bad_unjournalled_mutation.rs");
    let (findings, _) = xtask::lint_source(COMPUTE_PATH, bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::UnjournalledMutation);
    assert!(
        findings[0].end_line > findings[0].line,
        "the finding spans the whole method body"
    );
    assert!(findings[0].message.contains("clobber"));

    let clean = include_str!("../fixtures/clean_unjournalled_mutation.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn unjournalled_mutation_waiver_is_reported() {
    let src = include_str!("../fixtures/waived_unjournalled_mutation.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![]);
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::UnjournalledMutation);
}

#[test]
fn manual_float_accumulation_fires_over_hash_sources_only() {
    let bad = include_str!("../fixtures/bad_manual_float_accum.rs");
    let rules = rules_at(COMPUTE_PATH, bad);
    // The hash loop itself also fires the iteration rule; both contracts
    // are broken and both must show up.
    assert!(rules.contains(&Rule::ManualFloatAccumulation), "{rules:?}");
    assert!(rules.contains(&Rule::NondeterministicIter), "{rules:?}");

    let clean = include_str!("../fixtures/clean_manual_float_accum.rs");
    assert_eq!(rules_at(COMPUTE_PATH, clean), vec![]);
}

#[test]
fn manual_float_accumulation_waivers_cover_both_rules() {
    let src = include_str!("../fixtures/waived_manual_float_accum.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![]);
    let mut waived: Vec<Rule> = waivers.iter().map(|w| w.rule).collect();
    waived.sort_by_key(|r| r.name());
    assert_eq!(
        waived,
        vec![Rule::ManualFloatAccumulation, Rule::NondeterministicIter]
    );
}

#[test]
fn panic_path_fires_on_unwrap_and_unproven_literal_index() {
    let src = include_str!("../fixtures/bad_panic_path.rs");
    let (findings, _) = xtask::lint_source(COMPUTE_PATH, src);
    let rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec![Rule::PanicPath, Rule::PanicPath],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("`.unwrap()`")));
    assert!(findings.iter().any(|f| f.message.contains("literal index")));
}

#[test]
fn panic_path_documented_contracts_and_proven_bounds_are_clean() {
    // A `# Panics` doc section covers the `.expect`; the literal index is
    // proven in bounds by the `[0.0f32; 4]` initialiser.
    let src = include_str!("../fixtures/clean_panic_path.rs");
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![]);
}

#[test]
fn panic_path_waiver_works_on_the_same_line() {
    let src = include_str!("../fixtures/waived_panic_path.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![]);
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::PanicPath);
}

#[test]
fn waiver_line_above_and_same_line_are_equivalent() {
    let above = "pub fn f(xs: &[u32]) -> u32 {\n\
                 // lint: panic-path-ok(caller contract)\n\
                 xs.first().copied().unwrap()\n\
                 }\n";
    let same = "pub fn f(xs: &[u32]) -> u32 {\n\
                xs.first().copied().unwrap() // lint: panic-path-ok(caller contract)\n\
                }\n";
    for src in [above, same] {
        let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
        assert_eq!(findings, vec![], "waiver placement must not matter");
        assert_eq!(waivers.len(), 1);
    }
}

#[test]
fn index_resolves_helper_returned_hashmap_across_files() {
    let helper = include_str!("../fixtures/xfile_hash_helper.rs");
    let caller = include_str!("../fixtures/xfile_hash_caller.rs");
    // Linted alone the caller is silent — nothing says the return type.
    assert_eq!(rules_at("crates/core/src/caller.rs", caller), vec![]);
    // With the helper in the index, the call-site iteration fires.
    let (findings, _) = xtask::lint_files(&[
        ("crates/core/src/stats.rs", helper),
        ("crates/core/src/caller.rs", caller),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::NondeterministicIter);
    assert_eq!(findings[0].file, "crates/core/src/caller.rs");
}

#[test]
fn index_resolves_seed_laundered_through_a_local_across_files() {
    let helper = include_str!("../fixtures/xfile_seed_helper.rs");
    let caller = include_str!("../fixtures/xfile_seed_caller.rs");
    assert_eq!(rules_at("crates/core/src/caller.rs", caller), vec![]);
    let (findings, _) = xtask::lint_files(&[
        ("crates/core/src/ids.rs", helper),
        ("crates/core/src/caller.rs", caller),
    ]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::SeedArithmetic);
    assert_eq!(findings[0].file, "crates/core/src/caller.rs");
}

#[test]
fn index_resolves_scalar_sibling_across_files() {
    let simd = include_str!("../fixtures/bad_target_feature.rs");
    let sibling = include_str!("../fixtures/xfile_scalar_sibling.rs");
    // Alone: no sibling in sight.
    assert_eq!(
        rules_at(COMPUTE_PATH, simd),
        vec![Rule::MissingScalarSibling]
    );
    // With the sibling declared in another file, the index resolves it.
    let (findings, _) = xtask::lint_files(&[
        ("crates/core/src/simd.rs", simd),
        ("crates/core/src/scalar.rs", sibling),
    ]);
    assert_eq!(findings, vec![], "cross-file sibling must satisfy the rule");
}

#[test]
fn compute_rules_skip_cfg_feature_regions() {
    // The `timing` pattern: clock reads compiled in behind a cargo
    // feature are diagnostics by construction.
    let src = "#[cfg(feature = \"timing\")]\n\
               mod stopwatch {\n\
               pub fn now() -> std::time::Instant {\n\
               std::time::Instant::now()\n\
               }\n\
               }\n";
    assert_eq!(rules_at(COMPUTE_PATH, src), vec![]);
}

#[test]
fn waivers_json_snapshot() {
    let src = include_str!("../fixtures/waived_hashmap_iter.rs");
    let (findings, waivers) = xtask::lint_source(COMPUTE_PATH, src);
    assert_eq!(findings, vec![]);
    let json = xtask::diag::waivers_json(&waivers);
    let expected = "{\n  \"schema_version\": 2,\n  \"total\": 1,\n  \"counts\": {\n    \"nondeterministic-iter\": 1,\n    \"ambient-time\": 0,\n    \"random-state\": 0,\n    \"rand-crate\": 0,\n    \"env-read\": 0,\n    \"undocumented-unsafe\": 0,\n    \"missing-scalar-sibling\": 0,\n    \"unfused-float-reduction\": 0,\n    \"seed-arithmetic\": 0,\n    \"unjournalled-mutation\": 0,\n    \"manual-float-accumulation\": 0,\n    \"panic-path\": 0\n  },\n  \"waivers\": [\n    {\"file\": \"crates/core/src/fixture.rs\", \"line\": 7, \"rule\": \"nondeterministic-iter\", \"reason\": \"per-entry rewrite, visit order cannot influence results\"}\n  ]\n}";
    assert_eq!(json, expected, "got:\n{json}");
}

#[test]
fn cli_exits_two_on_unreadable_root() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root", "/nonexistent/xtask-lint-root"])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2), "i/o failure must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("i/o error"), "{stderr}");
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_when_clean() {
    let dir = std::env::temp_dir().join(format!("xtask-cli-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("../fixtures/bad_unsafe.rs"),
    )
    .expect("write fixture");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error[xtask::undocumented-unsafe]"),
        "rustc-style diagnostic expected, got:\n{stderr}"
    );

    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("../fixtures/clean_unsafe.rs"),
    )
    .expect("write fixture");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--quiet", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = xtask::lint_root(&root).expect("walk the workspace");
    assert!(
        report.files_scanned > 100,
        "walked {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(xtask::diag::render).collect();
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        rendered.join("\n")
    );
    // Every waiver in force carries a reason (parse enforces it); the
    // count is tracked so silent growth shows up in review.
    assert!(
        report.waivers.iter().all(|w| !w.reason.trim().is_empty()),
        "waivers must carry reasons"
    );
    // The audited inventory is 3: one iteration-order waiver whose keys
    // are sorted before exposure (reldb) and two serial-reduction waivers
    // in ml::smo. New waivers are a reviewed event, not a default.
    assert!(
        report.waivers.len() <= 3,
        "waiver inventory grew past the audited 3:\n{:#?}",
        report.waivers
    );
}
