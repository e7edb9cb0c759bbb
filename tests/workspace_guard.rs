//! Guards the workspace-test footgun: because the root manifest doubles as
//! the `fuiov` facade package, a bare `cargo test` from the repo root runs
//! ONLY this package's suites. These checks pin the defences — the tier-1
//! script must use `--workspace` (or target a specific `-p` package), and
//! the manifests must keep the warning and the `cargo t` alias — so the
//! trap cannot silently reopen.

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn tier1_never_runs_a_bare_cargo_test() {
    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    assert!(
        script.contains("cargo test --workspace"),
        "tier1.sh must run the full workspace suite"
    );
    for (i, line) in script.lines().enumerate() {
        let code = line.split('#').next().unwrap_or("");
        if code.contains("grep") || code.contains("echo") {
            continue; // the guard stage talks about the pattern it bans
        }
        if let Some(pos) = code.find("cargo test") {
            let rest = &code[pos..];
            assert!(
                rest.contains("--workspace") || rest.contains("-p "),
                "tier1.sh line {}: bare `cargo test` would silently skip crates/*: {line}",
                i + 1
            );
        }
    }
}

#[test]
fn manifest_documents_the_footgun_and_alias_covers_it() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("Cargo.toml exists");
    assert!(
        manifest.contains("cargo test --workspace"),
        "the workspace manifest must warn about bare `cargo test`"
    );
    let config = fs::read_to_string(root().join(".cargo/config.toml")).expect("config exists");
    assert!(
        config.contains("t = \"test --workspace\""),
        ".cargo/config.toml must alias `cargo t` to the workspace suite"
    );
}

#[test]
fn ci_runs_the_same_stages_as_tier1() {
    // CI must not drift from the local gate: every stage it invokes goes
    // through scripts/tier1.sh, and the stages it names must exist there.
    let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml exists");
    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    let mut invoked = 0;
    for line in ci.lines() {
        let line = line.trim();
        let Some(args) = line.strip_prefix("run: bash scripts/tier1.sh") else {
            continue;
        };
        for stage in args.split_whitespace() {
            invoked += 1;
            assert!(
                script.contains(&format!("stage_{stage}()")),
                "ci.yml invokes unknown tier1 stage `{stage}`"
            );
        }
    }
    assert!(
        invoked >= 16,
        "ci.yml must drive its checks through tier1.sh stages, found {invoked}"
    );
}

#[test]
fn ci_seed_matrices_match_the_seed_matrix_file() {
    // The fault seeds are single-sourced in scripts/seed_matrix.txt
    // (tier1.sh reads it at run time). GitHub job matrices cannot read
    // files, so ci.yml repeats the values — this test is the drift gate.
    let seeds = fs::read_to_string(root().join("scripts/seed_matrix.txt"))
        .expect("scripts/seed_matrix.txt exists");
    let seeds: Vec<&str> = seeds.split_whitespace().collect();
    assert!(
        !seeds.is_empty(),
        "seed_matrix.txt must list at least one seed"
    );
    let expected = format!("seed: [{}]", seeds.join(", "));

    let script = fs::read_to_string(root().join("scripts/tier1.sh")).expect("tier1.sh exists");
    assert!(
        script.contains("seed_matrix.txt"),
        "tier1.sh must default its fault seeds from scripts/seed_matrix.txt"
    );

    let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml exists");
    let mut matrices = 0;
    for (i, line) in ci.lines().enumerate() {
        let line = line.trim();
        if line.starts_with("seed: [") {
            matrices += 1;
            assert_eq!(
                line,
                expected,
                "ci.yml line {}: seed matrix drifted from scripts/seed_matrix.txt",
                i + 1
            );
        }
    }
    assert!(
        matrices >= 4,
        "ci.yml should fan out at least the fault-matrix, job-resume, scale, \
         and lab jobs over the seed matrix, found {matrices}"
    );
}
