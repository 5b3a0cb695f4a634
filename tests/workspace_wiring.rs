//! Guardrails for the workspace wiring itself: the examples stay
//! buildable, and the documentation's description of the workspace stays
//! consistent with the manifests on disk.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file in `examples/` must be a runnable example: auto-discoverable
/// by cargo (a `.rs` file directly in the directory) with a `main`. The
/// actual compile is exercised by `every_example_compiles` below and by
/// `cargo test`, which builds example targets as a side effect.
#[test]
fn examples_are_wellformed_and_discoverable() {
    let dir = repo_root().join("examples");
    let mut count = 0;
    for entry in fs::read_dir(&dir).expect("examples/ exists") {
        let path = entry.expect("readable dir entry").path();
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs"),
            "{path:?}: examples/ should contain only auto-discovered .rs files"
        );
        let source = fs::read_to_string(&path).expect("readable example");
        assert!(source.contains("fn main"), "{path:?} has no `fn main`");
        count += 1;
    }
    assert!(count >= 5, "expected the seed's five examples, found {count}");
}

/// Compile every example via the same cargo that runs this test. By the
/// time tests execute, `cargo test` has already built the example targets,
/// so this is an incremental near-no-op that still fails loudly if an
/// example ever rots out of the build graph.
#[test]
fn every_example_compiles() {
    let status = std::process::Command::new(env!("CARGO"))
        .args(["build", "--examples", "--quiet"])
        .current_dir(repo_root())
        .status()
        .expect("cargo is runnable from tests");
    assert!(status.success(), "`cargo build --examples` failed: {status}");
}

/// Parse `| `name` | `path` | ...` rows out of README's layout table.
fn readme_layout_rows(readme: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in readme.lines() {
        let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
        let (Some(name), Some(path)) = (cells.next(), cells.next()) else { continue };
        if let (Some(name), Some(path)) = (
            name.strip_prefix('`').and_then(|n| n.strip_suffix('`')),
            path.strip_prefix('`').and_then(|p| p.strip_suffix('`')),
        ) {
            rows.push((name.to_string(), path.to_string()));
        }
    }
    rows
}

/// Every crate README's layout table names must exist on disk with a
/// manifest, and every workspace member under `crates/` (shims aside) must
/// be documented in the table — the table cannot silently rot.
#[test]
fn readme_layout_table_matches_workspace() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let rows = readme_layout_rows(&readme);

    let mut documented = BTreeSet::new();
    for (name, rel_path) in &rows {
        let dir = root.join(rel_path);
        assert!(dir.is_dir(), "README lists `{name}` at `{rel_path}`, which is not a directory");
        if *rel_path != "crates/shims" {
            // The shims row names a directory of crates, not one package.
            let manifest =
                if *rel_path == "src/" { root.join("Cargo.toml") } else { dir.join("Cargo.toml") };
            assert!(
                manifest.is_file(),
                "README lists `{name}` at `{rel_path}` but {manifest:?} is missing"
            );
            let body = fs::read_to_string(&manifest).expect("readable manifest");
            assert!(
                body.contains(&format!("name = \"{name}\"")),
                "manifest at `{rel_path}` does not declare package name `{name}`"
            );
        }
        documented.insert(rel_path.clone());
    }
    assert!(documented.contains("src/"), "README layout table must document the umbrella crate");

    // Reverse direction: every non-shim crate directory is in the table.
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.file_name().and_then(|n| n.to_str()) == Some("shims") {
            assert!(
                documented.contains("crates/shims"),
                "README layout table must mention the shims"
            );
            continue;
        }
        let rel = format!("crates/{}", path.file_name().unwrap().to_str().unwrap());
        assert!(
            documented.contains(&rel),
            "crate at `{rel}` is missing from README's layout table"
        );
    }
}

/// Every crate the README documents is a workspace member (and the members
/// list stays sorted within each group, to keep merges clean).
#[test]
fn readme_crates_are_workspace_members() {
    let root = repo_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members: Vec<&str> = manifest
        .lines()
        .skip_while(|l| !l.starts_with("members"))
        .take_while(|l| !l.contains(']'))
        .filter_map(|l| l.trim().strip_prefix('"').and_then(|l| l.strip_suffix("\",")))
        .collect();
    assert!(!members.is_empty(), "could not parse workspace members from Cargo.toml");

    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    for (name, rel_path) in readme_layout_rows(&readme) {
        if rel_path.starts_with("crates/") && rel_path != "crates/shims" {
            assert!(
                members.contains(&rel_path.as_str()),
                "README documents `{name}` at `{rel_path}`, which is not a workspace member"
            );
        }
    }

    let sorted: Vec<&str> = {
        let mut s = members.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(members, sorted, "workspace members should stay sorted");
}

/// The quickstart the README advertises must exist under that exact name.
#[test]
fn readme_quickstart_example_exists() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    assert!(readme.contains("--example quickstart"), "README must show the quickstart invocation");
    assert!(root.join("examples/quickstart.rs").is_file(), "examples/quickstart.rs is missing");
}

/// The docs and workflows that tell a reader what to run.
fn runnable_docs(root: &std::path::Path) -> Vec<PathBuf> {
    let mut docs = vec![
        root.join("README.md"),
        root.join("ARCHITECTURE.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    for entry in fs::read_dir(root.join(".github/workflows")).expect("workflows dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("yml") {
            docs.push(path);
        }
    }
    docs
}

/// Every binary target of the workspace: `src/bin/*.rs` stems plus
/// `[[bin]]` names, over the root package and each crate.
fn workspace_bin_targets(root: &std::path::Path) -> BTreeSet<String> {
    let mut packages = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        packages.push(entry.expect("readable dir entry").path());
    }
    let mut bins = BTreeSet::new();
    for dir in packages {
        if let Ok(rd) = fs::read_dir(dir.join("src/bin")) {
            for entry in rd {
                let path = entry.expect("readable dir entry").path();
                if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                    bins.insert(path.file_stem().unwrap().to_str().unwrap().to_string());
                }
            }
        }
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        let mut in_bin_table = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_bin_table = line == "[[bin]]";
            } else if let Some(name) = line.strip_prefix("name = \"").filter(|_| in_bin_table) {
                bins.insert(name.trim_end_matches('"').to_string());
            }
        }
    }
    bins
}

/// A `--bin <name>` or `BENCH_<name>.json` in the README, ARCHITECTURE,
/// the verify skill or a workflow must name a binary target / a file at
/// the repo root that exists: a deleted bench cannot live on as a recipe.
/// (A `BENCH_` name behind a `/` is an output path somewhere else, and
/// `BENCH_*.json` names no file; `--bin {a,b}` shorthand fails as no name.)
#[test]
fn docs_name_only_existing_bins_and_bench_files() {
    let root = repo_root();
    let bins = workspace_bin_targets(&root);
    assert!(bins.contains("p3") && bins.contains("run_all"), "bin scan is broken: {bins:?}");
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    for doc in runnable_docs(&root) {
        let text = fs::read_to_string(&doc).unwrap_or_else(|e| panic!("read {doc:?}: {e}"));
        for (at, marker) in text.match_indices("--bin ") {
            let rest = &text[at + marker.len()..];
            let name = &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())];
            assert!(bins.contains(name), "{doc:?} says `--bin {name}`: no such binary target");
        }
        for (at, _) in text.match_indices("BENCH_") {
            let rest = &text[at..];
            let stem = &rest[..rest.find(|c| !is_name(c)).unwrap_or(rest.len())];
            if text[..at].ends_with('/') || !rest[stem.len()..].starts_with(".json") {
                continue;
            }
            let file = format!("{stem}.json");
            assert!(root.join(&file).is_file(), "{doc:?} cites `{file}`: no such file at the root");
        }
    }
}

/// Every `.rs` file under `dir`, recursively (build output skipped).
fn rust_sources(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// An upper-case `*.md` name in a source file, the README, ARCHITECTURE,
/// the verify skill or a workflow names a document at the repo root (the
/// root's convention; one behind a `/` lives somewhere else). It must be
/// committed there, or be the one `run_all` writes: a citation of a
/// document nobody wrote sends the reader nowhere.
#[test]
fn sources_and_docs_cite_only_root_documents_that_exist() {
    const WRITTEN_BY_RUN_ALL: &str = "EXPERIMENTS.md";
    let root = repo_root();
    let run_all =
        fs::read_to_string(root.join("crates/bench/src/bin/run_all.rs")).expect("run_all");
    assert!(run_all.contains(&format!("Path::new(\"{WRITTEN_BY_RUN_ALL}\")")), "run_all moved");
    let mut files = runnable_docs(&root);
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let is_stem = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    let mut cited = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
        for (at, _) in text.match_indices(".md") {
            let before = &text[..at];
            let stem = &before[before.rfind(|c| !is_stem(c)).map_or(0, |i| i + 1)..];
            let inside_a_longer_name = |c: char| c.is_ascii_alphanumeric() || "/_.-".contains(c);
            if stem.is_empty()
                || before[..before.len() - stem.len()].ends_with(inside_a_longer_name)
                || text[at + 3..].starts_with(|c: char| c.is_ascii_alphanumeric())
            {
                continue;
            }
            let name = format!("{stem}.md");
            assert!(
                name == WRITTEN_BY_RUN_ALL || root.join(&name).is_file(),
                "{file:?} cites `{name}`: no such document at the root, and nothing writes one"
            );
            cited.insert(name);
        }
    }
    assert!(cited.contains("ARCHITECTURE.md") && cited.contains("README.md"), "{cited:?}");
}

/// Every `--flag` the README, ARCHITECTURE, the verify skill, a workflow
/// or the CLI's own usage text shows on a `p3 <subcommand>` line (or on
/// a line continuing one: after a trailing `\`, or opening with `--` /
/// `[--`) is a flag literal in `crates/cli/src/` — the CLI rejects what
/// it does not read, so a recipe naming a deleted flag no longer runs.
#[test]
fn docs_name_only_flags_the_cli_reads() {
    let root = repo_root();
    let cli_src = root.join("crates/cli/src");
    let main_rs = fs::read_to_string(cli_src.join("main.rs")).expect("cli main.rs");
    let sources: Vec<String> = fs::read_dir(&cli_src)
        .expect("crates/cli/src exists")
        .map(|entry| fs::read_to_string(entry.expect("readable dir entry").path()).expect("source"))
        .collect();
    // Subcommand names: the quoted strings on main's dispatch arms.
    let subcommands: Vec<&str> = main_rs
        .lines()
        .filter(|line| line.contains("=> commands::"))
        .flat_map(|line| line.split('"').skip(1).step_by(2))
        .collect();
    assert!(subcommands.contains(&"split") && subcommands.contains(&"proxy"), "{subcommands:?}");
    let names_subcommand = |line: &str| {
        line.match_indices("p3 ").any(|(at, _)| {
            let word = line[at + 3..].split(|c: char| !is_flag_char(c)).next().unwrap_or("");
            !line[..at].ends_with(is_flag_char) && subcommands.contains(&word)
        })
    };
    let mut docs = runnable_docs(&root);
    docs.push(cli_src.join("main.rs"));
    let mut checked = 0usize;
    for doc in docs {
        let text = fs::read_to_string(&doc).unwrap_or_else(|e| panic!("read {doc:?}: {e}"));
        let mut in_command = false;
        let mut continued = false;
        for line in text.lines() {
            // Doc comments and markdown quote their continuation lines.
            let bare = line.trim_start_matches(|c: char| c.is_whitespace() || "/!>#".contains(c));
            in_command = names_subcommand(line)
                || (in_command && (continued || bare.starts_with("--") || bare.starts_with("[--")));
            continued = line.trim_end().ends_with('\\');
            if !in_command {
                continue;
            }
            for (at, _) in line.match_indices("--") {
                let name = line[at + 2..].split(|c: char| !is_flag_char(c)).next().unwrap_or("");
                if name.is_empty() || line[..at].ends_with(is_flag_char) {
                    continue;
                }
                checked += 1;
                let read = sources.iter().any(|src| {
                    src.contains(&format!("\"{name}\"")) || src.contains(&format!("\"--{name}\""))
                });
                assert!(read, "{doc:?} shows `--{name}` on a p3 command line: the CLI reads no such flag\n  {line}");
            }
        }
    }
    assert!(checked > 40, "flag scan is broken: only {checked} flags seen");
}

fn is_flag_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}
