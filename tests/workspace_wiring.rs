//! Guardrails for the workspace wiring itself: the examples stay
//! buildable, and the documentation's description of the workspace stays
//! consistent with the manifests on disk.

use std::collections::{BTreeSet, HashMap};
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

/// `pub` items no shipping code calls, each with the one kind of reason
/// that lets a test-only item stay public: a `test oracle` (a reference
/// implementation tests compare the shipping one against), a `test seam`
/// (a switch only tests flip) or a `test observer` (a read-only value
/// only tests assert on).
#[rustfmt::skip]
const ALLOWED: &[(&str, &str, &str)] = &[
    ("crates/core/src/split.rs", "secret_plus_correction",
        "test oracle: Eq. 1's secret-side delta"),
    ("crates/core/src/transform.rs", "apply_linear",
        "test oracle: the `A` of Eq. 2 on its own"),
    ("crates/jpeg/src/dct.rs", "fdct_from_u8",
        "test oracle: the f32 DCT the AAN path is gated on"),
    ("crates/jpeg/src/dct.rs", "idct8x8",
        "test oracle: the f32 IDCT Eq. 2's pipeline is pinned to"),
    ("crates/jpeg/src/dct.rs", "idct_to_u8",
        "test oracle: the f32 IDCT the AAN path is gated on"),
    ("crates/jpeg/src/quant.rs", "dequantize",
        "test oracle: the f32 dequantizer feeding those IDCTs"),
    ("crates/vision/src/metrics.rs", "ssim",
        "test oracle: the yardstick privacy tests grade parts with"),
    ("crates/vision/src/resize.rs", "gamma_correct",
        "test oracle: the per-image gamma the LUT must match"),
    ("crates/par/src/features.rs", "set_force_scalar",
        "test seam: both dispatch paths in one process"),
    ("crates/storage/src/fault.rs", "tamper",
        "test seam: arms the rot fail-closed tests run on"),
    ("crates/net/src/http.rs", "MAX_HEADER_BYTES",
        "test observer: the guard a property probes past"),
    ("crates/net/src/proxy.rs", "secret_cache_len",
        "test observer: the secret cache's size"),
    ("crates/net/src/proxy.rs", "server_stats",
        "test observer: the serving counters, in-process"),
    ("crates/psp/src/service.rs", "photo_count",
        "test observer: the photo map's size"),
    ("crates/storage/src/lib.rs", "get_count",
        "test observer: blob reads, for singleflight tests"),
];

const REASON_KINDS: [&str; 3] = ["test oracle", "test seam", "test observer"];

/// Every `pub fn | const | static | struct | enum | trait | type | mod`
/// under `crates/*/src` (shims aside) is named outside its own file by
/// shipping code: `crates/*/src`, `src/`, `examples/` or `perfbench/src/`,
/// with comments, string contents, `#[cfg(test)]` items and `pub use`
/// re-exports stripped first. A type is also reached when a reached item
/// of its own file names it: a `pub fn` in its signature, a struct, enum
/// or alias in its definition. Anything else needs an `ALLOWED` entry,
/// and an entry whose item is gone or has since found a shipping caller
/// fails too.
#[test]
fn every_pub_item_has_a_shipping_caller() {
    let root = repo_root();
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).unwrap().to_str().unwrap().replace('\\', "/");
            (rel, fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}")))
        })
        .collect();
    let scan = scan_pub_items(&files);
    assert!(scan.declared > 300, "pub item scan is broken: only {} items seen", scan.declared);

    assert!(ALLOWED.len() <= 25, "the allow-list has grown to {} entries", ALLOWED.len());
    let failures = allow_list_failures(&scan, ALLOWED);
    assert!(failures.is_empty(), "{} failures:\n  {}", failures.len(), failures.join("\n  "));
}

/// Every uncalled item `allowed` does not list, and every entry of it
/// that is stale (its item gone or called) or gives a reason of no kind.
fn allow_list_failures(scan: &PubScan, allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(file, name, reason) in allowed {
        if !REASON_KINDS.iter().any(|kind| reason.starts_with(&format!("{kind}: "))) {
            failures.push(format!("{file}: `{name}`'s reason is none of {REASON_KINDS:?}"));
        }
        if !scan.declared_at(file, name) {
            failures.push(format!("{file}: allowed `{name}` is no longer a pub item there"));
        } else if !scan.uncalled.iter().any(|u| u.file == file && u.name == name) {
            failures.push(format!("{file}: allowed `{name}` now has a shipping caller"));
        }
    }
    for item in &scan.uncalled {
        if !allowed.iter().any(|&(file, name, _)| item.file == file && item.name == name) {
            failures.push(format!(
                "{}: pub {} `{}` has no shipping caller ({})",
                item.file, item.kind, item.name, item.named_by
            ));
        }
    }
    failures
}

/// The scanner's own edges: a name in a `#[cfg(test)]` item, a comment,
/// a string or a `pub use` line is no caller; one in another crate's
/// `src/` is, and so is a reached item's signature or definition. The
/// allow-list check fails a stale entry.
#[test]
fn pub_item_scan_strips_tests_comments_and_reexports() {
    let lib = "
        pub fn in_test_mod() {}
        pub fn in_comment() {}
        pub fn in_string() {}
        pub fn reexported() {}
        pub(crate) fn crate_visible() {}
        pub const fn called() -> Reached { Reached { nested: Nested } }
        pub struct Reached { pub nested: Nested }
        pub struct Nested;
        pub struct Unreached;
        pub mod inner {}
        /// `pub fn in_doc_comment() {}` declares nothing.
        #[cfg(test)]
        pub fn test_only() {}
        mod tests { pub fn in_plain_mod() {} }
    ";
    let user = r#"
        #[cfg(test)]
        mod tests {
            fn t() { a::in_test_mod(); a::test_only(); }
        }
        // a::in_comment();
        /* a::in_comment(); */
        const S: &str = "a::in_string()";
        const C: char = '"'; fn quote() -> char { C }
        pub use a::reexported;
        pub use a::{
            in_plain_mod, inner,
        };
        fn f<'a>(_: &'a str) { a::called(); }
    "#;
    let files = [
        ("crates/a/src/lib.rs".to_string(), lib.to_string()),
        ("crates/b/src/lib.rs".to_string(), user.to_string()),
        ("tests/it.rs".to_string(), "fn t() { a::in_comment(); a::Unreached; }".to_string()),
    ];
    let scan = scan_pub_items(&files);
    let mut uncalled: Vec<&str> = scan.uncalled.iter().map(|u| u.name.as_str()).collect();
    uncalled.sort_unstable();
    assert_eq!(
        uncalled,
        [
            "Unreached",
            "in_comment",
            "in_plain_mod",
            "in_string",
            "in_test_mod",
            "inner",
            "reexported"
        ]
    );
    assert_eq!(scan.declared, 10, "crate-visible, doc-comment and cfg(test) items are not pub API");
    assert!(scan.declared_at("crates/a/src/lib.rs", "called"));
    let named_by = |name: &str| scan.uncalled.iter().find(|u| u.name == name).unwrap().named_by;
    assert_eq!(named_by("in_comment"), "named only by tests");
    assert_eq!(named_by("inner"), "named by nothing");

    // The allow-list cannot rot: an entry for a called or a deleted item,
    // or one whose reason is no allowed kind, fails like an unlisted item.
    let lib_rs = "crates/a/src/lib.rs";
    let allowed: Vec<_> = ["in_comment", "in_plain_mod", "in_string", "in_test_mod", "reexported"]
        .into_iter()
        .map(|name| (lib_rs, name, "test oracle: listed"))
        .chain([
            (lib_rs, "Unreached", "test observer: listed"),
            (lib_rs, "called", "test seam: has a caller now"),
            (lib_rs, "deleted", "test seam: no such item"),
            (lib_rs, "inner", "kept because"),
        ])
        .collect();
    let failures = allow_list_failures(&scan, &allowed);
    assert_eq!(failures.len(), 3, "{failures:#?}");
    for (failure, name) in failures.iter().zip(["called", "deleted", "inner"]) {
        assert!(failure.contains(&format!("`{name}`")), "{failure}");
    }
}

struct Uncalled {
    file: String,
    kind: &'static str,
    name: String,
    /// Who names it instead: tests, its own file, or nothing.
    named_by: &'static str,
}

struct PubScan {
    declared: usize,
    items: BTreeSet<(String, String)>,
    uncalled: Vec<Uncalled>,
}

impl PubScan {
    fn declared_at(&self, file: &str, name: &str) -> bool {
        self.items.contains(&(file.to_string(), name.to_string()))
    }
}

/// Where a repo-relative path sits: `(declares pub API, ships)`.
fn role(path: &str) -> (bool, bool) {
    let mut parts = path.split('/');
    let crate_src = parts.next() == Some("crates")
        && parts.next().is_some_and(|c| c != "shims")
        && parts.next() == Some("src");
    let ships = crate_src
        || ["src/", "examples/", "perfbench/src/"].iter().any(|dir| path.starts_with(dir));
    (crate_src, ships)
}

/// Find every `pub` item of `files` (repo-relative path, source) that no
/// other shipping file names.
fn scan_pub_items(files: &[(String, String)]) -> PubScan {
    struct Decl {
        file: usize,
        kind: &'static str,
        name: String,
        signature: String,
    }
    let mut decls = Vec::new();
    // Per file: the words of its shipping text, and of all its code.
    let mut shipping_words = Vec::new();
    let mut all_words = Vec::new();
    for (index, (path, source)) in files.iter().enumerate() {
        let (declares, ships) = role(path);
        let code = strip_reexports(&blank_comments_and_strings(source));
        all_words.push(word_counts(&code));
        let shipping = strip_cfg_test(&code);
        if declares {
            decls.extend(pub_decls(&shipping).into_iter().map(|(kind, name, signature)| Decl {
                file: index,
                kind,
                name,
                signature,
            }));
        }
        shipping_words.push(if ships { word_counts(&shipping) } else { Default::default() });
    }
    let called_elsewhere = |decl: &Decl| {
        shipping_words
            .iter()
            .enumerate()
            .any(|(index, words)| index != decl.file && words.contains_key(&decl.name))
    };
    let mut reached: Vec<bool> = decls.iter().map(called_elsewhere).collect();
    // A type a reached item of its own file names in its signature (or,
    // for a struct, enum or alias, its definition) is reachable through it.
    let is_type = |decl: &Decl| ["struct", "enum", "trait", "type"].contains(&decl.kind);
    loop {
        let newly: Vec<usize> = (0..decls.len())
            .filter(|&t| !reached[t] && is_type(&decls[t]))
            .filter(|&t| {
                decls.iter().zip(&reached).any(|(by, &reached)| {
                    reached
                        && by.file == decls[t].file
                        && by.kind != "trait"
                        && word_counts(&by.signature).contains_key(&decls[t].name)
                })
            })
            .collect();
        if newly.is_empty() {
            break;
        }
        newly.into_iter().for_each(|t| reached[t] = true);
    }
    let uncalled = decls
        .iter()
        .zip(&reached)
        .filter(|&(_, &reached)| !reached)
        .map(|(decl, _)| {
            let count =
                |words: &HashMap<String, usize>| words.get(&decl.name).copied().unwrap_or(0);
            let by_tests =
                (0..files.len()).any(|i| count(&all_words[i]) > count(&shipping_words[i]));
            let in_own_file = count(&shipping_words[decl.file]) > 1;
            Uncalled {
                file: files[decl.file].0.clone(),
                kind: decl.kind,
                name: decl.name.clone(),
                named_by: match (by_tests, in_own_file) {
                    (true, true) => "named by tests and its own file",
                    (false, true) => "named only in its own file",
                    (true, false) => "named only by tests",
                    (false, false) => "named by nothing",
                },
            }
        })
        .collect();
    PubScan {
        declared: decls.len(),
        items: decls.iter().map(|d| (files[d.file].0.clone(), d.name.clone())).collect(),
        uncalled,
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// How often each identifier occurs in `text`.
fn word_counts(text: &str) -> HashMap<String, usize> {
    let mut counts = HashMap::new();
    for word in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
        if !word.is_empty() {
            *counts.entry(word.to_string()).or_insert(0) += 1;
        }
    }
    counts
}

/// `source` with comments and the contents of string and char literals
/// replaced by spaces (newlines kept), so only code is left to match.
fn blank_comments_and_strings(source: &str) -> String {
    let s = source.as_bytes();
    let mut out = s.to_vec();
    let mut i = 0;
    while i < s.len() {
        if let Some((open, hashes)) = raw_string_open(s, i) {
            let mut close = vec![b'"'];
            close.extend(std::iter::repeat_n(b'#', hashes));
            let end = s[open..]
                .windows(close.len())
                .position(|w| w == close)
                .map_or(s.len(), |n| open + n);
            blank(&mut out[open..end]);
            i = end + close.len();
        } else if s[i..].starts_with(b"//") {
            let end = s[i..].iter().position(|&b| b == b'\n').map_or(s.len(), |n| i + n);
            blank(&mut out[i..end]);
            i = end;
        } else if s[i..].starts_with(b"/*") {
            let (mut depth, mut j) = (1, i + 2);
            while j < s.len() && depth > 0 {
                if s[j..].starts_with(b"/*") {
                    depth += 1;
                    j += 2;
                } else if s[j..].starts_with(b"*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out[i..j]);
            i = j;
        } else if s[i] == b'"' {
            let mut j = i + 1;
            while j < s.len() && s[j] != b'"' {
                j += if s[j] == b'\\' { 2 } else { 1 };
            }
            blank(&mut out[i + 1..j.min(s.len())]);
            i = j + 1;
        } else if s[i] == b'\'' {
            // A char literal is `'x'` or `'\…'`; anything else is a lifetime.
            let len = match s.get(i + 1) {
                Some(b'\\') => s
                    .get(i + 3..)
                    .and_then(|rest| rest.iter().position(|&b| b == b'\''))
                    .map(|n| n + 4),
                Some(&lead) => {
                    let width = match lead {
                        0xf0.. => 4,
                        0xe0.. => 3,
                        0x80.. => 2,
                        _ => 1,
                    };
                    (s.get(i + 1 + width) == Some(&b'\'')).then_some(width + 2)
                }
                None => None,
            };
            if let Some(len) = len {
                blank(&mut out[i + 1..i + len - 1]);
                i += len;
            } else {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    String::from_utf8(out).expect("blanking keeps whole characters")
}

/// Replace `bytes` with spaces, keeping newlines so lines stay put.
fn blank(bytes: &mut [u8]) {
    bytes.iter_mut().filter(|b| **b != b'\n').for_each(|b| *b = b' ');
}

/// If a raw string (`r"…"`, `r#"…"#`, `br"…"`) starts at `i`: the index
/// of its first content byte and its number of `#`s.
fn raw_string_open(s: &[u8], i: usize) -> Option<(usize, usize)> {
    if i > 0 && is_ident(s[i - 1]) {
        return None;
    }
    let at = i + [&b"br"[..], b"r"].iter().find(|p| s[i..].starts_with(p))?.len();
    let hashes = s[at..].iter().take_while(|&&b| b == b'#').count();
    (s.get(at + hashes) == Some(&b'"')).then_some((at + hashes + 1, hashes))
}

/// The byte just past the item or statement that starts at `from`: up to a
/// `;` or `,` at depth 0, through a `{ … }` block (and a trailing `;`,
/// `,` or `else` arm), or up to the bracket that closes its enclosing one.
fn item_end(s: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < s.len() {
        match s[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    let rest = &s[i + 1..];
                    let skip = rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
                    match rest.get(skip) {
                        Some(b';' | b',') => return i + 2 + skip,
                        _ if rest[skip..].starts_with(b"else") => {}
                        _ => return i + 1,
                    }
                }
            }
            b';' | b',' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    s.len()
}

/// `code` (already blanked) with every `#[cfg(test)]` item removed.
fn strip_cfg_test(code: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = code.as_bytes().to_vec();
    let mut from = 0;
    while let Some(at) = code[from..].find(ATTR).map(|n| from + n) {
        let end = item_end(code.as_bytes(), at + ATTR.len());
        blank(&mut out[at..end]);
        from = end;
    }
    String::from_utf8(out).expect("blanking keeps whole characters")
}

/// `code` with every re-export (`pub use …;`, `pub(crate) use …;`) removed.
fn strip_reexports(code: &str) -> String {
    let s = code.as_bytes();
    let mut out = s.to_vec();
    let mut from = 0;
    while let Some(at) = code[from..].find("pub").map(|n| from + n) {
        from = at + 3;
        if at > 0 && is_ident(s[at - 1]) {
            continue;
        }
        let mut j = at + 3;
        if s.get(j) == Some(&b'(') {
            j += s[j..].iter().position(|&b| b == b')').map_or(0, |n| n + 1);
        }
        j += s[j..].iter().take_while(|b| b.is_ascii_whitespace()).count();
        if s[j..].starts_with(b"use") && s.get(j + 3).is_some_and(|&b| !is_ident(b)) {
            let end = s[j..].iter().position(|&b| b == b';').map_or(s.len(), |n| j + n + 1);
            blank(&mut out[at..end]);
            from = end;
        }
    }
    String::from_utf8(out).expect("blanking keeps whole characters")
}

/// Every `pub` (not `pub(…)`) item declared in `code`: its kind, its name,
/// and its text up to the body (a fn's signature).
fn pub_decls(code: &str) -> Vec<(&'static str, String, String)> {
    const KINDS: [&str; 8] = ["fn", "const", "static", "struct", "enum", "trait", "type", "mod"];
    let s = code.as_bytes();
    let word_at = |mut i: usize| {
        i += s[i..].iter().take_while(|b| b.is_ascii_whitespace() || **b == b'"').count();
        let len = s[i..].iter().take_while(|&&b| is_ident(b)).count();
        (&code[i..i + len], i + len)
    };
    let mut decls = Vec::new();
    for (at, _) in code.match_indices("pub") {
        if (at > 0 && is_ident(s[at - 1]))
            || s.get(at + 3).is_none_or(|&b| !b.is_ascii_whitespace())
        {
            continue;
        }
        let (mut word, mut next) = word_at(at + 3);
        let kind = loop {
            match word {
                "unsafe" | "async" | "extern" => {}
                "const" if ["fn", "unsafe", "async", "extern"].contains(&word_at(next).0) => {}
                _ => break KINDS.iter().find(|&&k| k == word).copied(),
            }
            (word, next) = word_at(next);
        };
        let Some(kind) = kind else { continue };
        let (mut name, mut after) = word_at(next);
        if kind == "static" && name == "mut" {
            (name, after) = word_at(after);
        }
        if name.is_empty() {
            continue;
        }
        let end = match kind {
            "struct" | "enum" | "type" => item_end(s, after),
            _ => s[after..]
                .iter()
                .position(|&b| b == b'{' || b == b';')
                .map_or(s.len(), |n| after + n),
        };
        decls.push((kind, name.to_string(), code[after..end].to_string()));
    }
    decls
}
