//! Docs cannot outlive the code: every cargo target (`--bin <x>`,
//! `--bench <x>`) and every back-ticked repo path (`BENCH_*.json`,
//! `results/…`, `ci/…`, `tests/…`, `*_output.txt`) that the documents
//! below name must exist — at the repo root or inside one of `crates/*/`.
//! Placeholders (`<name>`, globs, brace lists) are skipped. And docs
//! cannot quote a run no file backs: every fenced block of EXPERIMENTS.md
//! without a language tag is a verbatim line span of a file in `results/`.
//! Nor can a manifest outlive the code: every crate a workspace manifest
//! lists as a dependency is named by that package's sources. And no
//! telemetry signal goes unread: DESIGN.md §7's registry lists every name
//! the program hands its recorder, each with a reader that names it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// The repo root followed by every `crates/*/` directory.
fn bases() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    std::iter::once(root.to_path_buf())
        .chain(crates.map(|entry| entry.expect("readable crates/ entry").path()))
        .collect()
}

/// Every workspace package directory: the root, `crates/*/` and
/// `vendor/*/`.
fn packages() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let vendor = std::fs::read_dir(root.join("vendor")).expect("vendor/ exists");
    bases()
        .into_iter()
        .chain(vendor.map(|entry| entry.expect("readable vendor/ entry").path()))
        .collect()
}

/// The names under `[dependencies]` and `[dev-dependencies]` in a
/// manifest.
fn dependency_names(manifest: &str) -> Vec<&str> {
    let mut section = "";
    manifest
        .lines()
        .map(str::trim)
        .filter_map(|line| {
            if line.starts_with('[') {
                section = line;
                return None;
            }
            let listed = matches!(section, "[dependencies]" | "[dev-dependencies]");
            let name = line.split(['=', '.', ' ']).next().unwrap_or("");
            (listed && !name.is_empty() && !name.starts_with('#')).then_some(name)
        })
        .collect()
}

/// Whether `text` names the crate `ident` as code does: in a path
/// (`ident::…`) or a rename (`ident as …`), not as part of a longer name.
fn names_crate(text: &str, ident: &str) -> bool {
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = &text[at + ident.len()..];
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && (after.starts_with("::") || after.starts_with(" as "))
    })
}

/// Names following `--bin` / `--bench` anywhere in `text`, as the
/// relative source path that must back each one. A placeholder such as
/// `<name>` has no leading name characters and drops out.
fn targets(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(2)
        .filter_map(|pair| {
            let dir = match pair[0] {
                "--bin" => "src/bin",
                "--bench" => "benches",
                _ => return None,
            };
            let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
            let name = pair[1].split(|c| !is_name(c)).next().unwrap_or("");
            (!name.is_empty()).then(|| format!("{dir}/{name}.rs"))
        })
        .collect()
}

/// Repo paths named in inline back-ticks (fenced blocks are commands and
/// transcripts, not references; they are dropped before pairing ticks).
fn paths(text: &str) -> Vec<String> {
    let mut in_fence = false;
    let prose: Vec<&str> = text
        .lines()
        .filter(|line| {
            let fence = line.trim_start().starts_with("```");
            in_fence ^= fence;
            !in_fence && !fence
        })
        .collect();
    prose
        .join("\n")
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .map(|word| {
            let word = word.trim_matches(|c| "(),;:.".contains(c));
            word.split("::").next().unwrap_or(word)
        })
        .filter(|word| {
            let bench_file = word.starts_with("BENCH_") && word.ends_with(".json");
            let in_tree = ["results/", "ci/", "tests/"]
                .iter()
                .any(|p| word.starts_with(p));
            let placeholder = word.contains(['<', '*', '{']);
            (bench_file || in_tree || word.ends_with("_output.txt")) && !placeholder
        })
        .map(str::to_string)
        .collect()
}

/// The lines of every fenced block opened by a bare "```" (no language
/// tag) — the result transcripts, as opposed to `console` commands.
fn untagged_blocks(text: &str) -> Vec<Vec<&str>> {
    let mut blocks = Vec::new();
    let mut open: Option<(bool, Vec<&str>)> = None;
    for line in text.lines() {
        let fence = line.trim_start().strip_prefix("```");
        open = match (fence, open) {
            (Some(tag), None) => Some((tag.trim().is_empty(), Vec::new())),
            (Some(_), Some((untagged, lines))) => {
                if untagged {
                    blocks.push(lines);
                }
                None
            }
            (None, Some((untagged, mut lines))) => {
                lines.push(line);
                Some((untagged, lines))
            }
            (None, None) => None,
        };
    }
    blocks
}

/// Every file under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            found.extend(files(&path));
        } else {
            found.push(path);
        }
    }
    found
}

/// The text of every readable file under `dir`, recursively.
fn file_texts(dir: &Path) -> Vec<String> {
    files(dir)
        .iter()
        .filter_map(|path| std::fs::read_to_string(path).ok())
        .collect()
}

/// Where non-test code hands the recorder a signal name as a literal,
/// and the kinds each such call records: a traced span is its kind's
/// histogram plus one `span` close event, and a router's rejection
/// counter is also the name of its rejection event.
const EMITTERS: [(&str, &str); 7] = [
    (".counter(\"", "counter"),
    (".gauge(\"", "gauge"),
    (".histogram(\"", "histogram"),
    (".event(\"", "event"),
    ("::span(\"", "span"),
    ("close_span(r, \"", "span"),
    ("RouterConfig::new(\"", "counter + event"),
];

/// The only files that hand the recorder a name that is not a literal:
/// they forward the names the literals above open.
const FORWARDERS: [&str; 2] = ["crates/obs/src/context.rs", "crates/watch/src/router.rs"];

/// The code of a source file outside its trailing `#[cfg(test)] mod
/// tests` and outside its comment lines.
fn non_test_code(text: &str) -> String {
    let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or(text);
    code.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every `(name, kind)` the code hands the recorder, and the recorder
/// calls whose name is not a literal.
fn emitted(code: &str) -> (Vec<(String, &'static str)>, usize) {
    let mut names = Vec::new();
    for (call, kind) in EMITTERS {
        for (at, _) in code.match_indices(call) {
            let mut args = code[at + call.len()..].split('"');
            // The router's first argument is its thread name.
            if call.starts_with("RouterConfig") {
                args.nth(1);
            }
            if let Some(name) = args.next() {
                names.push((name.to_string(), kind));
            }
        }
    }
    let computed = [".counter(", ".gauge(", ".histogram(", ".event(", "::span("]
        .iter()
        .map(|call| code.matches(call).count() - code.matches(&format!("{call}\"")).count())
        .sum();
    (names, computed)
}

/// Whether `text` names the signal `name`, dotted or in its OpenMetrics
/// form (`serve.jobs` → `dynp_serve_jobs_total`), and not as part of a
/// longer name (`serve.batch` is not named by `serve.batch_size`).
fn names_signal(text: &str, name: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let standalone = |form: &str, suffixes: &[&str]| {
        text.match_indices(form).any(|(at, _)| {
            let before = text[..at].chars().next_back();
            let rest = &text[at + form.len()..];
            !before.is_some_and(|c| word(c) || c == '.')
                && suffixes.iter().any(|suffix| {
                    rest.strip_prefix(suffix).is_some_and(|after| {
                        let mut next = after.chars();
                        match next.next() {
                            Some('.') => !next.next().is_some_and(word),
                            c => !c.is_some_and(word),
                        }
                    })
                })
        })
    };
    let exposed = format!("dynp_{}", name.replace('.', "_"));
    standalone(name, &[""])
        || standalone(
            &exposed,
            &["", "_total", "_count", "_sum", "_bucket", "_highwater"],
        )
}

/// The body of `fn name` in `text`: from its signature to the closing
/// brace at the signature's indentation.
fn fn_body<'t>(text: &'t str, name: &str) -> Option<&'t str> {
    let at = text.find(&format!("fn {name}("))?;
    let line_start = text[..at].rfind('\n').map_or(0, |i| i + 1);
    let indent = &text[line_start..at];
    let close = format!("\n{indent}}}");
    let end = text[at..].find(&close)? + at + close.len();
    Some(&text[at..end])
}

/// The rows of the `| signal | kind | emitter | reader |` table.
fn registry(design: &str) -> Vec<[String; 4]> {
    design
        .lines()
        .skip_while(|line| *line != "| signal | kind | emitter | reader |")
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<String> = line
                .split('|')
                .map(|cell| cell.trim().replace('`', ""))
                .collect();
            [1, 2, 3, 4].map(|i| cells.get(i).cloned().unwrap_or_default())
        })
        .collect()
}

#[test]
fn every_signal_is_declared_with_a_reader_that_names_it() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md exists");
    let rows = registry(&design);
    assert!(!rows.is_empty(), "DESIGN.md has no signal registry");

    // Each emitted name with the files that emit it and the kinds they
    // record.
    let mut emitters: BTreeMap<String, (Vec<String>, BTreeSet<&str>)> = BTreeMap::new();
    let mut problems = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    let sources =
        crates.flat_map(|entry| files(&entry.expect("readable crates/ entry").path().join("src")));
    for path in sources.filter(|path| path.extension().is_some_and(|ext| ext == "rs")) {
        let file = path
            .strip_prefix(root)
            .expect("under the root")
            .display()
            .to_string();
        let code = non_test_code(&std::fs::read_to_string(&path).expect("readable source"));
        let (names, computed) = emitted(&code);
        if computed > 0 && !FORWARDERS.contains(&file.as_str()) {
            problems.push(format!(
                "{file}: {computed} recorder call(s) with a computed name"
            ));
        }
        for (name, kind) in names {
            let (files, kinds) = emitters.entry(name).or_default();
            files.push(file.clone());
            kinds.extend(kind.split(" + "));
        }
    }

    for (name, (files, kinds)) in &emitters {
        let Some(row) = rows.iter().find(|row| row[0] == *name) else {
            problems.push(format!(
                "{name}: emitted by {}, not in the registry",
                files[0]
            ));
            continue;
        };
        if row[1].split(" + ").collect::<BTreeSet<_>>() != *kinds {
            let recorded: Vec<&str> = kinds.iter().copied().collect();
            problems.push(format!(
                "{name}: declared {}, recorded {}",
                row[1],
                recorded.join(" + ")
            ));
        }
        if !files.contains(&row[2]) {
            problems.push(format!("{name}: {} does not emit it", row[2]));
        }
    }
    for (i, [name, _, emitter, reader]) in rows.iter().enumerate() {
        if rows[..i].iter().any(|row| row[0] == *name) {
            problems.push(format!("{name}: declared twice"));
        }
        if !emitters.contains_key(name) {
            problems.push(format!(
                "{name}: no longer emitted (by {emitter} or any file)"
            ));
        }
        let (path, test_fn) = match reader.split_once("::") {
            Some((path, test_fn)) => (path, Some(test_fn)),
            None => (reader.as_str(), None),
        };
        if path == "DESIGN.md"
            || path.starts_with("results/")
            || (path == emitter && test_fn.is_none())
        {
            problems.push(format!("{name}: {reader} cannot be its reader"));
            continue;
        }
        let Ok(text) = std::fs::read_to_string(root.join(path)) else {
            problems.push(format!("{name}: reader {path} does not exist"));
            continue;
        };
        let text = match test_fn {
            Some(test_fn) => fn_body(&text, test_fn).unwrap_or_default(),
            None => &text,
        };
        if !names_signal(text, name) {
            problems.push(format!("{name}: {reader} does not name it"));
        }
    }
    assert!(
        problems.is_empty(),
        "DESIGN.md §7's signal registry and the code disagree:\n{}",
        problems.join("\n")
    );
}

#[test]
fn every_untagged_experiments_block_is_a_span_of_a_results_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("document exists");
    let texts = file_texts(&root.join("results"));
    let results: Vec<Vec<&str>> = texts.iter().map(|text| text.lines().collect()).collect();
    let blocks = untagged_blocks(&doc);
    assert!(!blocks.is_empty(), "EXPERIMENTS.md quotes no result at all");
    let unbacked: Vec<String> = blocks
        .iter()
        .filter(|block| {
            !results.iter().any(|lines| {
                lines
                    .windows(block.len().max(1))
                    .any(|span| span == block.as_slice())
            })
        })
        .map(|block| block.join("\n"))
        .collect();
    assert!(
        unbacked.is_empty(),
        "fenced blocks that are no line span of any file under results/:\n\n{}",
        unbacked.join("\n\n")
    );
}

#[test]
fn every_target_and_path_the_docs_name_exists() {
    let bases = bases();
    let mut dangling = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(bases[0].join(doc)).expect("document exists");
        for reference in targets(&text).into_iter().chain(paths(&text)) {
            if !bases.iter().any(|base| base.join(&reference).exists()) {
                dangling.push(format!("{doc}: {reference}"));
            }
        }
    }
    dangling.sort();
    dangling.dedup();
    assert!(
        dangling.is_empty(),
        "dangling references:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn every_manifest_dependency_is_named_by_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unused = Vec::new();
    for package in packages() {
        let manifest =
            std::fs::read_to_string(package.join("Cargo.toml")).expect("package manifest exists");
        let sources: Vec<String> = ["src", "tests", "examples"]
            .iter()
            .map(|dir| package.join(dir))
            .filter(|dir| dir.is_dir())
            .flat_map(|dir| file_texts(&dir))
            .collect();
        for name in dependency_names(&manifest) {
            let ident = name.replace('-', "_");
            if !sources.iter().any(|text| names_crate(text, &ident)) {
                let package = package.strip_prefix(root).expect("package under the root");
                unused.push(format!("{}: {name}", package.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "manifest dependencies no source of their package names:\n{}",
        unused.join("\n")
    );
}

#[test]
fn extraction_sees_targets_and_inline_paths_only() {
    let text = "run `cargo bench -p x --bench kernel`) or --bin\ntable1; see\n\
                `BENCH_milp.json`, `tests/a.rs::case`, `results/<name>.txt`.\n\
                ```console\n$ tool results/ignored.jsonl --bin figure1\n```\n";
    assert_eq!(
        targets(text),
        [
            "benches/kernel.rs",
            "src/bin/table1.rs",
            "src/bin/figure1.rs"
        ]
    );
    assert_eq!(paths(text), ["BENCH_milp.json", "tests/a.rs"]);
    // Only the bare fence is a result transcript.
    let fenced = "```\nrow 1\n\nrow 2\n```\n```console\n$ cmd\n```\n";
    assert_eq!(untagged_blocks(fenced), [["row 1", "", "row 2"]]);
    let manifest = "[package]\nname = \"p\"\n[dependencies]\nalpha-beta.workspace = true\n\
                    # gamma = 1\n[dev-dependencies]\ndelta = { path = \"d\" }\n[lib]\npath = \"x\"\n";
    assert_eq!(dependency_names(manifest), ["alpha-beta", "delta"]);
    let uses = "// delta is vendored\nuse alpha_beta::X;\npub use epsilon as e;\nzdelta::f();";
    let named = ["alpha_beta", "epsilon", "delta"].map(|ident| names_crate(uses, ident));
    assert_eq!(named, [true, true, false]);
}
