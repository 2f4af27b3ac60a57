//! Docs cannot outlive the code: every cargo target (`--bin <x>`,
//! `--bench <x>`) and every back-ticked repo path (`BENCH_*.json`,
//! `results/…`, `ci/…`, `tests/…`, `*_output.txt`) that the documents
//! below name must exist — at the repo root or inside one of `crates/*/`.
//! Placeholders (`<name>`, globs, brace lists) are skipped. And docs
//! cannot quote a run no file backs: every fenced block of EXPERIMENTS.md
//! without a language tag is a verbatim line span of a file in `results/`.

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

/// The text of every readable file under `dir`, recursively.
fn file_texts(dir: &Path) -> Vec<String> {
    let mut texts = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            texts.extend(file_texts(&path));
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            texts.push(text);
        }
    }
    texts
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
}
