//! The `dynp-insight` binary and the documents that name it agree: every
//! subcommand a document invokes is one the usage text offers, and the
//! usage offers exactly the four that have a reachable input. `fold` —
//! the one way to get a profile — is driven end to end on a synthetic log.

use std::path::Path;
use std::process::Command;

const DOCS: [&str; 5] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Subcommands `text` invokes: the word after `-p dynp-insight --`, after
/// a path ending in `/dynp-insight`, or after `dynp-insight` opening an
/// inline code span. Bare prose mentions have no such anchor and drop out.
fn invoked(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let anchored = (*word == "dynp-insight" && i > 0 && words[i - 1] == "-p")
            || word.ends_with("/dynp-insight")
            || word.trim_start_matches('(') == "`dynp-insight";
        if !anchored {
            continue;
        }
        let next = words[i + 1..].iter().find(|w| !matches!(**w, "--" | "\\"));
        if let Some(next) = next {
            out.push(next.trim_matches(|c| "`.,;:()".contains(c)).to_string());
        }
    }
    out
}

#[test]
fn usage_names_exactly_the_subcommands_the_docs_invoke() {
    let out = Command::new(env!("CARGO_BIN_EXE_dynp-insight"))
        .output()
        .expect("spawn dynp-insight");
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
    let usage = String::from_utf8(out.stderr).expect("usage is UTF-8");
    let offered: Vec<&str> = usage
        .lines()
        .filter_map(|line| line.trim().strip_prefix("dynp-insight "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert_eq!(
        offered,
        ["analyze", "diff", "fold", "check-metrics"],
        "{usage}"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("document exists");
        for sub in invoked(&text) {
            assert!(
                offered.contains(&sub.as_str()),
                "{doc} invokes `dynp-insight {sub}`, which the usage does not offer"
            );
        }
    }
}

#[test]
fn extraction_sees_invocations_not_prose() {
    let text = "`dynp-insight` reports; run `dynp-insight fold <events>` or\n\
                (`dynp-insight check-metrics\n<path>`).\n\
                $ cargo run -p dynp-insight -- \\\n    analyze --text x\n\
                dynp-insight report\ntarget/release/dynp-insight diff a b\n";
    assert_eq!(invoked(text), ["fold", "check-metrics", "analyze", "diff"]);
}

#[test]
fn fold_prints_nested_stacks_from_a_two_cell_log() {
    let dir = std::env::temp_dir().join(format!("dynp-insight-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let log = dir.join("synthetic.events.jsonl");
    let mut lines = String::new();
    for (seq, cell) in [0u64, 1].into_iter().enumerate() {
        let root = (cell + 1) << 32;
        // Child closes before its parent, as RAII guards do.
        lines.push_str(&format!(
            "{{\"ts\":0.1,\"target\":\"span\",\"seq\":{},\"campaign\":\"00000000000000aa\",\"cell\":{cell},\"span\":{},\"parent\":{root},\"kind\":\"b\",\"dur_ns\":40}}\n\
             {{\"ts\":0.2,\"target\":\"span\",\"seq\":{},\"campaign\":\"00000000000000aa\",\"cell\":{cell},\"span\":{root},\"parent\":0,\"kind\":\"a\",\"dur_ns\":100}}\n",
            2 * seq,
            root + 1,
            2 * seq + 1,
        ));
    }
    std::fs::write(&log, lines).expect("write synthetic log");
    let out = Command::new(env!("CARGO_BIN_EXE_dynp-insight"))
        .arg("fold")
        .arg(&log)
        .output()
        .expect("spawn dynp-insight fold");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Self times summed over both cells: a = 2 × (100 − 40), a;b = 2 × 40.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "a 120\na;b 80\n");
    let _ = std::fs::remove_dir_all(&dir);
}
