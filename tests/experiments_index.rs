//! The experiment record stays navigable: every `results/…` and
//! `BENCH_*.json` path the docs name exists, every file under `results/`
//! is named by EXPERIMENTS.md, every `EXPERIMENTS.md "Heading"`
//! reference in the docs and in `crates/**/*.rs` names a heading, and
//! the figure files a bench binary wrote open with its provenance header.

use std::fs;
use std::path::{Path, PathBuf};

/// The docs whose paths and section references are checked.
const DOCS: [&str; 4] = [
    "EXPERIMENTS.md",
    "DESIGN.md",
    "README.md",
    ".claude/skills/verify/SKILL.md",
];

/// The files a binary printing `rfdet_bench::provenance()` wrote.
const PROVENANCE: [&str; 5] = [
    "results/fig7.txt",
    "results/fig8.txt",
    "results/fig9.txt",
    "results/table1.txt",
    "results/ablation.txt",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn is_path_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/')
}

/// Every token of `text` that starts with `prefix` (not glued to a
/// longer path), runs over path bytes and ends in `.txt` or `.json`:
/// `results/fig7.txt`, `BENCH_41.json`. A glob or a placeholder
/// (`results/*_ab.txt`, `BENCH_N.json`) is no path and is skipped.
fn paths<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    let bytes = text.as_bytes();
    let mut found = Vec::new();
    for (at, _) in text.match_indices(prefix) {
        if at > 0 && is_path_byte(bytes[at - 1]) {
            continue;
        }
        let len = bytes[at..].iter().take_while(|&&b| is_path_byte(b)).count();
        let token = text[at..at + len].trim_end_matches('.');
        if token.ends_with(".txt") || token.ends_with(".json") {
            found.push(token);
        }
    }
    found
}

/// `BENCH_<digits>.json` tokens of `text`.
fn bench_files(text: &str) -> Vec<&str> {
    paths(text, "BENCH_")
        .into_iter()
        .filter(|p| {
            let n = &p["BENCH_".len()..p.len() - ".json".len()];
            p.ends_with(".json") && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())
        })
        .collect()
}

/// The quoted heading of each `EXPERIMENTS.md "Heading"` reference in
/// `text`, line breaks and comment markers inside the quote folded to
/// single spaces.
fn heading_refs(text: &str) -> Vec<String> {
    let mut refs = Vec::new();
    for (at, m) in text.match_indices("EXPERIMENTS.md") {
        let rest = &text[at + m.len()..];
        let gap = rest
            .find(|c: char| !(c.is_whitespace() || matches!(c, '/' | '!' | '*' | '#' | '(')))
            .unwrap_or(rest.len());
        let Some(quoted) = rest[gap..].strip_prefix('"') else {
            continue;
        };
        let Some(end) = quoted.find('"') else {
            continue;
        };
        let words: Vec<&str> = quoted[..end]
            .split_whitespace()
            .filter(|w| !matches!(*w, "//" | "///" | "//!" | "#"))
            .collect();
        refs.push(words.join(" "));
    }
    refs
}

/// EXPERIMENTS.md's `## ` headings.
fn headings() -> Vec<String> {
    read("EXPERIMENTS.md")
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(str::to_owned)
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_results_and_bench_path_the_docs_name_exists() {
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for p in paths(&text, "results/")
            .into_iter()
            .chain(bench_files(&text))
        {
            if !root().join(p).is_file() {
                missing.push(format!("{doc}: {p}"));
            }
        }
    }
    assert!(missing.is_empty(), "named but missing: {missing:#?}");
}

#[test]
fn every_results_file_is_named_by_experiments_md() {
    let experiments = read("EXPERIMENTS.md");
    let named = paths(&experiments, "results/");
    let mut unnamed = Vec::new();
    for entry in fs::read_dir(root().join("results")).expect("results/") {
        let name = entry.expect("results entry").file_name();
        let path = format!("results/{}", name.to_string_lossy());
        if !named.contains(&path.as_str()) {
            unnamed.push(path);
        }
    }
    assert!(
        unnamed.is_empty(),
        "in results/ but named by no EXPERIMENTS.md row: {unnamed:#?}"
    );
}

#[test]
fn every_experiments_md_section_reference_names_a_heading() {
    let headings = headings();
    let mut sources: Vec<(String, String)> =
        DOCS.iter().map(|d| ((*d).to_owned(), read(d))).collect();
    let mut rs = Vec::new();
    rust_files(&root().join("crates"), &mut rs);
    for path in rs {
        let text = fs::read_to_string(&path).expect("source file");
        sources.push((path.display().to_string(), text));
    }
    let mut dangling = Vec::new();
    let mut checked = 0;
    for (name, text) in &sources {
        for r in heading_refs(text) {
            checked += 1;
            if !headings.iter().any(|h| h.starts_with(&r)) {
                let name = name
                    .strip_prefix(&*root().to_string_lossy())
                    .unwrap_or(name);
                dangling.push(format!("{name}: EXPERIMENTS.md \"{r}\""));
            }
        }
    }
    assert!(checked > 0, "no reference found: the scan is broken");
    assert!(dangling.is_empty(), "names no heading: {dangling:#?}");
}

#[test]
fn figure_files_open_with_their_provenance() {
    for file in PROVENANCE {
        let text = read(file);
        let first = text.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("== provenance"),
            "{file} opens with {first:?}"
        );
    }
}

#[test]
fn the_scanners_read_what_the_docs_write() {
    let text = "see `results/fig7.txt`, results/*_ab.txt, BENCH_N.json,\n\
                BENCH_41.json and target/x/results/y.txt. (EXPERIMENTS.md\n\
                // \"Host\n    // caveats\") and EXPERIMENTS.md, \"Figure 7\"";
    assert_eq!(paths(text, "results/"), ["results/fig7.txt"]);
    assert_eq!(bench_files(text), ["BENCH_41.json"]);
    assert_eq!(heading_refs(text), ["Host caveats"]);
}
