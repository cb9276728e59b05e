//! Every `DESIGN.md §N` / `§N.M` (or `DESIGN §…`) cited in the code
//! resolves to a heading of DESIGN.md, so renumbering a section cannot
//! silently strand the comments that point at it.

use std::path::{Path, PathBuf};

/// The section numbers DESIGN.md's headings define: `## 17. Title` gives
/// `17`, `### 17.1 Title` gives `17.1`.
fn headings(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## ").or_else(|| l.strip_prefix("### ")))
        .filter_map(|l| l.split_whitespace().next())
        .map(|n| n.trim_end_matches('.').to_string())
        .filter(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit() || c == '.'))
        .collect()
}

/// Every section a text cites as `DESIGN §N[.M]` or `DESIGN.md §N[.M]`.
fn citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = &text[at + "DESIGN".len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let Some(num) = rest.strip_prefix(" §") else {
            continue;
        };
        let end = num
            .char_indices()
            .find(|&(i, c)| {
                !(c.is_ascii_digit()
                    || (c == '.' && num[i + 1..].starts_with(|d: char| d.is_ascii_digit())))
            })
            .map_or(num.len(), |(i, _)| i);
        if end > 0 {
            out.push(num[..end].to_string());
        }
    }
    out
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn every_design_citation_resolves_to_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let known = headings(&std::fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let mut files = Vec::new();
    for dir in ["crates", "tests", "benchmark/src"] {
        files_under(&root.join(dir), &mut files);
    }
    let (mut cited, mut dangling) = (0, Vec::new());
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for section in citations(&text) {
            cited += 1;
            if !known.contains(&section) {
                dangling.push(format!("{}: §{section}", file.display()));
            }
        }
    }
    assert!(
        cited >= 27,
        "only {cited} citations found: is the scan broken?"
    );
    assert!(
        dangling.is_empty(),
        "citations with no heading: {dangling:#?}"
    );
}

#[test]
fn the_scanner_reads_both_spellings_and_stops_at_punctuation() {
    let text = "see DESIGN.md §18.8. Also DESIGN §20, and DESIGN.md §7; not DESIGNER §3";
    assert_eq!(citations(text), ["18.8", "20", "7"]);
    assert_eq!(
        headings("## 17. Arena\n### 17.1 Layout\n#### 9 deep\n## Notes"),
        ["17", "17.1"]
    );
}
