//! Docs-vs-code consistency: the DESIGN.md trace-schema table must cover
//! every `TraceEvent` variant, the README's policy table must stay in
//! sync with `SchedulerKind`, docs/SCENARIO_FORMAT.md must cover every
//! record line kind, docs/OPERATORS_GUIDE.md must name every traffic
//! shape, and the top-level markdown documents (including the guides in
//! docs/) must not carry dead intra-repo links or code spans naming files
//! that do not exist. Run by the CI docs job.

use std::path::{Path, PathBuf};
use vizsched_metrics::TraceEvent;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    let path = repo_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every serialized event tag must appear in DESIGN.md — the probe schema
/// table is documented as complete, so adding a `TraceEvent` variant
/// without documenting it fails here.
#[test]
fn design_md_documents_every_trace_event_variant() {
    let design = read("DESIGN.md");
    let missing: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| !design.contains(&format!("`{tag}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md probe schema is missing trace event tags: {missing:?}"
    );
}

/// The body of one `## N.`-numbered DESIGN.md section: from its heading
/// to the next `## ` heading (or end of file).
fn design_section(design: &str, number: u32) -> &str {
    let heading = format!("## {number}");
    let start = design
        .find(&heading)
        .unwrap_or_else(|| panic!("DESIGN.md has no section '{heading}'"));
    let body = &design[start..];
    match body[heading.len()..].find("\n## ") {
        Some(end) => &body[..heading.len() + end],
        None => body,
    }
}

/// Stricter than the whole-document check above: every tag must appear in
/// the §8 *schema table itself* — a row of the `| variant | tag | ... |`
/// table — so a new variant can't satisfy the docs test by being
/// name-dropped in prose elsewhere.
#[test]
fn design_md_schema_table_has_a_row_per_trace_event() {
    let design = read("DESIGN.md");
    let section = design_section(&design, 8);
    let rows: Vec<&str> = section
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect();
    let missing: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| {
            let cell = format!("`{tag}`");
            !rows.iter().any(|row| row.contains(&cell))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md section 8 schema table is missing rows for: {missing:?}"
    );
    // The worked JSONL example block must also show each tag once.
    let missing_examples: Vec<&str> = TraceEvent::TAGS
        .iter()
        .copied()
        .filter(|tag| !section.contains(&format!("{{\"t\":\"{tag}\"")))
        .collect();
    assert!(
        missing_examples.is_empty(),
        "DESIGN.md section 8 worked-example block is missing lines for: {missing_examples:?}"
    );
}

/// The reverse of the check above: the §8 schema table and its worked
/// example block may only name live tags, so a deleted `TraceEvent`
/// variant cannot leave a stale row or example line behind.
#[test]
fn design_md_schema_table_names_only_live_trace_events() {
    let design = read("DESIGN.md");
    let section = design_section(&design, 8);
    // The table: the header row and the `|`-prefixed lines that follow it.
    let table: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with("| `TraceEvent` |"))
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(table.len() > 2, "DESIGN.md section 8 has no schema table");
    let stale_rows: Vec<&str> = table[2..]
        .iter()
        .map(|row| {
            row.split('|')
                .nth(2)
                .expect("row has a tag cell")
                .trim()
                .trim_matches('`')
        })
        .filter(|tag| !TraceEvent::TAGS.contains(tag))
        .collect();
    assert!(
        stale_rows.is_empty(),
        "DESIGN.md section 8 schema table has rows for tags not in TraceEvent::TAGS: {stale_rows:?}"
    );
    let stale_examples: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("{\"t\":\""))
        .map(|rest| rest.split('"').next().expect("split yields a first piece"))
        .filter(|tag| !TraceEvent::TAGS.contains(tag))
        .collect();
    assert!(
        stale_examples.is_empty(),
        "DESIGN.md section 8 worked examples use tags not in TraceEvent::TAGS: {stale_examples:?}"
    );
}

/// Every policy name in the README's "Scheduling policies" table must
/// parse via `SchedulerKind::from_str` — the table is the user-facing
/// registry, so a renamed or removed variant orphans it loudly. The
/// reverse also holds: every buildable kind must have a row.
#[test]
fn readme_policy_table_names_parse() {
    use vizsched_core::sched::SchedulerKind;

    let readme = read("README.md");
    let start = readme
        .find("| Policy | Trigger | Rule |")
        .expect("README has the scheduling-policies table header");
    // Rows: consecutive `| `-prefixed lines after the header separator.
    let names: Vec<&str> = readme[start..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            row.trim_start_matches('|')
                .split('|')
                .next()
                .expect("row has a first cell")
                .trim()
                .trim_matches('`')
        })
        .collect();
    assert!(
        names.len() >= 9,
        "README policy table looks truncated: {names:?}"
    );
    for name in &names {
        assert!(
            name.parse::<SchedulerKind>().is_ok(),
            "README policy table row `{name}` does not parse as a SchedulerKind"
        );
    }
    for kind in SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::EXTENDED.iter())
    {
        assert!(
            names.contains(&kind.name()),
            "SchedulerKind::{kind:?} ({}) has no row in the README policy table",
            kind.name()
        );
    }
}

/// The policy-family trace tag is part of the documented schema; pin it
/// so a rename breaks the docs tests, not just downstream parsers.
#[test]
fn policy_trace_tags_are_pinned() {
    assert!(
        TraceEvent::TAGS.contains(&"share_adjusted"),
        "TraceEvent::TAGS lost the `share_adjusted` tag the docs promise"
    );
}

/// The overload-policy section must name every policy knob and every
/// admission counter, so renaming a field orphans the docs loudly.
#[test]
fn design_md_documents_the_overload_policy_surface() {
    let design = read("DESIGN.md");
    for name in [
        "max_in_flight",
        "max_per_user",
        "deadline",
        "coalesce_interactive",
        "batch_escalation_age",
        "admitted",
        "rejected",
        "coalesced",
        "expired",
        "escalated",
    ] {
        assert!(
            design.contains(&format!("`{name}`")),
            "DESIGN.md overload section does not mention `{name}`"
        );
    }
}

/// Markdown links of the form `[text](target)` in `body`, excluding
/// images and code fences.
fn markdown_links(body: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(open) = line[i..].find("](") {
            let start = i + open + 2;
            // Reject escaped/image links conservatively: `![alt](...)`
            // is still a file reference worth checking, so keep it.
            if let Some(close) = line[start..].find(')') {
                links.push(line[start..start + close].to_string());
                i = start + close + 1;
            } else {
                break;
            }
            if i >= bytes.len() {
                break;
            }
        }
    }
    links
}

/// Intra-repo links in the top-level documents must resolve to files that
/// exist; external links and pure fragments are out of scope (offline CI).
/// Links are resolved relative to the document's own directory, the way
/// a markdown renderer resolves them (`../DESIGN.md` from docs/).
#[test]
fn top_level_docs_have_no_dead_intra_repo_links() {
    let root = repo_root();
    let mut dead = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "docs/POLICY_GUIDE.md",
        "docs/OPERATORS_GUIDE.md",
        "docs/SCENARIO_FORMAT.md",
        "docs/ARCHITECTURE.md",
    ] {
        let base = root.join(Path::new(doc).parent().expect("doc has a parent"));
        for link in markdown_links(&read(doc)) {
            let target = link.split_whitespace().next().unwrap_or("");
            if target.is_empty()
                || target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path = target.split('#').next().unwrap_or(target);
            if !base.join(path).exists() {
                dead.push(format!("{doc}: ({link})"));
            }
        }
    }
    assert!(dead.is_empty(), "dead intra-repo links: {dead:?}");
}

/// Every file in the repository, as a `/`-separated path relative to the
/// root (build output and hidden directories skipped).
fn repo_files() -> Vec<String> {
    fn walk(dir: &Path, prefix: &str, out: &mut Vec<String>) {
        let entries =
            std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
        for entry in entries {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let path = format!("{prefix}{name}");
            if entry.file_type().expect("file type").is_dir() {
                walk(&entry.path(), &format!("{path}/"), out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&repo_root(), "", &mut files);
    files
}

/// Inline code spans (`` `like this` ``) in `body`, outside code fences.
fn code_spans(body: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// A code span naming a file (`sched/fsd.rs`, `BENCH_policy.json`) must
/// name one that exists: it has to be a path suffix of some file in the
/// repository. Patterns and placeholders (`results/fig10-*.ppm`,
/// `<name>.json`) and commands (anything with a space) are skipped.
#[test]
fn docs_code_spans_name_existing_files() {
    const EXTENSIONS: [&str; 13] = [
        "rs", "md", "json", "jsonl", "toml", "txt", "ppm", "png", "csv", "lock", "yml", "yaml",
        "sh",
    ];
    let files = repo_files();
    let mut docs = vec![
        "README.md".to_string(),
        "DESIGN.md".to_string(),
        "EXPERIMENTS.md".to_string(),
    ];
    docs.extend(
        files
            .iter()
            .filter(|f| f.starts_with("docs/") && f.ends_with(".md"))
            .cloned(),
    );
    let mut missing = Vec::new();
    for doc in &docs {
        for span in code_spans(&read(doc)) {
            if span.contains([' ', '*', '<']) {
                continue;
            }
            let names_a_file = span
                .rsplit_once('.')
                .is_some_and(|(_, ext)| EXTENSIONS.contains(&ext));
            let exists = files
                .iter()
                .any(|f| f == span || f.ends_with(&format!("/{span}")));
            if names_a_file && !exists {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "code spans name missing files: {missing:?}"
    );
}

/// docs/SCENARIO_FORMAT.md is documented as complete: every record line
/// kind must keep both a `kind` row in the line-kinds table and a worked
/// `{"t":"kind"...}` example line, so adding a kind to `RECORD_KINDS`
/// without specifying it fails here.
#[test]
fn scenario_format_documents_every_record_kind() {
    use vizsched_workload::{RECORD_KINDS, RECORD_VERSION};

    let spec = read("docs/SCENARIO_FORMAT.md");
    let rows: Vec<&str> = spec
        .lines()
        .filter(|l| l.trim_start().starts_with('|'))
        .collect();
    for kind in RECORD_KINDS {
        let cell = format!("`{kind}`");
        assert!(
            rows.iter().any(|row| row.contains(&cell)),
            "docs/SCENARIO_FORMAT.md has no table row for record kind `{kind}`"
        );
        assert!(
            spec.contains(&format!("{{\"t\":\"{kind}\"")),
            "docs/SCENARIO_FORMAT.md has no worked example line for record kind `{kind}`"
        );
    }
    // The spec names the version it documents.
    assert!(
        spec.contains(&format!("`RECORD_VERSION = {RECORD_VERSION}`")),
        "docs/SCENARIO_FORMAT.md does not pin RECORD_VERSION = {RECORD_VERSION}"
    );
}

/// The operator's guide documents the traffic-shape catalogue as
/// complete: every `TrafficShape` name must appear (in backticks), so a
/// new generator can't ship undocumented.
#[test]
fn operators_guide_names_every_traffic_shape() {
    use vizsched_workload::TrafficShape;

    let guide = read("docs/OPERATORS_GUIDE.md");
    for name in TrafficShape::NAMES {
        assert!(
            guide.contains(&format!("`{name}`")),
            "docs/OPERATORS_GUIDE.md does not name traffic shape `{name}`"
        );
    }
}

/// The operator's guide calls `ServiceConfig` "the one knob surface" and
/// lists its setters in that paragraph. The list must be exact both
/// ways: every `pub fn` of `impl ServiceConfig` appears as a `` `name(` ``
/// code span, and every such span names a setter.
#[test]
fn operators_guide_lists_every_service_config_setter() {
    let head = read("crates/service/src/head.rs");
    let start = head
        .find("\nimpl ServiceConfig {")
        .expect("head.rs has an impl ServiceConfig block");
    let body = &head[start..];
    let body = &body[..body.find("\n}\n").expect("impl block closes")];
    let setters: Vec<&str> = body
        .split("pub fn ")
        .skip(1)
        .filter_map(|rest| rest.split_once('(').map(|(name, _)| name))
        .collect();
    assert!(
        !setters.is_empty(),
        "no setters found in impl ServiceConfig"
    );

    let guide = read("docs/OPERATORS_GUIDE.md");
    let anchor = "`ServiceConfig` is the one knob surface";
    let start = guide
        .find(anchor)
        .expect("docs/OPERATORS_GUIDE.md has the knob-surface paragraph");
    let paragraph = &guide[start..];
    let paragraph = &paragraph[..paragraph.find("\n\n").unwrap_or(paragraph.len())];
    let named: Vec<&str> = code_spans(paragraph)
        .into_iter()
        .filter_map(|span| span.split_once('(').map(|(name, _)| name))
        .filter(|name| {
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        .collect();
    let undocumented: Vec<&&str> = setters.iter().filter(|s| !named.contains(s)).collect();
    let unknown: Vec<&&str> = named.iter().filter(|n| !setters.contains(n)).collect();
    assert!(
        undocumented.is_empty(),
        "docs/OPERATORS_GUIDE.md knob list misses ServiceConfig setters: {undocumented:?}"
    );
    assert!(
        unknown.is_empty(),
        "docs/OPERATORS_GUIDE.md knob list names non-setters: {unknown:?}"
    );
}

/// The README is the entry point; it must link every guide under docs/.
#[test]
fn readme_links_the_guides() {
    let readme = read("README.md");
    for guide in [
        "docs/POLICY_GUIDE.md",
        "docs/OPERATORS_GUIDE.md",
        "docs/SCENARIO_FORMAT.md",
        "docs/ARCHITECTURE.md",
    ] {
        assert!(readme.contains(guide), "README.md does not link {guide}");
    }
}
