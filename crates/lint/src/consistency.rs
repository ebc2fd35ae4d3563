//! The one cross-file check the compiler cannot make.
//!
//! The JSONL `"ev"` event-name set emitted by `Trace::to_jsonl`
//! (`crates/obs/src/trace.rs`) must equal the allowlist embedded in
//! `.github/workflows/ci.yml`'s trace schema smoke. The smoke validates
//! only the events its own run happens to emit, so a renamed or new event
//! that run never produces would otherwise slip through.
//!
//! Schemas inside the workspace need no lint: `DropReason::ALL`/`name()`
//! and exhaustive matches cover the drop reasons, and `artifact_row!`
//! destructures each artifact row struct without `..`, so drift there
//! fails to compile.
//!
//! The check parses tokens/strings only, so it keeps working across
//! rustfmt and refactors that preserve the names.

use crate::lexer::{lex, Lexed, TokKind};
use crate::Finding;
use std::collections::BTreeSet;
use std::path::Path;

/// Collects every `"ev":"<name>"` event name written by the JSONL
/// renderer (the names live inside Rust string literals as escaped
/// `\"ev\":\"name\"` sequences).
pub fn trace_event_names(lx: &Lexed) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for tok in &lx.toks {
        if tok.kind != TokKind::Str {
            continue;
        }
        let s = &tok.text;
        let mut from = 0usize;
        while let Some(pos) = s[from..].find("\\\"ev\\\":\\\"") {
            let start = from + pos + "\\\"ev\\\":\\\"".len();
            let end = s[start..].find('\\').map(|e| start + e).unwrap_or(s.len());
            if start < end {
                names.insert(s[start..end].to_string());
            }
            from = end;
        }
    }
    names
}

/// Parses the `events = {"a", "b", …}` allowlist out of the CI workflow's
/// embedded python validator.
pub fn ci_event_names(yml: &str) -> Option<BTreeSet<String>> {
    let start = yml.find("events = {")? + "events = {".len();
    let end = start + yml[start..].find('}')?;
    let mut names = BTreeSet::new();
    let body = &yml[start..end];
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let close = after.find('"')?;
        names.insert(after[..close].to_string());
        rest = &after[close + 1..];
    }
    Some(names)
}

/// The JSONL trace renderer (workspace-relative).
const TRACE_RS: &str = "crates/obs/src/trace.rs";
/// The CI workflow holding the trace-smoke allowlist.
const CI_YML: &str = ".github/workflows/ci.yml";

/// Paths (workspace-relative) the consistency check reads.
pub const INPUTS: [&str; 2] = [TRACE_RS, CI_YML];

/// Runs the cross-file check from the workspace root.
pub fn check(root: &Path) -> Vec<Finding> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| {
            Finding::new(
                rel,
                0,
                "consistency",
                format!("cannot read consistency input: {e} — if the file moved, update crates/lint/src/consistency.rs"),
            )
        })
    };
    let mut out = Vec::new();
    match (read(TRACE_RS), read(CI_YML)) {
        (Ok(trace), Ok(ci)) => check_sources(&trace, &ci, &mut out),
        (Err(f), _) | (_, Err(f)) => out.push(f),
    }
    out
}

/// The file-content core of [`check`], separated for fixture tests:
/// trace event-name set ≡ the CI trace-smoke allowlist.
pub fn check_sources(trace_src: &str, ci_src: &str, out: &mut Vec<Finding>) {
    let emitted = trace_event_names(&lex(trace_src));
    if emitted.is_empty() {
        out.push(Finding::new(
            TRACE_RS,
            0,
            "consistency",
            "no \"ev\" event names found in the JSONL renderer".to_string(),
        ));
    }
    let Some(allowed) = ci_event_names(ci_src) else {
        out.push(Finding::new(
            CI_YML,
            0,
            "consistency",
            "trace-smoke `events = {...}` allowlist not found".to_string(),
        ));
        return;
    };
    for missing in emitted.difference(&allowed) {
        out.push(Finding::new(
            CI_YML,
            0,
            "consistency",
            format!("trace event \"{missing}\" is emitted by Trace::to_jsonl but absent from the CI allowlist"),
        ));
    }
    for extra in allowed.difference(&emitted) {
        out.push(Finding::new(
            CI_YML,
            0,
            "consistency",
            format!("CI allowlists trace event \"{extra}\" that Trace::to_jsonl never emits"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_names_from_escaped_literals() {
        let lx = lex(
            r#"fn f() { write!(out, "\"ev\":\"arrival\",\"x\":{}", 1); g("{\"ev\":\"path\",\"nodes\":["); }"#,
        );
        let names = trace_event_names(&lx);
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            vec!["arrival", "path"]
        );
    }

    #[test]
    fn ci_events_parse() {
        let yml = "x\n events = {\"a\", \"b\",\n   \"c\"}\n rest";
        let names = ci_event_names(yml).expect("allowlist found");
        assert_eq!(names.into_iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn check_sources_cross_validates() {
        let trace = r#"fn j() { w("\"ev\":\"drop\""); w("{\"ev\":\"path\""); }"#;
        let ci = "events = {\"drop\", \"path\"}";
        let run = |trace: &str, ci: &str| {
            let mut out = Vec::new();
            check_sources(trace, ci, &mut out);
            out
        };
        assert!(run(trace, ci).is_empty(), "{:?}", run(trace, ci));

        // Drift the CI allowlist → the phantom event is reported.
        let out = run(trace, "events = {\"drop\", \"path\", \"ghost\"}");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("ghost"), "{out:?}");

        // An emitted event the allowlist lacks is reported.
        let out = run(trace, "events = {\"drop\"}");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("\"path\""), "{out:?}");

        // A missing allowlist is reported, not silently passed.
        let out = run(trace, "no allowlist here");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("not found"), "{out:?}");
    }
}
