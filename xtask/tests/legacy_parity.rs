//! R1–R5 parity proof: the historical line-based lint (embedded below,
//! verbatim except for field visibility) and the token-based re-host in
//! `rubic-analyze` must agree — on the real workspace (both clean, same
//! file set) and rule-by-rule on adversarial snippets. This is the
//! contract that let `xtask lint` become a thin shim without changing
//! what CI enforces.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

/// The historical implementation, frozen. Rule semantics, windows,
/// escapes, and file scope are exactly what `xtask lint` shipped with.
mod legacy {
    use std::fmt;
    use std::path::{Path, PathBuf};

    const COMMENT_WINDOW: usize = 10;
    const FACADE_CRATES: [&str; 2] = ["crates/sync", "crates/check"];
    const HOT_PATH_FILES: [&str; 5] = [
        "crates/stm/src/txn.rs",
        "crates/stm/src/vlock.rs",
        "crates/stm/src/clock.rs",
        "crates/stm/src/tvar.rs",
        "crates/stm/src/index.rs",
    ];

    pub struct Violation {
        pub file: PathBuf,
        pub line: usize,
        pub rule: &'static str,
        pub message: String,
    }

    impl fmt::Display for Violation {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file.display(),
                self.line,
                self.rule,
                self.message
            )
        }
    }

    #[derive(Default)]
    pub struct Stats {
        pub files: usize,
        pub ordering_sites: usize,
        pub unsafe_blocks: usize,
    }

    pub fn run(root: &Path) -> Result<Stats, Vec<Violation>> {
        let mut files = Vec::new();
        for dir in ["crates", "suite"] {
            collect_rs(&root.join(dir), &mut files);
        }
        files.sort();

        let mut stats = Stats::default();
        let mut violations = Vec::new();
        for file in files {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            stats.files += 1;
            lint_file(&rel, &text, &mut stats, &mut violations);
        }
        if violations.is_empty() {
            Ok(stats)
        } else {
            Err(violations)
        }
    }

    fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name == "tests" || name == "benches" || name == "examples" || name == "target" {
                    continue;
                }
                collect_rs(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    fn rel_starts_with(rel: &Path, prefix: &str) -> bool {
        let mut comps = rel.components();
        prefix
            .split('/')
            .all(|p| comps.next().is_some_and(|c| c.as_os_str() == p))
    }

    fn test_tail_start(lines: &[&str]) -> usize {
        for (i, l) in lines.iter().enumerate() {
            let t = l.trim_start();
            if t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test") {
                let next_item = lines[i + 1..]
                    .iter()
                    .map(|l| l.trim_start())
                    .find(|t| !t.is_empty() && !t.starts_with("#["));
                if next_item.is_some_and(|t| t.starts_with("mod ") || t.starts_with("pub mod ")) {
                    return i;
                }
            }
        }
        lines.len()
    }

    fn comment_nearby(lines: &[&str], idx: usize, needle: &str, window: usize) -> bool {
        let lo = idx.saturating_sub(window);
        lines[lo..=idx]
            .iter()
            .any(|l| l.find("//").is_some_and(|pos| l[pos..].contains(needle)))
    }

    fn code_portion(line: &str) -> String {
        let mut out = String::with_capacity(line.len());
        let mut chars = line.chars().peekable();
        let mut in_str = false;
        while let Some(c) = chars.next() {
            if in_str {
                if c == '\\' {
                    chars.next();
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '/' if chars.peek() == Some(&'/') => break,
                _ => out.push(c),
            }
        }
        out
    }

    pub fn lint_file(rel: &Path, text: &str, stats: &mut Stats, out: &mut Vec<Violation>) {
        let lines: Vec<&str> = text.lines().collect();
        let tail = test_tail_start(&lines);
        let facade_exempt = FACADE_CRATES.iter().any(|c| rel_starts_with(rel, c));
        let hot_path = HOT_PATH_FILES.iter().any(|f| rel_starts_with(rel, f));

        for (i, raw) in lines.iter().enumerate().take(tail) {
            let lineno = i + 1;
            let code = code_portion(raw);
            if code.trim().is_empty() {
                continue;
            }

            if !facade_exempt
                && !raw.contains("lint: allow-std-sync")
                && (code.contains("std::sync::atomic")
                    || code.contains("std::sync::Mutex")
                    || code.contains("std::sync::RwLock")
                    || code.contains("std::sync::Condvar")
                    || code.contains("std::thread")
                    || code.contains("parking_lot::")
                    || code.contains("use parking_lot"))
            {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "R1",
                    message: "direct sync primitive".into(),
                });
            }

            if !facade_exempt && (code.contains("SeqCst") || code.contains("Relaxed")) {
                stats.ordering_sites += 1;
                if !raw.contains("lint: allow-ordering")
                    && !comment_nearby(&lines, i, "ordering:", COMMENT_WINDOW)
                {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: lineno,
                        rule: "R2",
                        message: "SeqCst/Relaxed without justification".into(),
                    });
                }
            }

            if code.contains("unsafe")
                && !code.contains("unsafe_code")
                && !code.contains("unsafe_op_in_unsafe_fn")
            {
                stats.unsafe_blocks += 1;
                if !raw.contains("lint: allow-unsafe")
                    && !comment_nearby(&lines, i, "SAFETY:", COMMENT_WINDOW)
                {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: lineno,
                        rule: "R3",
                        message: "`unsafe` without SAFETY".into(),
                    });
                }
            }

            if hot_path && code.contains("Instant::now") && !raw.contains("lint: allow-instant") {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "R4",
                    message: "Instant::now() on the hot path".into(),
                });
            }

            if !facade_exempt
                && code.contains("fence(")
                && !code.contains("SeqCst")
                && !code.contains("Relaxed")
                && !raw.contains("lint: allow-ordering")
                && !comment_nearby(&lines, i, "ordering:", COMMENT_WINDOW)
            {
                stats.ordering_sites += 1;
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "R5",
                    message: "fence without justification".into(),
                });
            }
        }
    }
}

/// (rule, line) verdicts from the legacy lint for one snippet.
fn legacy_verdicts(rel: &str, src: &str) -> BTreeSet<(String, u32)> {
    let mut stats = legacy::Stats::default();
    let mut out = Vec::new();
    legacy::lint_file(Path::new(rel), src, &mut stats, &mut out);
    out.iter()
        .map(|v| (v.rule.to_string(), u32::try_from(v.line).unwrap()))
        .collect()
}

/// (rule, line) verdicts from the token-based re-host for one snippet.
fn rehost_verdicts(rel: &str, src: &str) -> BTreeSet<(String, u32)> {
    let lexed = rubic_analyze::lexer::lex(src);
    let mut stats = rubic_analyze::report::Stats::default();
    let mut out = Vec::new();
    rubic_analyze::passes::lexical::check_file(Path::new(rel), &lexed, &mut stats, &mut out);
    out.iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect()
}

/// Both implementations, full tree: identical clean verdicts over the
/// identical file set.
#[test]
fn tree_wide_verdicts_agree() {
    let root = workspace_root();
    let legacy = legacy::run(&root);
    let rehost = rubic_analyze::analyze_lexical(&root);

    let legacy_stats = match legacy {
        Ok(stats) => stats,
        Err(v) => panic!(
            "legacy lint found violations:\n{}",
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        ),
    };
    assert!(
        rehost.findings.is_empty(),
        "re-hosted lint found violations:\n{}",
        rehost
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(legacy_stats.files, rehost.stats.files, "file sets differ");
}

/// Rule-by-rule agreement on adversarial snippets: every rule firing,
/// every escape, the facade/hot-path scoping, and the test-tail
/// exemption.
#[test]
fn snippet_verdicts_agree() {
    let cases: &[(&str, &str)] = &[
        ("crates/stm/src/x.rs", "use std::sync::Mutex;\n"),
        ("crates/stm/src/x.rs", "use parking_lot::Mutex;\n"),
        ("crates/sync/src/lib.rs", "use std::sync::Mutex;\nlet x = a.load(Ordering::SeqCst);\n"),
        ("crates/runtime/src/x.rs", "let x = a.load(Ordering::SeqCst);\n"),
        (
            "crates/runtime/src/x.rs",
            "// ordering: total order with producer increments\nlet x = a.load(Ordering::SeqCst);\n",
        ),
        ("crates/runtime/src/x.rs", "let x = a.load(Ordering::Relaxed); // ordering: stat counter\n"),
        ("crates/runtime/src/x.rs", "let x = a.load(Ordering::Acquire);\na.store(1, Ordering::Release);\n"),
        ("crates/stm/src/x.rs", "let p = unsafe { *ptr };\n"),
        (
            "crates/stm/src/x.rs",
            "// SAFETY: ptr is valid for the guard's lifetime\nlet p = unsafe { *ptr };\n",
        ),
        ("crates/stm/src/vlock.rs", "let t = Instant::now();\n"),
        ("crates/stm/src/stats.rs", "let t = Instant::now();\n"),
        ("crates/stm/src/clock.rs", "fence(Ordering::AcqRel);\n"),
        ("crates/stm/src/clock.rs", "fence(Ordering::SeqCst);\n"),
        (
            "crates/stm/src/clock.rs",
            "// ordering: pairs the slot store with the clock re-read\nfence(Ordering::AcqRel);\n",
        ),
        ("crates/check/src/x.rs", "fence(Ordering::AcqRel);\n"),
        (
            "crates/stm/src/x.rs",
            "use std::sync::Mutex; // lint: allow-std-sync — poison fixture\n\
             let x = a.load(Ordering::SeqCst); // lint: allow-ordering\n",
        ),
        ("crates/stm/src/x.rs", "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n"),
        ("crates/stm/src/x.rs", "#[cfg(test)]\nfn helper() {}\nuse std::sync::Mutex;\n"),
        ("crates/stm/src/x.rs", "// std::sync::Mutex is banned here\nlet s = \"no unsafe here\";\n"),
    ];
    for (rel, src) in cases {
        assert_eq!(
            legacy_verdicts(rel, src),
            rehost_verdicts(rel, src),
            "verdicts diverge on {rel}:\n{src}"
        );
    }
}
