//! Panic-site audit for the serving and storage I/O paths.
//!
//! A chaos-hardened server must never turn an I/O failure into a
//! panic: disk and socket errors are *expected inputs*. This gate
//! scans every non-test line of `crates/server/src` and
//! `crates/verifier/src/store` for `.unwrap()` / `.expect(` and
//! requires each hit to appear in the allowlist below. Every allowed
//! site is an invariant that cannot fail without a prior bug (lock
//! poisoning after a panic elsewhere, fixed-width slice conversions,
//! options checked on the line above) — **none** of them guards an
//! I/O result. Adding a new panic site means justifying it here, in
//! review, next to its peers.

use std::path::{Path, PathBuf};

/// Trimmed source lines allowed to contain `.unwrap()` / `.expect(`.
/// Keep sorted by file for reviewability.
const ALLOWED: &[&str] = &[
    // resilient.rs: the connection was populated two lines above.
    r#"Ok(self.conn.as_mut().expect("just ensured"))"#,
    // store/mod.rs: the segment mutex, same poisoning argument.
    r#"self.active.lock().expect("store lock poisoned").seq"#,
    r#"let mut active = self.active.lock().expect("store lock poisoned");"#,
    r#"let active = self.active.lock().expect("store lock poisoned");"#,
    // store/mod.rs: snapshot decode enforces strictly ascending ids.
    r#".expect("decoded snapshot ids are strictly ascending");"#,
    // store/snapshot.rs, store/wal.rs: fixed-width length conversions
    // over buffers whose sizes were validated by the caller.
    r#"out.put_u32(u32::try_from(shards).expect("shard count fits u32"));"#,
    r#"let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("len 4"));"#,
    r#"out.put_u32(u32::try_from(payload.len()).expect("payload fits u32"));"#,
    r#"let declared = u32::from_le_bytes(header[..4].try_into().expect("len 4")) as usize;"#,
    r#"let stored = u32::from_le_bytes(header[4..].try_into().expect("len 4"));"#,
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source tree readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Non-test, non-comment lines of `path` containing a panic site.
fn panic_sites(path: &Path) -> Vec<(usize, String)> {
    let source = std::fs::read_to_string(path).expect("source readable");
    let mut sites = Vec::new();
    for (number, line) in source.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break; // test modules sit at the bottom of every file here
        }
        let trimmed = line.trim();
        if trimmed.starts_with("//") {
            continue; // doc examples may unwrap freely
        }
        if trimmed.contains(".unwrap()") || trimmed.contains(".expect(") {
            sites.push((number + 1, trimmed.to_string()));
        }
    }
    sites
}

#[test]
fn io_paths_have_no_unsanctioned_panic_sites() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let roots = [
        manifest.join("src"),
        manifest
            .parent()
            .expect("crates dir")
            .join("verifier")
            .join("src")
            .join("store"),
    ];

    let mut files = Vec::new();
    for root in &roots {
        assert!(root.is_dir(), "audit root moved: {}", root.display());
        rust_sources(root, &mut files);
    }
    assert!(files.len() >= 10, "audit must see the whole surface");

    let mut seen: Vec<&str> = Vec::new();
    let mut violations = Vec::new();
    for file in &files {
        for (line, site) in panic_sites(file) {
            match ALLOWED.iter().find(|a| **a == site) {
                Some(allowed) => seen.push(allowed),
                None => violations.push(format!("{}:{line}: {site}", file.display())),
            }
        }
    }
    assert!(
        violations.is_empty(),
        "unsanctioned .unwrap()/.expect() on an I/O path — handle the \
         error or justify the invariant in the audit allowlist:\n{}",
        violations.join("\n")
    );

    // The allowlist may not rot: every entry must still exist, so a
    // removed site cannot silently shelter a future panic elsewhere.
    let stale: Vec<&&str> = ALLOWED.iter().filter(|a| !seen.contains(*a)).collect();
    assert!(
        stale.is_empty(),
        "allowlist entries no longer present in the sources — remove \
         them:\n{stale:#?}"
    );
}
