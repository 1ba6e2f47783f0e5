//! Rule `deps`: dependency hygiene for every workspace `Cargo.toml`.
//!
//! A line-oriented TOML subset parser — enough to read dependency section
//! headers and the crate name on each entry line. The allowed set is the
//! crates vendored under `vendor/`; anything else would fail to resolve
//! offline anyway, so the rule turns a confusing resolver error into a
//! one-line finding. Threads and locks come from std, and the wire codec
//! is the only serializer.

use crate::rules::Finding;

/// External crates the workspace may depend on: the vendored set.
const ALLOWED: &[&str] = &["rand", "proptest"];

fn allowed(name: &str) -> bool {
    // Workspace-internal crates are always fine.
    ALLOWED.contains(&name) || name.starts_with("imageproof")
}

/// Section headers whose entries are dependency declarations:
/// `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]`, `[target.….dependencies]`, ….
fn is_dep_section(section: &str) -> bool {
    matches!(
        section.rsplit('.').next().unwrap_or(section),
        "dependencies" | "dev-dependencies" | "build-dependencies"
    )
}

/// `[patch.*]` and `[replace]` tables also name external crates — a patch
/// pulling in a crate outside the offline set breaks the build the same
/// way a dependency does.
fn is_patch_section(section: &str) -> bool {
    section == "replace" || section == "patch" || section.starts_with("patch.")
}

/// For `[dependencies.NAME]`- and `[patch.src.NAME]`-style headers, the
/// declared crate name. In `[patch.SOURCE]` the trailing segment is the
/// patched *source* (e.g. `crates-io`), not a crate — only a three-part
/// `patch` header names one.
fn dep_of_section_header(section: &str) -> Option<&str> {
    let (parent, name) = section.rsplit_once('.')?;
    (is_dep_section(parent) || parent.starts_with("patch.")).then_some(name)
}

/// Scans one manifest; returns a `deps` finding per disallowed crate.
pub fn analyze_manifest(path: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    let flag = |name: &str, line: usize, out: &mut Vec<Finding>| {
        if !name.is_empty() && !allowed(name) {
            out.push(Finding {
                path: path.to_string(),
                line,
                rule: "deps",
                message: format!("dependency '{name}' is outside the allowed crate set"),
            });
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section.trim_start_matches('[').trim_end_matches(']').trim();
            if let Some(name) = dep_of_section_header(section) {
                // Expanded form: the header names the crate; body lines
                // are its attributes (version, path, …), not crates.
                flag(name, idx + 1, &mut out);
                in_dep_section = false;
            } else {
                in_dep_section = is_dep_section(section) || is_patch_section(section);
            }
            continue;
        }
        if in_dep_section {
            // `:` covers `[replace]`'s `"crate:version" = …` keys.
            let name = line
                .split(['=', '.', ' ', '\t', ':'])
                .next()
                .unwrap_or("")
                .trim_matches('"');
            flag(name, idx + 1, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_rule_flags_a_disallowed_crate() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\nlibc = \"0.2\"\n";
        let f = analyze_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "deps");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("libc"));
    }

    #[test]
    fn deps_rule_flags_expanded_section_headers() {
        let toml = "[dependencies.syn]\nversion = \"2\"\n";
        let f = analyze_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("syn"));
    }

    #[test]
    fn deps_rule_passes_the_allowed_set_and_workspace_crates() {
        let toml = "[package]\nname = \"imageproof-core\"\n\n\
                    [dependencies]\n\
                    imageproof-crypto = { path = \"../crypto\" }\n\
                    rand.workspace = true # ok\n\n\
                    [dev-dependencies]\n\
                    proptest = \"1\"\n";
        let f = analyze_manifest("Cargo.toml", toml);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn deps_rule_flags_the_retired_stand_ins() {
        let toml = "[workspace.dependencies]\n\
                    serde = { version = \"1\", features = [\"derive\"] }\n\
                    crossbeam = \"0.8\"\n\
                    parking_lot = \"0.12\"\n\
                    bytes = \"1\"\n\
                    criterion = \"0.5\"\n";
        let f = analyze_manifest("Cargo.toml", toml);
        let flagged: Vec<&str> = f
            .iter()
            .map(|x| x.message.split('\'').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(
            flagged,
            ["serde", "crossbeam", "parking_lot", "bytes", "criterion"]
        );
    }

    #[test]
    fn deps_rule_scans_build_dependencies() {
        let toml = "[package]\nname = \"x\"\n\n[build-dependencies]\ncc = \"1.0\"\n";
        let f = analyze_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cc"));
    }

    #[test]
    fn deps_rule_scans_vendored_stub_dev_dependencies() {
        // Vendored stubs are still workspace manifests: a stub quietly
        // growing a dev-dependency outside the offline set must flag.
        let toml = "[package]\nname = \"proptest\"\n\n[dev-dependencies]\nquickcheck = \"1\"\n";
        let f = analyze_manifest("vendor/proptest/Cargo.toml", toml);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("quickcheck"));
    }

    #[test]
    fn deps_rule_scans_target_specific_tables() {
        let toml = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n\
                    [target.'cfg(windows)'.dependencies.winapi]\nversion = \"0.3\"\n";
        let f = analyze_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("libc"));
        assert!(f[1].message.contains("winapi"));
    }

    #[test]
    fn deps_rule_scans_patch_and_replace_tables() {
        let toml = "[patch.crates-io]\n\
                    serde = { path = \"vendor/serde\" }\n\
                    libc = { path = \"vendor/libc\" }\n\n\
                    [patch.crates-io.getrandom]\npath = \"vendor/getrandom\"\n\n\
                    [replace]\n\"memoffset:0.6.4\" = { path = \"vendor/memoffset\" }\n";
        let f = analyze_manifest("Cargo.toml", toml);
        let names: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(names[0].contains("serde"), "{names:?}");
        assert!(names[1].contains("libc"), "{names:?}");
        assert!(names[2].contains("getrandom"), "{names:?}");
        assert!(names[3].contains("memoffset"), "{names:?}");
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let toml = "[package]\nname = \"x\"\nlibc = \"not a dep, just a weird key\"\n\
                    [[bin]]\nname = \"tool\"\n[features]\nextra = []\n";
        let f = analyze_manifest("Cargo.toml", toml);
        assert!(f.is_empty(), "{f:?}");
    }
}
