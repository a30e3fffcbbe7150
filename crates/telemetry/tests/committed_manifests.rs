//! Format pin over the run manifests committed with the repository.
//!
//! Every `results/*manifest.json` and the `BENCH_PR7.json` sidecar must
//! keep parsing, and re-rendering one must reproduce its bytes: files
//! written at schema v4 or later come back byte-identical, and v1/v2
//! files come back with only the v4 execution-shape defaults
//! (`"host_cores":1,"plane_width":64`) inserted after `threads`. A change
//! to the manifest reader or writer that alters either is a format
//! change, not a refactor.

use leonardo_telemetry::RunManifest;
use std::path::{Path, PathBuf};

fn committed_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("results"))
        .expect("results/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with("manifest.json"))
        })
        .collect();
    files.sort();
    files.push(root.join("BENCH_PR7.json.manifest.json"));
    files
}

#[test]
fn committed_manifests_parse_and_re_render_byte_identically() {
    let files = committed_manifests();
    let mut pre_v4 = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).expect("manifest readable");
        let m =
            RunManifest::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rendered = format!("{}\n", m.to_json());
        let expected = if m.schema_version >= 4 {
            text.clone()
        } else {
            pre_v4 += 1;
            let threads = format!(",\"threads\":{}", m.threads);
            assert!(text.contains(&threads), "{}", path.display());
            text.replacen(
                &threads,
                &format!("{threads},\"host_cores\":1,\"plane_width\":64"),
                1,
            )
        };
        assert!(
            rendered == expected,
            "{} (schema v{}) does not re-render to its committed bytes",
            path.display(),
            m.schema_version
        );
    }
    assert!(
        pre_v4 > 0 && pre_v4 < files.len(),
        "the pin must cover both pre-v4 and current layouts: {files:?}"
    );
}
