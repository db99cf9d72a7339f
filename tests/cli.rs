//! Bin-level contracts of `cv-serve` and `cv-chaos`: what the tools do with
//! the `--store-dir` a user names, and how a run that cannot start is
//! reported. Both tests exit the bins before any workload day runs.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cv-cli-{name}-{}", std::process::id()))
}

/// A pinned directory with something in it is refused (exit 2, naming it)
/// and its contents survive: only a directory a tool made itself is removed.
#[test]
fn a_non_empty_store_dir_is_refused_and_left_intact() {
    let dir = scratch("pinned");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("keep.txt"), "mine").unwrap();
    let bins: [(&str, &[&str]); 2] =
        [(env!("CARGO_BIN_EXE_cv-serve"), &[]), (env!("CARGO_BIN_EXE_cv-chaos"), &["--crash"])];
    for (bin, mode) in bins {
        let out = Command::new(bin).args(mode).arg("--store-dir").arg(&dir).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains(dir.to_str().unwrap()), "{bin} does not name the directory");
        assert_eq!(std::fs::read_to_string(dir.join("keep.txt")).unwrap(), "mine", "{bin}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store that cannot be opened (its parent is a regular file, which fails
/// for root too) is `cv-serve: <error>` and exit 1 — not a panic.
#[test]
fn a_store_that_cannot_be_opened_is_an_error_not_a_panic() {
    let file = scratch("file");
    std::fs::write(&file, "").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cv-serve"))
        .args(["--days", "1", "--analytics", "4", "--store-dir"])
        .arg(file.join("store"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("cv-serve: ") && stderr.contains("store io"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&file).unwrap();
}
