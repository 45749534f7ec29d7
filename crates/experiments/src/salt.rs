//! The result cache's code salt: a hash of the simulator's semantic
//! sources.
//!
//! A cached sweep cell is valid only while the code that computed it is
//! unchanged, so every cache key folds in [`crate::sweep::CODE_SALT`],
//! which the crate's build script derives from the source files of the
//! crates that define what a simulation produces. Any edit to them — one
//! byte suffices — changes the salt and turns every old cell into a miss.
//! The build script includes this file directly, so the salt it bakes in
//! and the one tests recompute come from the same function.

use std::io;
use std::path::Path;

/// The crates whose sources define simulation semantics (directories
/// under the workspace's `crates/`).
pub const SEMANTIC_CRATES: [&str; 7] = [
    "types",
    "workloads",
    "cache",
    "protocol",
    "timing",
    "sim",
    "stats",
];

/// Every `.rs` file under each semantic crate's `src/`, as
/// `(path relative to crates_dir, contents)`, sorted by path.
pub fn semantic_sources(crates_dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, Vec<u8>)>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = format!("{rel}/{name}");
            if entry.file_type()?.is_dir() {
                walk(&entry.path(), &rel, out)?;
            } else if name.ends_with(".rs") {
                out.push((rel, std::fs::read(entry.path())?));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for c in SEMANTIC_CRATES {
        walk(
            &crates_dir.join(c).join("src"),
            &format!("{c}/src"),
            &mut out,
        )?;
    }
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// FNV-1a over each source's path, length and bytes, in order.
pub fn salt_of(sources: &[(String, Vec<u8>)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, bytes) in sources {
        eat(path.as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(bytes);
    }
    h
}
