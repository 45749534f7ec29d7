//! Bakes the result cache's code salt (see `src/salt.rs`) into
//! `$OUT_DIR/code_salt.rs`, rebuilding whenever a semantic source changes.

#[path = "src/salt.rs"]
mod salt;

use std::path::Path;

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR");
    let crates_dir = Path::new(&manifest)
        .parent()
        .expect("crate lives in crates/");
    for c in salt::SEMANTIC_CRATES {
        println!(
            "cargo:rerun-if-changed={}",
            crates_dir.join(c).join("src").display()
        );
    }
    let sources = salt::semantic_sources(crates_dir).expect("read semantic sources");
    let out = Path::new(&std::env::var("OUT_DIR").expect("OUT_DIR")).join("code_salt.rs");
    std::fs::write(out, format!("{:#018x}", salt::salt_of(&sources))).expect("write salt");
}
