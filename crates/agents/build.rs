//! Build-time source fingerprint for the agent models.
//!
//! `soft serve` keys its persistent result store on agent fingerprints.
//! The coverage-label universe alone cannot see a behaviour change that
//! keeps every label — a flipped branch constant, a different emitted
//! output — so the fingerprint also folds in a hash of the sources the
//! model's semantics flow through: this crate plus the wire-format,
//! data-plane, and symbolic-context crates it builds on, and the solver,
//! kernel, and witness crates that shape the stored artifacts and
//! corpora (a changed term orientation or model choice changes published
//! bytes). Any edit to those sources changes `SOFT_AGENTS_BUILD_FP`, so a
//! restarted daemon re-solves instead of serving stale pre-change
//! artifacts.

use std::fs;
use std::path::{Path, PathBuf};

/// FNV-1a 64 with a 0x1f separator after each field, matching
/// `soft_harness::journal::fnv64_hex` (not linkable from a build
/// script — the harness crate depends on this one's siblings).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn field(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0x1f]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Collect every `.rs` file under `dir`, recursively, as
/// (workspace-relative label, absolute path) pairs.
fn collect(dir: &Path, label: &str, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            collect(&path, &format!("{label}/{name}"), out);
        } else if name.ends_with(".rs") {
            out.push((format!("{label}/{name}"), path));
        }
    }
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR");
    // The crates whose sources define agent behaviour or shape stored
    // artifacts. Paths are
    // relative to crates/agents; the labels are checkout-independent so
    // the fingerprint is stable across machines for identical sources.
    let roots = [
        ("agents/src", "src"),
        ("protocol/src", "../protocol/src"),
        ("openflow/src", "../openflow/src"),
        ("dataplane/src", "../dataplane/src"),
        ("sym/src", "../sym/src"),
        ("smt/src", "../smt/src"),
        ("core/src", "../core/src"),
        ("witness/src", "../witness/src"),
    ];
    let mut files = Vec::new();
    for (label, rel) in roots {
        let dir = Path::new(&manifest).join(rel);
        println!("cargo:rerun-if-changed={}", dir.display());
        collect(&dir, label, &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    h.field(b"soft-agents-build");
    for (label, path) in &files {
        h.field(label.as_bytes());
        h.field(&fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display())));
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rustc-env=SOFT_AGENTS_BUILD_FP={:016x}", h.0);
}
