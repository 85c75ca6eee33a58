//! Computes `LAPERM_SIM_SOURCE_DIGEST` for `resilience::CODE_FINGERPRINT`:
//! FNV-1a 64 over the path and bytes of every source file of the crates
//! that decide a matrix cell's record, walked in sorted order, so an
//! edit to any of them changes every cell key.

use std::path::{Path, PathBuf};

/// Every file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let listing = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in listing {
        let path = entry.unwrap_or_else(|e| panic!("{}: {e}", dir.display())).path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for krate in ["gpu-sim", "dynpar", "core", "workloads", "wdsl", "metrics"] {
        let src = crates.join(krate).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = Vec::new();
        files_under(&src, &mut files);
        files.sort();
        for file in files {
            let bytes = std::fs::read(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            // The path, a NUL no path contains, then the length-prefixed
            // bytes: no two file sets feed the same byte stream.
            feed(file.strip_prefix(&crates).expect("under crates/").to_string_lossy().as_bytes());
            feed(&[0]);
            feed(&(bytes.len() as u64).to_le_bytes());
            feed(&bytes);
        }
    }
    println!("cargo:rustc-env=LAPERM_SIM_SOURCE_DIGEST={hash:016x}");
}
