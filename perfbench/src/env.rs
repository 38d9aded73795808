//! Set-up of the system under test and readings of the process and host
//! around it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nra::tpch::{generate, TpchConfig};
use nra::Database;
use nra_server::ServerHandle;

/// A durable database loaded with the generated data, served over TCP.
pub struct Env {
    pub db: Database,
    pub server: ServerHandle,
    pub dir: PathBuf,
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// `Database::open` on an empty directory plus one durable
    /// `add_table` per generated table.
    pub import_s: f64,
    /// The checkpoint that folds the import into a snapshot.
    pub checkpoint_s: f64,
    pub total_s: f64,
}

/// Generate the nullable catalog at `scale` from `seed`, import it into
/// a fresh durable directory, checkpoint, and start the server on an
/// ephemeral localhost port.
pub fn setup(dir: &Path, seed: u64, scale: f64) -> Result<(Env, SetupTimes), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let start = Instant::now();
    let cat = generate(
        &TpchConfig::scaled(scale)
            .nullable_links(0.0)
            .with_seed(seed),
    );
    let generated = Instant::now();
    let db = Database::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    for name in cat.table_names() {
        let table = cat.table(name).map_err(|e| e.to_string())?.clone();
        db.add_table(table)
            .map_err(|e| format!("import {name}: {e}"))?;
    }
    let imported = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpointed = Instant::now();
    let server = nra_server::serve(db.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let served = Instant::now();
    let times = SetupTimes {
        generate_s: (generated - start).as_secs_f64(),
        import_s: (imported - generated).as_secs_f64(),
        checkpoint_s: (checkpointed - imported).as_secs_f64(),
        total_s: (served - start).as_secs_f64(),
    };
    let env = Env {
        db,
        server,
        dir: dir.to_path_buf(),
    };
    Ok((env, times))
}

/// A process-cumulative counter of the engine's global metrics registry
/// (summed over labels).
pub fn counter(name: &str) -> u64 {
    nra::obs::metrics::global().snapshot().counter_total(name)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// This process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a result came from: host, toolchain, code and inputs. Results
/// with different hosts are never compared.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    /// FNV-1a over the Rust sources and manifests of the program and of
    /// this benchmark, which identifies the code when the checkout is not
    /// a git repository.
    pub source_digest: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Digest of `Cargo.toml`, `src/`, `crates/` and `perfbench/src/` under
/// `root` (`.rs` and `Cargo.toml` files, visited in sorted order).
fn source_digest(root: &Path) -> u64 {
    fn visit(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                visit(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    visit(&root.join("src"), &mut files);
    visit(&root.join("crates"), &mut files);
    visit(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f.to_string_lossy().into_owned().into_bytes();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in name.iter().chain(&body) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
