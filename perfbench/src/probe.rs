//! Process and filesystem readings taken from outside the program:
//! CPU time and peak resident memory from `/proc/self`, bytes on disk
//! under a directory, and the scratch directory the benchmark owns.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Bytes in a mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU counters
/// (`USER_HZ`, 100 on every Linux architecture the repository targets).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds this process has used so far, from the
/// `utime` and `stime` fields of `/proc/self/stat`.
pub fn cpu_user_sys() -> io::Result<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // count fields from the last ')'. After it come state (field 3) on,
    // so utime (field 14) and stime (field 15) are at offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| io::Error::other("malformed /proc/self/stat"))
    };
    Ok((tick(11)?, tick(12)?))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Hands the heap memory earlier operations freed back to the operating
/// system (glibc `malloc_trim`), so each operation starts from the resident
/// set of a fresh process plus what is still live, as a one-shot run would.
/// Without it, how much freed memory the allocator kept decides both an
/// operation's page-fault time and where its `VmHWM` starts.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes a plain integer and only releases
        // free pages of the allocator that Rust's default `System`
        // allocator uses on this target.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets this process's `VmHWM` to its current resident set (writes `5`
/// to `/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers only
/// what ran after the reset.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Total bytes of the regular files under `dir` (0 when it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Whether `dir` exists and holds no entries.
pub fn is_empty_dir(dir: &Path) -> bool {
    fs::read_dir(dir).is_ok_and(|mut d| d.next().is_none())
}

/// The median of `values` (the mean of the middle pair for even
/// counts); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 64-bit FNV-1a of `bytes`: a short printable digest of a rendered
/// document (equality checks compare the documents themselves).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Root of every scratch directory, relative to the working directory.
pub const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// A scratch directory the benchmark owns, removed when dropped. Every
/// markdown file, state directory and spill directory of a run lives
/// under it.
#[derive(Debug)]
pub struct OwnedDir {
    path: PathBuf,
}

impl OwnedDir {
    /// Creates `.perfbench_tmp/<label>-<pid>` under the working directory.
    pub fn create(label: &str) -> io::Result<Self> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A subdirectory, created if missing.
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for OwnedDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Remove the shared root too once no other run is using it.
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        // Spin until the 10 ms CPU tick has advanced at least once.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while {
            let (user, sys) = cpu_user_sys().unwrap();
            user + sys == 0.0 && start.elapsed().as_secs() < 5
        } {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        let (user, sys) = cpu_user_sys().unwrap();
        assert!(user + sys > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn owned_dir_is_removed_on_drop() {
        let dir = OwnedDir::create("probe-test").unwrap();
        let path = dir.path().to_path_buf();
        fs::write(dir.subdir("a").unwrap().join("f"), b"1234").unwrap();
        assert_eq!(dir_bytes(&path), 4);
        drop(dir);
        assert!(!path.exists());
    }
}
