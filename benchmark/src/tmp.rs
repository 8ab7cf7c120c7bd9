//! A scratch directory inside the checkout, removed on drop (also when
//! a run fails or panics).

use std::path::{Path, PathBuf};

#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<root>/.bench_tmp/<label>-<pid>`, emptying a leftover
    /// from an earlier process with the same id.
    pub fn new(root: &Path, label: &str) -> Result<Self, String> {
        let base = root.join(".bench_tmp");
        remove_orphans(&base);
        let dir = base.join(format!("{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

/// Removes directories left by runs that were killed before their
/// `Drop` ran (their process id no longer exists).
fn remove_orphans(base: &Path) {
    let Ok(entries) = std::fs::read_dir(base) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_string_lossy()
            .rsplit('-')
            .next()
            .map(str::to_string);
        if let Some(pid) = pid.filter(|p| p.parse::<u32>().is_ok()) {
            if !Path::new("/proc").join(&pid).exists() {
                std::fs::remove_dir_all(entry.path()).ok();
            }
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}
