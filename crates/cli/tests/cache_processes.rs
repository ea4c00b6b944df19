//! Two `rrb run` processes filling one result store at the same time:
//! each appends to a segment of its own, both render the same bytes as
//! an uncached run, and the store they leave verifies clean and warm.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn rrb(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rrb"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn succeeded(output: Output, what: &str) -> String {
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{what} failed: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn two_processes_fill_one_cache_dir_at_once_and_it_verifies() {
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("rrb-cli-two-processes-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("scratch dir");
    let (spec, cache) = (dir.0.join("sweep.json"), dir.0.join("cache"));
    let (spec, cache) = (path_str(&spec), path_str(&cache));
    let flags = "export-spec --arch toy --cores 4 --l-bus 2 --scenario derive --arbiters rr,fifo \
                 --iterations 60 --max-k 14 --out";
    let mut export: Vec<&str> = flags.split_whitespace().collect();
    export.push(spec);
    let exported = rrb(&export).output().expect("spawn export-spec");
    succeeded(exported, "export-spec");

    let run = ["run", spec, "--format", "json", "--cache-dir", cache];
    let racing: Vec<_> = (0..2).map(|_| rrb(&run).spawn().expect("spawn rrb run")).collect();
    let outputs: Vec<String> = racing
        .into_iter()
        .map(|child| succeeded(child.wait_with_output().expect("wait for rrb run"), "rrb run"))
        .collect();
    let uncached = succeeded(
        rrb(&["run", spec, "--format", "json", "--no-cache"]).output().expect("spawn"),
        "uncached rrb run",
    );
    for output in &outputs {
        assert_eq!(output, &uncached, "a racing cached run must render the uncached bytes");
    }

    let verify = succeeded(
        rrb(&["cache", "verify", "--cache-dir", cache]).output().expect("spawn"),
        "cache verify",
    );
    assert!(verify.contains("all valid"), "{verify}");
    let stats = succeeded(
        rrb(&["cache", "stats", "--cache-dir", cache]).output().expect("spawn"),
        "cache stats",
    );
    assert!(!stats.contains("entries          : 0"), "{stats}");
    // A warm run simulates nothing: its cache summary on stderr says so.
    let warm = rrb(&run).output().expect("spawn warm rrb run");
    let stderr = String::from_utf8_lossy(&warm.stderr).into_owned();
    assert_eq!(succeeded(warm, "warm rrb run"), uncached);
    assert!(stderr.contains(" 0 simulated"), "{stderr}");
}
