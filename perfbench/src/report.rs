//! Result assembly: metrics with units, attempted/failed counts, the
//! correctness digests, the provenance header, and the final JSON line.

use std::fmt::Write as _;

use crate::Workload;

/// Metrics in the order they were measured, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What one run reports besides its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed (each reported on stderr).
    pub checks_failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Count `n` operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("perfbench: check failed: {}", what());
            self.checks_failed += 1;
        }
    }

    /// Print the human-readable metric lines, then the JSON result as the
    /// last line of stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics.0 {
            println!("metric {name} = {value} {unit}");
        }
        let mut json = String::new();
        let correct = self.checks_failed == 0 && self.failed == 0;
        write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which no metric should produce) become null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a over a stream of 64-bit words: the correctness digests, equal
/// across runs of the same code on the same seed.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The source revision: `git rev-parse HEAD` when the tree is a git
/// checkout, else a digest of the workspace sources the benchmark builds.
fn source_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return source_digest();
    }
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    source_digest()
}

fn source_digest() -> String {
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            d.word(b as u64);
        }
    }
    format!("src-{}", d.hex())
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The provenance header: machine, dispatch arm, knobs, wire, revision
/// and seed — the record of what produced the numbers below it.
pub fn print_provenance(wl: &Workload, seed: u64, seconds: f64, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let simd = if rlsched_nn::simd::simd_enabled() {
        "avx2+fma"
    } else {
        "portable"
    };
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RLSCHED_"))
        .collect();
    knobs.sort();
    let knobs: Vec<String> = knobs
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let wire = rlsched_serve::wire_env();
    println!(
        "provenance {{\"nproc\": {nproc}, \"simd\": \"{simd}\", \"env\": {{{}}}, \
         \"wire\": \"{:?}-{}\", \"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {trace}}}",
        knobs.join(", "),
        wire.protocol,
        if wire.prefer_uds { "uds" } else { "tcp" },
        source_rev(),
        wl.name,
    );
}

/// CPU steal: the share of the machine's CPU time that a hypervisor gave
/// to other tenants while this guest was runnable. Printed beside each
/// path's figures, so that a slow run on a shared VM can be told from a
/// slow program.
#[derive(Clone, Copy)]
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    pub fn now() -> Steal {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Steal {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().take(8).sum(),
        }
    }

    /// Steal share of all CPU ticks since `self`, in percent.
    pub fn pct_since(self) -> f64 {
        let now = Steal::now();
        let total = now.total.saturating_sub(self.total).max(1);
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}
