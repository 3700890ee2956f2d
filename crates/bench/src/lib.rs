//! Shared plumbing for the experiment binaries.
//!
//! Every `figN` binary accepts the same flags:
//!
//! * `--full` — paper scale (6.4 M keys × 1000 B values; hours, needs RAM);
//!   default is the *quick* profile, which preserves every shape at
//!   laptop scale (see `README.md`, "Experiments").
//! * `--keys N`, `--ops N`, `--dataset NAME` — override the profile;
//! * `--cache-mb N` — engine cache budget (default 0: uncached);
//! * `--out PATH` — additionally write the records as JSON.

pub mod runner;

use lsm_workloads::Dataset;

/// Experiment scale profile.
#[derive(Debug, Clone)]
pub struct Scale {
    pub keys: usize,
    pub value_width: usize,
    pub sst_bytes: u64,
    pub write_buffer_bytes: usize,
    pub ops: usize,
}

impl Scale {
    /// Laptop-scale profile: the tree still spans 3+ levels and the largest
    /// position boundary still covers multiple I/O blocks.
    pub fn quick() -> Self {
        Self {
            keys: 120_000,
            value_width: 64,
            sst_bytes: 512 << 10,
            write_buffer_bytes: 512 << 10,
            ops: 20_000,
        }
    }

    /// The paper's scale: 6.4 M keys, 1000-byte values, 64 MiB buffer.
    pub fn full() -> Self {
        Self {
            keys: 6_400_000,
            value_width: 1000,
            sst_bytes: 64 << 20,
            write_buffer_bytes: 64 << 20,
            ops: 1_000_000,
        }
    }

    /// Smallest profile that still exercises every code path — used by the
    /// integration smoke tests of the harness itself.
    pub fn smoke() -> Self {
        Self {
            keys: 20_000,
            value_width: 32,
            sst_bytes: 128 << 10,
            write_buffer_bytes: 128 << 10,
            ops: 2_000,
        }
    }
}

/// Parsed command-line options for experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    pub scale: Scale,
    pub dataset: Dataset,
    pub all_datasets: bool,
    pub out: Option<String>,
    /// `--cache-mb N`: engine-wide cache budget in MiB (blocks + table
    /// handles). 0 (the default) runs uncached.
    pub cache_mb: usize,
}

impl Cli {
    /// Parse `std::env::args`; prints usage and exits on error.
    pub fn parse() -> Cli {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument list.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut scale = Scale::quick();
        let mut dataset = Dataset::Random;
        let mut all_datasets = false;
        let mut out = None;
        let mut cache_mb = 0usize;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut next_usize = |what: &str| -> usize {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die(&format!("{what} needs a number")))
            };
            match arg.as_str() {
                "--full" => scale = Scale::full(),
                "--smoke" => scale = Scale::smoke(),
                "--keys" => scale.keys = next_usize("--keys"),
                "--ops" => scale.ops = next_usize("--ops"),
                "--cache-mb" => cache_mb = next_usize("--cache-mb"),
                "--dataset" => {
                    let name = it.next().unwrap_or_else(|| die("--dataset needs a name"));
                    dataset = Dataset::from_name(&name)
                        .unwrap_or_else(|| die(&format!("unknown dataset {name}")));
                }
                "--all-datasets" => all_datasets = true,
                "--out" => out = Some(it.next().unwrap_or_else(|| die("--out needs a path"))),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full | --smoke | --keys N | --ops N | --cache-mb N | --dataset NAME | --all-datasets | --out PATH"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown flag {other}")),
            }
        }
        Cli {
            scale,
            dataset,
            all_datasets,
            out,
            cache_mb,
        }
    }

    /// Datasets selected by the flags.
    pub fn datasets(&self) -> Vec<Dataset> {
        if self.all_datasets {
            Dataset::ALL.to_vec()
        } else {
            vec![self.dataset]
        }
    }

    /// Write `json` to `--out` if given.
    pub fn maybe_write(&self, json: &str) {
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                eprintln!("wrote {path}");
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_random() {
        let c = parse(&[]);
        assert_eq!(c.scale.keys, Scale::quick().keys);
        assert_eq!(c.dataset, Dataset::Random);
        assert!(!c.all_datasets);
    }

    #[test]
    fn overrides_apply() {
        let c = parse(&[
            "--keys",
            "500",
            "--ops",
            "7",
            "--dataset",
            "wiki",
            "--out",
            "/tmp/x.json",
        ]);
        assert_eq!(c.scale.keys, 500);
        assert_eq!(c.scale.ops, 7);
        assert_eq!(c.dataset, Dataset::Wiki);
        assert_eq!(c.out.as_deref(), Some("/tmp/x.json"));
        assert_eq!(c.cache_mb, 0, "uncached by default");
    }

    #[test]
    fn full_profile_is_paper_scale() {
        let c = parse(&["--full"]);
        assert_eq!(c.scale.keys, 6_400_000);
        assert_eq!(c.scale.value_width, 1000);
    }

    #[test]
    fn all_datasets_selects_seven() {
        assert_eq!(parse(&["--all-datasets"]).datasets().len(), 7);
        assert_eq!(parse(&[]).datasets().len(), 1);
    }
}
