//! What a run prints and writes, and how two result files are compared.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::metrics::Metric;
use crate::spec::{self, Better};

/// Where result and span files go, relative to the checkout root the
/// command is run from. Git-ignored.
pub fn out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}

/// One workload's result.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the seeded inputs: the same seed gives the same hash.
    pub inputs_hash: u64,
    /// `(phase, windows actually measured, seconds each)`.
    pub windows: Vec<(&'static str, usize, f64)>,
    /// The lowest tail percentile any window had to fall back to (0.99
    /// unless a window held fewer than 1000 operations).
    pub tail_q: f64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub(crate) fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(v: f64) -> Value {
    // JSON has no NaN or infinity; a ratio over nothing reads 0.
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

pub(crate) fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Commit of the checkout, read from `.git` in the current directory only.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[derive(Debug, Clone, Copy)]
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn header(info: &RunInfo) -> Value {
    object(vec![
        ("git_sha", text(git_sha())),
        ("seed", number(info.seed as f64)),
        (
            "nproc",
            number(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", text(cpu_model())),
        ("rustc", text(env!("BENCH_RUSTC_VERSION"))),
        ("seconds", number(info.seconds)),
        ("trace", Value::Bool(info.trace)),
        ("smoke", Value::Bool(info.smoke)),
        // Toy sizes: a smoke run's numbers say nothing about a full run's.
        ("comparable", Value::Bool(!info.smoke)),
    ])
}

fn workload_json(r: &Report) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", number(m.est.value)),
                ("unit", text(m.unit)),
                ("median", number(m.est.median)),
                ("q1", number(m.est.q1)),
                ("q3", number(m.est.q3)),
                ("windows", number(m.est.windows as f64)),
            ];
            if let Some(v) = m.uncalibrated {
                fields.push(("uncalibrated", number(v)));
            }
            if let Some(source) = m.source {
                fields.push(("source", text(source.as_str())));
            }
            (m.name.clone(), object(fields))
        })
        .collect();
    let windows = r
        .windows
        .iter()
        .map(|&(phase, count, seconds)| {
            (
                phase.to_string(),
                object(vec![
                    ("count", number(count as f64)),
                    ("seconds", number(seconds)),
                ]),
            )
        })
        .collect();
    object(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", number(r.attempted as f64)),
        ("failed", number(r.failed as f64)),
        ("inputs_hash", text(format!("{:016x}", r.inputs_hash))),
        ("windows", Value::Object(windows)),
        ("tail_percentile", number(r.tail_q)),
        ("metrics", Value::Object(metrics)),
    ])
}

/// Write every report of one invocation into one result file.
pub fn write_result(info: &RunInfo, which: &str, reports: &[Report]) -> std::io::Result<PathBuf> {
    let doc = object(vec![
        ("schema", number(1.0)),
        ("header", header(info)),
        (
            "workloads",
            Value::Object(
                reports
                    .iter()
                    .map(|r| (r.workload.to_string(), workload_json(r)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(out_dir())?;
    let kind = if info.trace { "layers" } else { "result" };
    let path = out_dir().join(format!("{kind}-{which}-seed{}.json", info.seed));
    let body = serde_json::to_string_pretty(&doc).expect("a value tree always renders");
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Print every metric as `name value unit`, then the one-line JSON object
/// the driver reads.
pub fn print(r: &Report) {
    println!("# {}", r.workload);
    for m in &r.metrics {
        println!("{} {} {}", m.name, number_text(m.est.value), m.unit);
    }
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(vec![("value", number(m.est.value)), ("unit", text(m.unit))]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", number(r.attempted as f64)),
        ("failed", number(r.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a value tree always renders")
    );
}

fn number_text(v: f64) -> String {
    serde_json::to_string(&number(v)).expect("a number always renders")
}

// ------------------------------------------------------------------ compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The across-window quartile spread of either side is wider than the
    /// bound: the runs cannot tell a change of that size from the host.
    Unresolved,
    /// A per-layer metric: shown, not judged.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One side of a comparison: a metric's value and across-window spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// A metric record's value and its across-window quartile spread as a
/// share of the median.
fn side(metric: &Value) -> Option<Side> {
    let f = |k| metric.get(k).and_then(Value::as_f64);
    let (value, median, q1, q3) = (f("value")?, f("median")?, f("q1")?, f("q3")?);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / median.abs()
    };
    Some(Side { value, spread })
}

fn load(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Value) -> &[(String, Value)] {
    match doc.get("workloads") {
        Some(Value::Object(fields)) => fields,
        _ => &[],
    }
}

/// One row per (metric, workload) present in both files. Returns how many
/// rows regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (doc, path) in [(&a, path_a), (&b, path_b)] {
        let comparable = doc.get("header").and_then(|h| h.get("comparable"));
        if comparable.and_then(Value::as_bool) != Some(true) {
            eprintln!("warning: {path} is a smoke run; its numbers are not comparable");
        }
    }
    println!(
        "{:<14} {:<38} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut regressed = 0;
    for (workload, wa) in workloads(&a) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let Some(Value::Object(metrics)) = wa.get("metrics") else {
            continue;
        };
        for (name, ma) in metrics {
            let Some(mb) = wb.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                return Err(format!("{workload}/{name}: not a metric record"));
            };
            let spec = spec::END_TO_END.iter().find(|m| m.name == name);
            let (worse, bound, verdict) = match spec {
                Some(m) => (
                    format!("{:+.1}%", 100.0 * worsening(sa.value, sb.value, m.better)),
                    format!("{}%", 100.0 * m.bound),
                    judge(sa, sb, m.better, m.bound),
                ),
                None => ("-".into(), "-".into(), Verdict::Info),
            };
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<14} {name:<38} {:>14.6} {:>14.6} {worse:>9} {bound:>6}  {}",
                sa.value,
                sb.value,
                verdict.as_str()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side { value, spread: 0.0 }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worsening(100.0, 80.0, Better::Higher), 0.2);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn a_record_spread_is_its_quartile_distance_over_its_median() {
        let record = |q1: f64, median: f64, q3: f64| {
            object(vec![
                ("value", number(7.0)),
                ("median", number(median)),
                ("q1", number(q1)),
                ("q3", number(q3)),
            ])
        };
        let wide = Side {
            value: 7.0,
            spread: 0.2,
        };
        assert_eq!(side(&record(9.0, 10.0, 11.0)), Some(wide));
        assert_eq!(side(&record(3.0, 3.0, 3.0)), Some(exact(7.0)));
        assert_eq!(side(&object(vec![("value", number(7.0))])), None);
    }

    #[test]
    fn verdicts() {
        // Within the bound either way: ok.
        assert_eq!(
            judge(exact(10.0), exact(10.9), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(exact(10.0), exact(5.0), Better::Lower, 0.1),
            Verdict::Ok
        );
        // Worse by more than the bound: regressed.
        assert_eq!(
            judge(exact(10.0), exact(11.5), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(exact(10.0), exact(8.5), Better::Higher, 0.1),
            Verdict::Regressed
        );
        // An exact count must match to its bound.
        assert_eq!(
            judge(exact(4.89), exact(5.2), Better::Lower, 0.03),
            Verdict::Regressed
        );
        // Either side's windows spread wider than the bound: unresolved,
        // whatever the values say.
        let noisy = Side {
            value: 10.0,
            spread: 0.3,
        };
        assert_eq!(
            judge(noisy, exact(20.0), Better::Lower, 0.2),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(exact(10.0), noisy, Better::Lower, 0.2),
            Verdict::Unresolved
        );
    }
}
