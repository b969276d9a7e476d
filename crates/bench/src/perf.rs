//! Machine-readable perf baselines: `BENCH_<area>.json` emission,
//! loading and schema validation.
//!
//! Every record follows the committed schema
//! (`docs/bench_schema.json`): `{bench, metric, value, unit, seed,
//! git_rev}`. The files live at the repo root so each commit's numbers
//! are diffable; CI regenerates the deterministic areas and diffs them
//! byte for byte.
//!
//! Areas listed in [`MACHINE_DEPENDENT_AREAS`] carry wall-clock
//! timings of whatever host produced them; they are schema-validated
//! and diffable but not expected to regenerate. Only they may hold a
//! rate ([`check_rates`]): every other area is a deterministic model,
//! and a rate needs a clock.

use hetmem_telemetry::json::{parse, write_object, JsonValue};
use std::path::{Path, PathBuf};

/// One measured data point of a `BENCH_<area>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The benchmark that produced the point (e.g. `events`,
    /// `service_load`).
    pub bench: String,
    /// The metric name within the benchmark (e.g.
    /// `events_per_sec_8thread_waitfree`).
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// The unit; a rate unit needs a clock-measured area.
    pub unit: String,
    /// The workload seed (0 for unseeded/deterministic workloads).
    pub seed: u64,
    /// Short git revision of the producing tree.
    pub git_rev: String,
}

impl BenchRecord {
    /// Builds a record stamped with the current [`git_rev`].
    pub fn new(
        bench: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        seed: u64,
    ) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            metric: metric.into(),
            value,
            unit: unit.into(),
            seed,
            git_rev: git_rev(),
        }
    }

    fn write_json(&self, out: &mut String) {
        write_object(out, |o| {
            o.str("bench", &self.bench).str("metric", &self.metric).f64("value", self.value);
            o.str("unit", &self.unit).uint("seed", self.seed).str("git_rev", &self.git_rev);
        });
    }

    fn from_json(v: &JsonValue) -> Result<BenchRecord, String> {
        let field = |k: &str| v.field(k).map_err(|e| format!("{e}"));
        let string = |k: &str| {
            Ok::<_, String>(field(k)?.as_str().map_err(|e| format!("{k}: {e}"))?.to_owned())
        };
        let rec = BenchRecord {
            bench: string("bench")?,
            metric: string("metric")?,
            value: field("value")?.as_f64().map_err(|e| format!("value: {e}"))?,
            unit: string("unit")?,
            seed: field("seed")?.as_uint().map_err(|e| format!("seed: {e}"))?,
            git_rev: string("git_rev")?,
        };
        if rec.bench.is_empty() || rec.metric.is_empty() || rec.unit.is_empty() {
            return Err("bench, metric and unit must be non-empty".into());
        }
        if !rec.value.is_finite() {
            return Err(format!("value for {}/{} is not finite", rec.bench, rec.metric));
        }
        Ok(rec)
    }
}

/// The short git revision of the working tree: `HETMEM_GIT_REV` if
/// set, else `git rev-parse --short HEAD`, else `"unknown"`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("HETMEM_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where `BENCH_<area>.json` files are written: `HETMEM_BENCH_DIR` if
/// set, else the workspace root, else the current directory.
pub fn bench_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HETMEM_BENCH_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.join("Cargo.toml").exists() {
        return baked.canonicalize().unwrap_or(baked);
    }
    PathBuf::from(".")
}

/// Renders records as a JSON array, one compact object per line.
pub fn render(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        r.write_json(&mut out);
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes `BENCH_<area>.json` into [`bench_dir`] and returns the path.
pub fn emit(area: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let path = bench_dir().join(format!("BENCH_{area}.json"));
    std::fs::write(&path, render(records))?;
    Ok(path)
}

/// Parses a `BENCH_*.json` document.
pub fn load_str(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = parse(text).map_err(|e| format!("{e}"))?;
    doc.as_array().map_err(|e| format!("{e}"))?.iter().map(BenchRecord::from_json).collect()
}

/// Areas whose `BENCH_<area>.json` numbers are wall-clock timings of
/// the producing host (nanoseconds per alloc, events per second) and
/// therefore meaningless to regression-gate across machines. They are
/// still emitted, schema-checked and diffable in review.
pub const MACHINE_DEPENDENT_AREAS: &[&str] = &["alloc", "telemetry"];

/// The `<area>` of a `BENCH_<area>.json` path, if the file name has
/// that shape.
pub fn area_of(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    Some(name.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string())
}

/// Whether a baseline file carries machine-dependent timings (its
/// area is in [`MACHINE_DEPENDENT_AREAS`]).
pub fn is_machine_dependent(path: &Path) -> bool {
    area_of(path).is_some_and(|a| MACHINE_DEPENDENT_AREAS.contains(&a.as_str()))
}

/// Whether `unit` is a rate: `ops`, or any unit per second.
pub fn is_rate_unit(unit: &str) -> bool {
    unit == "ops" || unit.ends_with("/s")
}

/// Refuses a rate in a file outside [`MACHINE_DEPENDENT_AREAS`]: only
/// a clock can produce one, and only those areas are timed.
pub fn check_rates(path: &Path, records: &[BenchRecord]) -> Result<(), String> {
    if is_machine_dependent(path) {
        return Ok(());
    }
    match records.iter().find(|r| is_rate_unit(&r.unit)) {
        Some(r) => Err(format!(
            "{}/{} has rate unit {:?}, but this area is not clock-measured",
            r.bench, r.metric, r.unit
        )),
        None => Ok(()),
    }
}

fn bench_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("{e}"))?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    Ok(files)
}

/// Loads one `BENCH_*.json` file, or every `BENCH_*.json` directly
/// inside a directory.
pub fn load(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for file in bench_files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        records.extend(load_str(&text).map_err(|e| format!("{}: {e}", file.display()))?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, metric: &str, value: f64, unit: &str) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            metric: metric.into(),
            value,
            unit: unit.into(),
            seed: 7,
            git_rev: "deadbee".into(),
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            rec("events", "events_per_sec_8thread_waitfree", 1.25e8, "events/s"),
            rec("capacity", "plan_priority", 1234.5, "ns"),
        ];
        let back = load_str(&render(&records)).expect("parses");
        assert_eq!(back, records);
    }

    /// Every committed baseline re-renders byte for byte, so the writer
    /// keeps the files' format.
    #[test]
    fn committed_baselines_re_render_byte_for_byte() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = bench_files(&root).expect("workspace root");
        assert!(files.len() >= 8, "{files:?}");
        for file in files {
            let text = std::fs::read_to_string(&file).expect("baseline");
            let records = load_str(&text).expect("parses");
            assert_eq!(render(&records), text, "{}", file.display());
        }
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(load_str("{}").is_err(), "top level must be an array");
        assert!(
            load_str(r#"[{"bench":"b","metric":"m","value":1,"unit":"ns","seed":0}]"#).is_err(),
            "git_rev is required"
        );
        assert!(
            load_str(r#"[{"bench":"","metric":"m","value":1,"unit":"ns","seed":0,"git_rev":"x"}]"#)
                .is_err(),
            "bench must be non-empty"
        );
    }

    #[test]
    fn rates_are_refused_outside_clock_measured_areas() {
        let modelled = vec![rec("b", "admitted", 461.0, "count"), rec("b", "p50", 1.0, "ns")];
        assert!(check_rates(Path::new("BENCH_service.json"), &modelled).is_ok());
        for unit in ["ops", "ops/s", "events/s"] {
            let rate = vec![rec("b", "rate", 1.0, unit)];
            assert!(check_rates(Path::new("BENCH_chaos.json"), &rate).is_err(), "{unit}");
            assert!(check_rates(Path::new("BENCH_telemetry.json"), &rate).is_ok(), "{unit}");
        }
    }
}
