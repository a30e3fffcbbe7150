//! Versioned run manifests.
//!
//! Every experiment binary writes one [`RunManifest`] next to its output
//! (`BENCH_*.json`, `results/*.txt`): the parameters, seeds, git revision
//! and wall/cycle totals needed to reproduce the run and to interpret the
//! JSONL event stream recorded alongside it. The manifest is versioned
//! (`schema_version`) so later tooling can keep reading old runs.
//!
//! Summary rows (fault campaigns, landscape sweeps, server load passes,
//! …) are plain JSON objects filed under a named section. [`SECTIONS`]
//! declares each section's columns, and one checker holds every row read
//! or pushed to that declaration, so a new kind of row is one table
//! entry: no new type, no schema bump.

use crate::json::{Json, ParseError};
use std::io;
use std::path::Path;

/// Current manifest schema version, written into every manifest.
///
/// Version history:
/// * **1** — initial schema.
/// * **2** — optional `campaigns` section (fault-campaign summary rows).
/// * **3** — optional `landscape` section (exhaustive-sweep summary
///   rows: subspace width, shard/thread configuration, the full fitness
///   histogram and the max-set cardinality).
/// * **4** — `host_cores` (detected hardware parallelism) and
///   `plane_width` (bit-slice lanes per plane word) execution-shape
///   fields. Both default when absent, so v1–v3 manifests stay readable.
/// * **5** — optional `server` section (per-route latency/throughput
///   summary rows from `leonardo-server` load runs). Absent from the
///   JSON when empty, so v1–v4 manifests stay readable.
/// * **6** — optional `pareto` section (multi-objective campaign rows:
///   objective names, front size, per-objective bests). Absent from the
///   JSON when empty, so v1–v5 manifests stay readable.
/// * **7** — optional `problems` section (registry-problem GA campaign
///   rows: problem name, genome width, seed, budget spent and the best
///   genome reached). Absent from the JSON when empty, so v1–v6
///   manifests stay readable.
///
/// A section added to [`SECTIONS`] since needs no bump: readers skip the
/// sections they do not declare.
pub const MANIFEST_SCHEMA_VERSION: u64 = 7;

/// The kind of value one manifest row column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A string.
    Str,
    /// Any number.
    Num,
    /// A whole non-negative number, exact up to 2⁵³.
    Uint,
    /// `true` or `false`.
    Bool,
    /// An array whose every element is of the inner kind.
    List(&'static Kind),
    /// The inner kind, or absent from the row.
    Optional(&'static Kind),
}

impl Kind {
    fn admits(self, v: &Json) -> bool {
        match self {
            Kind::Str => v.as_str().is_some(),
            Kind::Num => v.as_f64().is_some(),
            Kind::Uint => v.as_u64().is_some(),
            Kind::Bool => v.as_bool().is_some(),
            Kind::List(item) => v
                .as_array()
                .is_some_and(|items| items.iter().all(|v| item.admits(v))),
            Kind::Optional(inner) => inner.admits(v),
        }
    }
}

/// Every row section a manifest can carry, in the order they are
/// written, with each section's columns in write order. A section is
/// absent from the JSON while it has no rows. `docs/TELEMETRY.md` says
/// what each column means.
pub const SECTIONS: &[(&str, &[(&str, Kind)])] = {
    use Kind::{Bool, List, Num, Optional, Str, Uint};
    &[
        // one fault-injection campaign (v2; leonardo-faults)
        (
            "campaigns",
            &[
                ("model", Str),
                ("engine", Str),
                ("rate", Num),
                ("lanes", Uint),
                ("recovered", Uint),
                ("corrupted", Uint),
                ("permanent_failures", Uint),
                ("mean_cost_delta", Optional(&Num)),
            ],
        ),
        // one exhaustive sweep of a genome subspace (v3; e15, e17)
        (
            "landscape",
            &[
                ("subspace_bits", Uint),
                ("shards", Uint),
                ("threads", Uint),
                ("genomes_swept", Uint),
                ("max_fitness", Uint),
                ("max_count", Uint),
                ("histogram", List(&Uint)),
            ],
        ),
        // one loadgen pass against leonardo-server (v5)
        (
            "server",
            &[
                ("route", Str),
                ("clients", Uint),
                ("requests", Uint),
                ("ok", Uint),
                ("errors", Uint),
                ("p50_micros", Num),
                ("p99_micros", Num),
                ("mean_micros", Num),
                ("rps", Num),
            ],
        ),
        // one multi-objective campaign or scoring pass (v6; e16)
        (
            "pareto",
            &[
                ("campaign", Str),
                ("seed", Uint),
                ("population", Uint),
                ("generations", Uint),
                ("evaluations", Uint),
                ("front_size", Uint),
                ("objectives", List(&Str)),
                ("best", List(&Num)),
            ],
        ),
        // one registry-problem GA campaign (v7; e17)
        (
            "problems",
            &[
                ("problem", Str),
                ("width", Uint),
                ("seed", Uint),
                ("generations", Uint),
                ("evaluations", Uint),
                ("best_fitness", Uint),
                ("best_genome", Str),
                ("converged", Bool),
            ],
        ),
    ]
};

/// Position of `section` in [`SECTIONS`].
fn section_index(section: &str) -> Option<usize> {
    SECTIONS.iter().position(|&(name, _)| name == section)
}

/// The one row checker, run on every row read and every row pushed:
/// `row` with its section's columns in declared order, or the
/// `section[i].column` path of the first declared column that is missing
/// or of the wrong kind, else of the first column the section does not
/// declare.
fn checked_row(
    (section, columns): (&str, &[(&str, Kind)]),
    i: usize,
    row: &Json,
) -> Result<Json, ManifestError> {
    let path = |column: &str| format!("{section}[{i}].{column}");
    let mut checked = Vec::with_capacity(columns.len());
    for &(column, kind) in columns {
        match row.get(column) {
            Some(v) if kind.admits(v) => checked.push((column.to_string(), v.clone())),
            Some(_) => return Err(ManifestError::BadField(path(column))),
            None if matches!(kind, Kind::Optional(_)) => {}
            None => return Err(ManifestError::Missing(path(column))),
        }
    }
    if let Json::Obj(members) = row {
        if let Some((extra, _)) = members
            .iter()
            .find(|(k, _)| columns.iter().all(|&(c, _)| c != k))
        {
            return Err(ManifestError::BadField(path(extra)));
        }
    }
    Ok(Json::Obj(checked))
}

/// A reproducibility record for one experiment run.
///
/// String-keyed `params` keep the schema open-ended: each binary records
/// whatever knobs it actually used (population size, mutation flips,
/// upset rate, …) without this crate having to know about them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`] when written
    /// by this crate).
    pub schema_version: u64,
    /// Experiment identifier, e.g. `"e1_convergence"`.
    pub experiment: String,
    /// `git rev-parse HEAD` of the tree that produced the run, with
    /// `-dirty` appended when tracked files had changes, or `"unknown"`
    /// outside a git checkout (see [`git_revision`]).
    pub git_revision: String,
    /// Run creation time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Experiment parameters, name → numeric value.
    pub params: Vec<(String, f64)>,
    /// The RNG seeds the run consumed, in trial order.
    pub seeds: Vec<u64>,
    /// Worker threads used (1 for serial runs).
    pub threads: u64,
    /// CPU cores the host reported at run time (schema v4; defaults to 1
    /// when reading older manifests). Together with `threads` this tells
    /// a reader whether a run was core-bound or under-subscribed.
    pub host_cores: u64,
    /// Bit-slice lanes per plane word the run's kernels used — 64 for
    /// the classic `u64` engine, 128/256/512 for the wide planes
    /// (schema v4; defaults to 64 when reading older manifests).
    pub plane_width: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Total simulated RTL cycles, when the run drove an RTL engine.
    pub simulated_cycles: Option<u64>,
    /// Relative path of the JSONL event stream recorded with this run,
    /// when one was recorded.
    pub events_file: Option<String>,
    /// Summary rows, one list per entry of [`SECTIONS`]; read them with
    /// [`RunManifest::rows`] and add them with [`RunManifest::push_row`].
    rows: [Vec<Json>; SECTIONS.len()],
}

impl RunManifest {
    /// A manifest skeleton for `experiment` with the current schema
    /// version and git revision; the caller fills in params, seeds and
    /// totals before writing.
    pub fn new(experiment: impl Into<String>) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: experiment.into(),
            git_revision: git_revision(),
            created_unix: unix_now(),
            params: Vec::new(),
            seeds: Vec::new(),
            threads: 1,
            host_cores: host_cores(),
            plane_width: 64,
            wall_seconds: 0.0,
            simulated_cycles: None,
            events_file: None,
            rows: Default::default(),
        }
    }

    /// Record one named parameter (builder-style).
    pub fn with_param(mut self, name: impl Into<String>, value: f64) -> RunManifest {
        self.params.push((name.into(), value));
        self
    }

    /// Look up a recorded parameter by name.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The rows of `section`, in the order they were pushed or read.
    ///
    /// # Panics
    /// Panics if [`SECTIONS`] does not declare `section`.
    pub fn rows(&self, section: &str) -> &[Json] {
        let s = section_index(section)
            .unwrap_or_else(|| panic!("no manifest section `{section}` is declared"));
        &self.rows[s]
    }

    /// Append `row` to `section`, its columns put in declared order.
    /// Rows render grouped by section in [`SECTIONS`] order, whatever
    /// order they were pushed in.
    ///
    /// # Panics
    /// Panics, naming the row's `section[i]` or `section[i].column`
    /// path, if `section` is not declared or `row` misses a column, holds
    /// one of the wrong kind or carries one the section does not declare
    /// — a row the reader would reject.
    pub fn push_row(&mut self, section: &str, row: Json) {
        let Some(s) = section_index(section) else {
            panic!("cannot push {section}[0]: no manifest section `{section}` is declared");
        };
        let i = self.rows[s].len();
        match checked_row(SECTIONS[s], i, &row) {
            Ok(row) => self.rows[s].push(row),
            Err(e) => panic!("cannot push {section}[{i}]: {e}"),
        }
    }

    /// Render as a JSON tree.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "schema_version".to_string(),
                Json::Num(self.schema_version as f64),
            ),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            (
                "git_revision".to_string(),
                Json::Str(self.git_revision.clone()),
            ),
            (
                "created_unix".to_string(),
                Json::Num(self.created_unix as f64),
            ),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "seeds".to_string(),
                Json::Arr(self.seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            ("host_cores".to_string(), Json::Num(self.host_cores as f64)),
            (
                "plane_width".to_string(),
                Json::Num(self.plane_width as f64),
            ),
            ("wall_seconds".to_string(), Json::Num(self.wall_seconds)),
        ];
        if let Some(cycles) = self.simulated_cycles {
            obj.push(("simulated_cycles".to_string(), Json::Num(cycles as f64)));
        }
        if let Some(file) = &self.events_file {
            obj.push(("events_file".to_string(), Json::Str(file.clone())));
        }
        for (&(section, _), rows) in SECTIONS.iter().zip(&self.rows) {
            if !rows.is_empty() {
                obj.push((section.to_string(), Json::Arr(rows.clone())));
            }
        }
        Json::Obj(obj)
    }

    /// Parse a manifest back from JSON text (the inverse of
    /// [`RunManifest::to_json`] + `to_string`).
    pub fn from_json_str(text: &str) -> Result<RunManifest, ManifestError> {
        let root = Json::parse(text)?;
        let field = |name: &str| {
            root.get(name)
                .ok_or_else(|| ManifestError::Missing(name.to_string()))
        };
        let num = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| ManifestError::BadField(name.to_string()))
        };
        let uint = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| ManifestError::BadField(name.to_string()))
        };
        let string = |name: &str| {
            Ok::<String, ManifestError>(
                field(name)?
                    .as_str()
                    .ok_or_else(|| ManifestError::BadField(name.to_string()))?
                    .to_string(),
            )
        };
        let schema_version = uint("schema_version")?;
        if schema_version > MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::Version(schema_version));
        }
        let params = match field("params")? {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| ManifestError::BadField(format!("params.{k}")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(ManifestError::BadField("params".to_string())),
        };
        let seeds = field("seeds")?
            .as_array()
            .ok_or_else(|| ManifestError::BadField("seeds".to_string()))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| ManifestError::BadField("seeds".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // v4 execution-shape fields; older manifests get the values every
        // pre-v4 run actually had (one plane word = 64 lanes, cores unknown)
        let host_cores = match root.get("host_cores") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ManifestError::BadField("host_cores".to_string()))?,
        };
        let plane_width = match root.get("plane_width") {
            None => 64,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ManifestError::BadField("plane_width".to_string()))?,
        };
        let simulated_cycles = match root.get("simulated_cycles") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| ManifestError::BadField("simulated_cycles".to_string()))?,
            ),
        };
        let events_file = match root.get("events_file") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ManifestError::BadField("events_file".to_string()))?
                    .to_string(),
            ),
        };
        let mut rows: [Vec<Json>; SECTIONS.len()] = Default::default();
        for (&(section, columns), rows) in SECTIONS.iter().zip(&mut rows) {
            if let Some(v) = root.get(section) {
                *rows = v
                    .as_array()
                    .ok_or_else(|| ManifestError::BadField(section.to_string()))?
                    .iter()
                    .enumerate()
                    .map(|(i, row)| checked_row((section, columns), i, row))
                    .collect::<Result<_, _>>()?;
            }
        }
        Ok(RunManifest {
            schema_version,
            experiment: string("experiment")?,
            git_revision: string("git_revision")?,
            created_unix: uint("created_unix")?,
            params,
            seeds,
            threads: uint("threads")?,
            host_cores,
            plane_width,
            wall_seconds: num("wall_seconds")?,
            simulated_cycles,
            events_file,
            rows,
        })
    }

    /// Write the manifest as pretty-enough JSON to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Read a manifest previously written with [`RunManifest::write`].
    pub fn read(path: impl AsRef<Path>) -> Result<RunManifest, ManifestError> {
        let text = std::fs::read_to_string(path).map_err(ManifestError::Io)?;
        RunManifest::from_json_str(&text)
    }
}

/// Failure to read or interpret a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// The file could not be read.
    Io(io::Error),
    /// The file is not valid JSON.
    Parse(ParseError),
    /// A required field is absent.
    Missing(String),
    /// A field has the wrong type or an unrepresentable value, or a row
    /// carries a column its section does not declare.
    BadField(String),
    /// The manifest was written by a newer schema than this crate knows.
    Version(u64),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest I/O error: {e}"),
            ManifestError::Parse(e) => write!(f, "manifest is not valid JSON: {e}"),
            ManifestError::Missing(k) => write!(f, "manifest field `{k}` is missing"),
            ManifestError::BadField(k) => {
                write!(
                    f,
                    "manifest field `{k}` has the wrong type or is not declared"
                )
            }
            ManifestError::Version(v) => {
                write!(
                    f,
                    "manifest schema version {v} is newer than supported {MANIFEST_SCHEMA_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<ParseError> for ManifestError {
    fn from(e: ParseError) -> ManifestError {
        ManifestError::Parse(e)
    }
}

/// `git rev-parse HEAD` of the working directory, marked `-dirty` when
/// `git status --porcelain --untracked-files=no` lists changes (see
/// [`revision_label`]), or `"unknown"` when git or the repository is
/// unavailable (e.g. a source tarball build).
pub fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) if !head.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|changes| !changes.is_empty());
            revision_label(&head, dirty)
        }
        _ => "unknown".to_string(),
    }
}

/// The recorded revision of a checkout at commit `head`: the commit
/// itself, or `<head>-dirty` when tracked files differ from it.
pub fn revision_label(head: &str, dirty: bool) -> String {
    if dirty {
        format!("{head}-dirty")
    } else {
        head.to_string()
    }
}

/// CPU cores the host reports, or 1 when detection fails (containers
/// without cpuset information, exotic platforms).
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("e1_convergence")
            .with_param("population", 32.0)
            .with_param("mutation_flips", 15.0);
        m.seeds = vec![0x1000, 0x1007, 0x100E];
        m.threads = 8;
        m.host_cores = 16;
        m.plane_width = 256;
        m.wall_seconds = 1.25;
        m.simulated_cycles = Some(123_456_789);
        m.events_file = Some("e1_convergence.events.jsonl".to_string());
        m
    }

    fn row(text: &str) -> Json {
        Json::parse(text).expect("test rows are valid JSON")
    }

    const LANDSCAPE_ROW: &str = r#"{"subspace_bits":36,"shards":256,"threads":8,
        "genomes_swept":68719476736,"max_fitness":26,"max_count":86436,
        "histogram":[0,1000,2000,3000,4000,5000,6000,7000,8000,9000,10000,11000,
        12000,13000,14000,15000,16000,17000,18000,19000,20000,21000,22000,23000,
        24000,25000,26000]}"#;

    const PROBLEM_ROW: &str = r#"{"problem":"fsm_traces","width":24,"seed":4096,
        "generations":13,"evaluations":448,"best_fitness":64,"best_genome":"0x00c0de",
        "converged":true}"#;

    #[test]
    fn round_trips_through_json_text() {
        let m = sample();
        let text = m.to_json().to_string();
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let mut m = sample();
        m.simulated_cycles = None;
        m.events_file = None;
        let back = RunManifest::from_json_str(&m.to_json().to_string()).unwrap();
        assert_eq!(back.simulated_cycles, None);
        assert_eq!(back.events_file, None);
        for &(section, _) in SECTIONS {
            assert!(
                back.rows(section).is_empty(),
                "absent {section} parse as none"
            );
        }
    }

    #[test]
    fn server_rows_round_trip() {
        let mut m = sample();
        m.push_row(
            "server",
            row(
                r#"{"route":"POST /evolve","clients":4,"requests":64,"ok":64,"errors":0,
                "p50_micros":812.5,"p99_micros":2190,"mean_micros":901.25,"rps":1034.7}"#,
            ),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"server\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.rows("server")[0].get("clients"), Some(&Json::Num(4.0)));
    }

    #[test]
    fn v4_manifests_without_server_rows_still_parse() {
        let v4 = r#"{"schema_version":4,"experiment":"perf_report","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":1,
            "plane_width":512,"wall_seconds":0.25}"#;
        let back = RunManifest::from_json_str(v4).expect("v4 manifests stay readable");
        assert_eq!(back.schema_version, 4);
        assert!(back.rows("server").is_empty());
        let bad = r#"{"schema_version":5,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "server":[{"route":"GET /healthz"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "server[0].clients"
        ));
    }

    #[test]
    fn landscape_rows_round_trip() {
        let mut m = sample();
        m.push_row("landscape", row(LANDSCAPE_ROW));
        let text = m.to_json().to_string();
        assert!(text.contains("\"landscape\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let landscape = &back.rows("landscape")[0];
        assert_eq!(
            landscape.get("genomes_swept").and_then(Json::as_u64),
            Some(68_719_476_736)
        );
        let histogram = landscape.get("histogram").and_then(Json::as_array);
        assert_eq!(histogram.map(<[Json]>::len), Some(27));
    }

    #[test]
    fn v2_manifests_without_landscape_still_parse() {
        let v2 = r#"{"schema_version":2,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5,
            "campaigns":[{"model":"population_flip","engine":"rtl_x64","rate":5,
            "lanes":64,"recovered":63,"corrupted":0,"permanent_failures":1}]}"#;
        let back = RunManifest::from_json_str(v2).expect("v2 manifests stay readable");
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.rows("campaigns").len(), 1);
        assert!(back.rows("landscape").is_empty());
        // the checker reports the first missing column in declared order
        let bad = r#"{"schema_version":3,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "landscape":[{"subspace_bits":24}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "landscape[0].shards"
        ));
    }

    #[test]
    fn v3_manifests_default_execution_shape_fields() {
        let v3 = r#"{"schema_version":3,"experiment":"e9_sweep","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"wall_seconds":0.25}"#;
        let back = RunManifest::from_json_str(v3).expect("v3 manifests stay readable");
        assert_eq!(back.schema_version, 3);
        assert_eq!(back.host_cores, 1, "pre-v4 runs did not record cores");
        assert_eq!(back.plane_width, 64, "pre-v4 runs were 64-lane only");
        assert_eq!(back.threads, 4);
        let bad = r#"{"schema_version":4,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,
            "host_cores":"many","plane_width":64,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::BadField(field)) if field == "host_cores"
        ));
    }

    #[test]
    fn new_manifest_detects_host_shape() {
        let m = RunManifest::new("probe");
        assert!(m.host_cores >= 1);
        assert_eq!(m.plane_width, 64, "64 lanes unless a run says otherwise");
        assert_eq!(m.schema_version, 7);
    }

    #[test]
    fn pareto_rows_round_trip() {
        let mut m = sample();
        m.push_row(
            "pareto",
            row(
                r#"{"campaign":"nsga2_walk","seed":4096,"population":32,"generations":120,
                "evaluations":3872,"front_size":9,
                "objectives":["distance_mm","min_margin_mm","neg_energy_j"],
                "best":[612.5,14.25,-18.75]}"#,
            ),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"pareto\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let list_len = |name| {
            back.rows("pareto")[0]
                .get(name)
                .and_then(Json::as_array)
                .map(<[Json]>::len)
        };
        assert_eq!(list_len("objectives"), list_len("best"));
    }

    #[test]
    fn v5_manifests_without_pareto_rows_still_parse() {
        let v5 = r#"{"schema_version":5,"experiment":"bench_pr8","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":8,
            "plane_width":64,"wall_seconds":0.25,
            "server":[{"route":"ALL","clients":4,"requests":64,"ok":64,"errors":0,
            "p50_micros":1,"p99_micros":2,"mean_micros":1.5,"rps":100}]}"#;
        let back = RunManifest::from_json_str(v5).expect("v5 manifests stay readable");
        assert_eq!(back.schema_version, 5);
        assert!(back.rows("pareto").is_empty());
        assert_eq!(back.rows("server").len(), 1);
        let bad = r#"{"schema_version":6,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "pareto":[{"campaign":"nsga2_walk","objectives":[],"best":[]}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "pareto[0].seed"
        ));
    }

    #[test]
    fn problem_rows_round_trip() {
        let mut m = sample();
        m.push_row("problems", row(PROBLEM_ROW));
        m.push_row(
            "problems",
            row(
                r#"{"problem":"serial_adder","width":16,"seed":4103,"generations":4000,
                "evaluations":128032,"best_fitness":47,"best_genome":"0xbeef",
                "converged":false}"#,
            ),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"problems\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        let converged = |i: usize| back.rows("problems")[i].get("converged").cloned();
        assert_eq!(converged(0), Some(Json::Bool(true)));
        assert_eq!(converged(1), Some(Json::Bool(false)));
    }

    #[test]
    fn v6_manifests_without_problem_rows_still_parse() {
        let v6 = r#"{"schema_version":6,"experiment":"e16_pareto","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[7],"threads":4,"host_cores":8,
            "plane_width":64,"wall_seconds":0.25,
            "pareto":[{"campaign":"nsga2_walk","seed":7,"population":32,
            "generations":10,"evaluations":352,"front_size":3,
            "objectives":["distance_mm"],"best":[612.5]}]}"#;
        let back = RunManifest::from_json_str(v6).expect("v6 manifests stay readable");
        assert_eq!(back.schema_version, 6);
        assert!(back.rows("problems").is_empty());
        assert_eq!(back.rows("pareto").len(), 1);
        let bad = r#"{"schema_version":7,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "problems":[{"problem":"gait","width":36,"converged":true}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "problems[0].seed"
        ));
        let wrong = r#"{"schema_version":7,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "problems":[{"problem":"gait","width":36,"seed":1,"generations":1,
            "evaluations":1,"best_fitness":1,"best_genome":"0x0","converged":"yes"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(wrong),
            Err(ManifestError::BadField(field)) if field == "problems[0].converged"
        ));
    }

    #[test]
    fn campaign_rows_round_trip() {
        let mut m = sample();
        m.push_row(
            "campaigns",
            row(
                r#"{"model":"population_flip","engine":"rtl_x64","rate":5,"lanes":64,
                "recovered":63,"corrupted":0,"permanent_failures":1,"mean_cost_delta":812.5}"#,
            ),
        );
        m.push_row(
            "campaigns",
            row(
                r#"{"model":"genome_reg_flip","engine":"rtl_scalar","rate":1,"lanes":8,
                "recovered":6,"corrupted":2,"permanent_failures":0}"#,
            ),
        );
        let text = m.to_json().to_string();
        assert!(text.contains("\"campaigns\""));
        let back = RunManifest::from_json_str(&text).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.rows("campaigns")[1].get("mean_cost_delta"), None);
    }

    #[test]
    fn v1_manifests_without_campaigns_still_parse() {
        let v1 = r#"{"schema_version":1,"experiment":"e13_seu","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[4096],"threads":1,"wall_seconds":0.5}"#;
        let back = RunManifest::from_json_str(v1).expect("v1 manifests stay readable");
        assert_eq!(back.schema_version, 1);
        assert!(back.rows("campaigns").is_empty());
        let bad = r#"{"schema_version":2,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0,
            "campaigns":[{"model":"population_flip"}]}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::Missing(field)) if field == "campaigns[0].engine"
        ));
    }

    #[test]
    fn push_row_rejects_what_the_reader_rejects_and_keeps_declared_order() {
        let push_panic = |section: &str, row: Json| {
            let mut m = sample();
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.push_row(section, row)))
                    .expect_err("push_row must refuse the row");
            payload.downcast::<String>().map(|s| *s).unwrap_or_default()
        };
        let cases = [
            // a missing column
            (
                "landscape",
                LANDSCAPE_ROW.replace(r#""shards":256,"#, ""),
                "landscape[0].shards",
            ),
            // a column of the wrong kind
            (
                "landscape",
                LANDSCAPE_ROW.replace("[0,", r#"["0","#),
                "landscape[0].histogram",
            ),
            // a column the section does not declare
            (
                "landscape",
                LANDSCAPE_ROW.replace('{', r#"{"wall":1,"#),
                "landscape[0].wall",
            ),
            // a section SECTIONS does not declare
            ("landscapes", LANDSCAPE_ROW.to_string(), "landscapes[0]"),
        ];
        for (section, text, path) in cases {
            let message = push_panic(section, row(&text));
            assert!(message.contains(path), "`{message}` does not name {path}");
        }

        // rows file under their section, and columns under their
        // declaration, whatever order they were pushed in
        let mut m = sample();
        m.push_row("problems", row(PROBLEM_ROW));
        m.push_row("landscape", row(LANDSCAPE_ROW));
        m.push_row(
            "problems",
            row(&PROBLEM_ROW
                .replace(r#""problem":"fsm_traces","#, "")
                .replace(
                    r#""converged":true"#,
                    r#""converged":true,"problem":"gait""#,
                )),
        );
        let text = m.to_json().to_string();
        let at = |key: &str| text.find(key).unwrap_or_else(|| panic!("{key} rendered"));
        assert!(at("\"landscape\"") < at("\"problems\""));
        assert!(at("\"problem\":\"gait\",\"width\"") > at("\"problem\":\"fsm_traces\""));
        assert_eq!(RunManifest::from_json_str(&text).expect("parse back"), m);
    }

    #[test]
    fn param_lookup() {
        let m = sample();
        assert_eq!(m.param("population"), Some(32.0));
        assert_eq!(m.param("missing"), None);
    }

    #[test]
    fn rejects_future_schema_and_bad_fields() {
        let future = r#"{"schema_version":99,"experiment":"x","git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(future),
            Err(ManifestError::Version(99))
        ));
        assert!(matches!(
            RunManifest::from_json_str("{}"),
            Err(ManifestError::Missing(_))
        ));
        let bad = r#"{"schema_version":1,"experiment":7,"git_revision":"g",
            "created_unix":0,"params":{},"seeds":[],"threads":1,"wall_seconds":0}"#;
        assert!(matches!(
            RunManifest::from_json_str(bad),
            Err(ManifestError::BadField(_))
        ));
        assert!(matches!(
            RunManifest::from_json_str("not json"),
            Err(ManifestError::Parse(_))
        ));
    }

    #[test]
    fn write_and_read_files() {
        let dir = std::env::temp_dir().join("leonardo-telemetry-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.write(&path).unwrap();
        let back = RunManifest::read(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }

    #[test]
    fn a_dirty_tree_is_marked_in_the_revision() {
        assert_eq!(revision_label("c7d6091", false), "c7d6091");
        assert_eq!(revision_label("c7d6091", true), "c7d6091-dirty");
    }
}
