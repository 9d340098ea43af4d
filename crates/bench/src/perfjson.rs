//! Shared machinery for the wall-clock perf harnesses (`perf` and
//! `fleet --bench`): a minimal JSON reader (the repo's [`JsonValue`]
//! only prints), wall-time measurement with cross-run determinism
//! enforcement, and schema validation for the committed trajectory
//! files (`BENCH_perf.json`, `BENCH_fleet.json`).

use simnet::{JsonValue, Snapshot};

/// Virtual-time outcome of one scenario execution. Must be identical
/// across repeated runs — the simulation is deterministic, only the wall
/// clock may vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measure {
    /// Scheduler events processed.
    pub events: u64,
    /// Completed client-side RPC calls.
    pub rpc_roundtrips: u64,
    /// Link-layer payload bytes moved.
    pub sim_bytes: u64,
    /// Final virtual clock.
    pub virtual_secs: f64,
    /// Processes spawned.
    pub procs: u64,
}

/// Completed client-side calls: one per RPC round trip. Server-side
/// `served.calls` would double-count multi-hop proxy chains.
pub fn rpc_roundtrips(snap: &Snapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.layer == "rpc" && c.name.starts_with("client.") && c.name.ends_with(".calls"))
        .map(|c| c.value)
        .sum()
}

/// Link-layer payload bytes in `snap`.
pub fn sim_bytes(snap: &Snapshot) -> u64 {
    snap.counter_sum("link", ".bytes")
}

/// Run `f` once, returning its result and the wall seconds it took.
pub fn wall_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // lint:allow(determinism): wall-clock measurement is this harness's entire purpose
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Context switches this process has accumulated, summed over all live
/// threads from `/proc/self/task/*/status` (voluntary, nonvoluntary).
/// `/proc/self/status` alone only covers the main thread, which mostly
/// parks while simulation worker threads hand the baton around — the
/// per-task sum is what tracks scheduler pressure. Diagnostics only;
/// zero where unsupported, and an undercount if threads exited between
/// scenarios (the simulations here keep their worker pools alive until
/// the run ends, so deltas taken around a run are accurate).
pub fn ctx_switches() -> (u64, u64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let (mut vol, mut nonvol) = (0u64, 0u64);
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // thread exited mid-scan
        };
        vol += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
        nonvol += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    }
    (vol, nonvol)
}

/// The number after `key` in the text of a `/proc/<pid>/status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process so far, in MiB (`VmHWM` of
/// `/proc/self/status`). Monotone within one process: a scenario
/// measured after a heavier one reports the heavier one's peak, so
/// compare like with like (same scenario order, or one scenario per
/// process). `None` where unsupported.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(status_field(&status, "VmHWM:")? as f64 / 1024.0)
}

/// Measure one scenario `runs` times; enforce virtual-time determinism
/// across repeats (exit 3 on divergence); return its JSON entry.
pub fn measure(name: &str, runs: usize, f: impl Fn() -> Measure) -> JsonValue {
    eprintln!("perf: running {name} ({runs} repeats)...");
    let mut walls = Vec::with_capacity(runs);
    let mut first: Option<Measure> = None;
    for i in 0..runs {
        let (vol0, nonvol0) = ctx_switches();
        let (m, wall) = wall_time(&f);
        let (vol1, nonvol1) = ctx_switches();
        eprintln!(
            "perf:   run {}/{}: {:.3}s wall, {} events, {} rpc, {} sim bytes, {} procs, ctxsw +{}v/+{}nv",
            i + 1,
            runs,
            wall,
            m.events,
            m.rpc_roundtrips,
            m.sim_bytes,
            m.procs,
            vol1.saturating_sub(vol0),
            nonvol1.saturating_sub(nonvol0)
        );
        match &first {
            None => first = Some(m),
            Some(prev) if *prev != m => {
                eprintln!(
                    "perf: DETERMINISM ERROR in {name}: run {} produced {m:?}, run 1 produced {prev:?}",
                    i + 1
                );
                std::process::exit(3);
            }
            Some(_) => {}
        }
        walls.push(wall);
    }
    let m = first.expect("runs >= 1");
    let med = median(&mut walls);
    let mut entry = JsonValue::object([
        ("name", JsonValue::Str(name.to_string())),
        ("wall_secs_median", JsonValue::Float(med)),
        (
            "wall_secs_all",
            JsonValue::Array(walls.iter().map(|w| JsonValue::Float(*w)).collect()),
        ),
        ("virtual_secs", JsonValue::Float(m.virtual_secs)),
        ("events_processed", JsonValue::Uint(m.events)),
        ("rpc_roundtrips", JsonValue::Uint(m.rpc_roundtrips)),
        ("sim_bytes", JsonValue::Uint(m.sim_bytes)),
        ("events_per_sec", JsonValue::Float(m.events as f64 / med)),
        (
            "rpc_roundtrips_per_sec",
            JsonValue::Float(m.rpc_roundtrips as f64 / med),
        ),
        (
            "sim_bytes_per_sec",
            JsonValue::Float(m.sim_bytes as f64 / med),
        ),
    ]);
    if let Some(mb) = vm_hwm_mb() {
        entry.push_field(OPTIONAL_VM_HWM_MB, JsonValue::Float(mb));
    }
    entry
}

/// Field lookup in a [`JsonValue::Object`].
pub fn get<'v>(obj: &'v JsonValue, key: &str) -> Option<&'v JsonValue> {
    match obj {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Numeric view of a [`JsonValue`], if it is one.
pub fn as_number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Uint(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Schema validation

/// Trajectory schema id for the engine perf harness (`perf`).
pub const PERF_SCHEMA: &str = "gvfs.perf.v1";
/// Scenario set every `gvfs.perf.v1` entry must carry.
pub const PERF_SCENARIOS: [&str; 4] = ["fig4_flush", "fig6_clone", "table1_seq", "simnet_churn"];
/// Trajectory schema id for the fleet harness (`fleet --bench`).
pub const FLEET_SCHEMA: &str = "gvfs.fleet-perf.v1";
/// Scenario set every `gvfs.fleet-perf.v1` entry must carry:
/// a 1000-process engine churn and a smoke-sized fleet run.
pub const FLEET_SCENARIOS: [&str; 2] = ["churn_1000", "fleet_smoke"];

/// Numeric fields every scenario entry must carry, in either schema.
pub const SCENARIO_NUMBER_FIELDS: [&str; 8] = [
    "wall_secs_median",
    "virtual_secs",
    "events_processed",
    "rpc_roundtrips",
    "sim_bytes",
    "events_per_sec",
    "rpc_roundtrips_per_sec",
    "sim_bytes_per_sec",
];

/// Optional numeric scenario field: the process's `VmHWM` in MiB when
/// the scenario finished ([`vm_hwm_mb`]; monotone within one process).
/// Entries recorded before PR 18 do not carry it.
const OPTIONAL_VM_HWM_MB: &str = "vm_hwm_mb";

/// Required scenario names for a schema id, if it is one we know.
fn scenarios_for(schema: &str) -> Option<&'static [&'static str]> {
    match schema {
        PERF_SCHEMA => Some(&PERF_SCENARIOS),
        FLEET_SCHEMA => Some(&FLEET_SCENARIOS),
        _ => None,
    }
}

/// Validate a perf-trajectory document (either schema, dispatched on its
/// `schema` field); returns every problem found.
pub fn validate(doc: &JsonValue) -> Vec<String> {
    let mut errs = Vec::new();
    let required: &[&str] = match get(doc, "schema") {
        Some(JsonValue::Str(s)) => match scenarios_for(s) {
            Some(names) => names,
            None => {
                errs.push(format!(
                    "unknown schema \"{s}\" (expected \"{PERF_SCHEMA}\" or \"{FLEET_SCHEMA}\")"
                ));
                return errs;
            }
        },
        other => {
            errs.push(format!("schema field must be a string, got {other:?}"));
            return errs;
        }
    };
    let Some(JsonValue::Array(entries)) = get(doc, "trajectory") else {
        errs.push("trajectory must be an array".to_string());
        return errs;
    };
    if entries.is_empty() {
        errs.push("trajectory must not be empty".to_string());
    }
    let mut labels: Vec<&str> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        match get(entry, "label") {
            Some(JsonValue::Str(l)) => {
                if let Some(e) = label_error(l, &labels) {
                    errs.push(format!("entry #{i}: {e}"));
                }
                labels.push(l);
            }
            _ => errs.push(format!("entry #{i}: missing string label")),
        }
        if !matches!(get(entry, "mode"), Some(JsonValue::Str(_))) {
            errs.push(format!("entry #{i}: missing string mode"));
        }
        if !matches!(get(entry, "runs"), Some(JsonValue::Uint(_))) {
            errs.push(format!("entry #{i}: missing uint runs"));
        }
        let Some(JsonValue::Array(scenarios)) = get(entry, "scenarios") else {
            errs.push(format!("entry #{i}: scenarios must be an array"));
            continue;
        };
        let mut seen = Vec::new();
        for s in scenarios {
            let name = match get(s, "name") {
                Some(JsonValue::Str(n)) => n.clone(),
                _ => {
                    errs.push(format!("entry #{i}: scenario missing name"));
                    continue;
                }
            };
            for field in SCENARIO_NUMBER_FIELDS {
                if get(s, field).and_then(as_number).is_none() {
                    errs.push(format!(
                        "entry #{i} scenario {name}: missing number {field}"
                    ));
                }
            }
            if get(s, OPTIONAL_VM_HWM_MB).is_some_and(|v| as_number(v).is_none()) {
                errs.push(format!(
                    "entry #{i} scenario {name}: {OPTIONAL_VM_HWM_MB} must be a number"
                ));
            }
            seen.push(name);
        }
        for want in required {
            if !seen.iter().any(|n| n == want) {
                errs.push(format!("entry #{i}: scenario {want} missing"));
            }
        }
    }
    errs
}

/// Trajectory hygiene: entries are per-PR snapshots, so a placeholder
/// label ("dev", empty) or one already in `taken` makes the trajectory
/// unreadable as history.
fn label_error(label: &str, taken: &[&str]) -> Option<String> {
    if label.is_empty() || label == "dev" {
        Some(format!(
            "unlabeled (\"{label}\") — use a per-PR label like \"pr8-batched\""
        ))
    } else if taken.contains(&label) {
        Some(format!("duplicate label \"{label}\""))
    } else {
        None
    }
}

/// Check that `label` may name a new entry of the trajectory at `path`
/// under the rule [`validate`] applies, so a harness can refuse before it
/// spends minutes measuring an entry [`append_trajectory`] would reject.
pub fn check_label(path: &str, label: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| JsonReader::parse(&text).ok());
    let taken: Vec<&str> = match doc.as_ref().and_then(|d| get(d, "trajectory")) {
        Some(JsonValue::Array(entries)) => entries
            .iter()
            .filter_map(|e| match get(e, "label") {
                Some(JsonValue::Str(l)) => Some(l.as_str()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    label_error(label, &taken).map_or(Ok(()), |e| Err(format!("{path}: {e}")))
}

/// `events_per_sec` of a named scenario in a trajectory entry.
pub fn events_per_sec_of(entry: &JsonValue, scenario: &str) -> Option<f64> {
    let JsonValue::Array(scenarios) = get(entry, "scenarios")? else {
        return None;
    };
    scenarios
        .iter()
        .find(|s| matches!(get(s, "name"), Some(JsonValue::Str(n)) if n == scenario))
        .and_then(|s| get(s, "events_per_sec"))
        .and_then(as_number)
}

/// Append `entry` to the trajectory file at `path` (creating it under
/// `schema` when absent), validating the result before writing. Exits
/// the process on any error — this is harness plumbing, not a library
/// for recovery.
pub fn append_trajectory(path: &str, schema: &str, entry: JsonValue) {
    let mut trajectory = match std::fs::read_to_string(path) {
        Ok(text) => match JsonReader::parse(&text) {
            Ok(doc) => match get(&doc, "trajectory") {
                Some(JsonValue::Array(entries)) => entries.clone(),
                _ => {
                    eprintln!("perf: {path} has no trajectory array; refusing to overwrite");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("perf: {path} is not valid JSON ({e}); refusing to overwrite");
                std::process::exit(1);
            }
        },
        Err(_) => Vec::new(),
    };
    trajectory.push(entry);
    let doc = JsonValue::object([
        ("schema", JsonValue::Str(schema.to_string())),
        ("trajectory", JsonValue::Array(trajectory)),
    ]);
    let errs = validate(&doc);
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("perf: generated document failed validation: {e}");
        }
        std::process::exit(1);
    }
    std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
        eprintln!("perf: cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("perf: appended entry to {path}");
}

// ---------------------------------------------------------------------------
// Minimal JSON reader. Only needs to read files these harnesses wrote:
// objects, arrays, strings, numbers.

/// Recursive-descent reader producing [`JsonValue`] trees.
pub struct JsonReader<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    /// Parse `text` as one JSON document.
    pub fn parse(text: &'a str) -> Result<JsonValue, String> {
        let mut r = JsonReader {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = r.value()?;
        r.skip_ws();
        if r.pos != r.s.len() {
            return Err(format!("trailing bytes at offset {}", r.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.s.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let start = self.pos - 1;
                    while self.pos < self.s.len() && self.s[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.pos])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(
                self.s[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).map_err(|_| "bad number")?;
        if text.is_empty() {
            return Err(format!("expected a value at offset {start}"));
        }
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_roundtrips_own_output() {
        let doc = JsonValue::object([
            ("schema", JsonValue::Str(FLEET_SCHEMA.to_string())),
            ("n", JsonValue::Uint(42)),
            ("x", JsonValue::Float(1.5)),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        let text = format!("{doc}");
        let back = JsonReader::parse(&text).unwrap();
        assert_eq!(format!("{back}"), text);
    }

    #[test]
    fn validate_accepts_both_schemas_and_rejects_unknown() {
        let entry = |names: &[&str]| {
            JsonValue::object([
                ("label", JsonValue::Str("t".into())),
                ("mode", JsonValue::Str("smoke".into())),
                ("runs", JsonValue::Uint(1)),
                (
                    "scenarios",
                    JsonValue::Array(
                        names
                            .iter()
                            .map(|n| {
                                let mut fields =
                                    vec![("name".to_string(), JsonValue::Str(n.to_string()))];
                                for f in SCENARIO_NUMBER_FIELDS {
                                    fields.push((f.to_string(), JsonValue::Float(1.0)));
                                }
                                JsonValue::Object(fields)
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let doc = |schema: &str, names: &[&str]| {
            JsonValue::object([
                ("schema", JsonValue::Str(schema.to_string())),
                ("trajectory", JsonValue::Array(vec![entry(names)])),
            ])
        };
        assert!(validate(&doc(PERF_SCHEMA, &PERF_SCENARIOS)).is_empty());
        assert!(validate(&doc(FLEET_SCHEMA, &FLEET_SCENARIOS)).is_empty());
        assert!(!validate(&doc("gvfs.bogus.v9", &PERF_SCENARIOS)).is_empty());
        // A fleet doc missing churn_1000 must fail.
        assert!(!validate(&doc(FLEET_SCHEMA, &["fleet_smoke"])).is_empty());
    }

    #[test]
    fn vm_hwm_mb_is_recorded_where_supported_and_must_be_numeric() {
        let m = Measure {
            events: 1,
            rpc_roundtrips: 1,
            sim_bytes: 1,
            virtual_secs: 1.0,
            procs: 1,
        };
        let doc = |hwm: Option<JsonValue>| {
            let scenarios = FLEET_SCENARIOS.iter().map(|name| {
                let mut s = measure(name, 1, || m);
                if let (Some(v), JsonValue::Object(fields)) = (&hwm, &mut s) {
                    fields.retain(|(k, _)| k != OPTIONAL_VM_HWM_MB);
                    fields.push((OPTIONAL_VM_HWM_MB.to_string(), v.clone()));
                }
                s
            });
            JsonValue::object([
                ("schema", JsonValue::Str(FLEET_SCHEMA.to_string())),
                (
                    "trajectory",
                    JsonValue::Array(vec![JsonValue::object([
                        ("label", JsonValue::Str("t".into())),
                        ("mode", JsonValue::Str("bench".into())),
                        ("runs", JsonValue::Uint(1)),
                        ("scenarios", JsonValue::Array(scenarios.collect())),
                    ])]),
                ),
            ])
        };
        let measured = doc(None);
        assert_eq!(validate(&measured), Vec::<String>::new());
        if vm_hwm_mb().is_some() {
            assert!(format!("{measured}").contains(OPTIONAL_VM_HWM_MB));
        }
        assert!(validate(&doc(Some(JsonValue::Float(12.5)))).is_empty());
        assert!(!validate(&doc(Some(JsonValue::Str("big".into())))).is_empty());
    }
}
