//! Minimal JSON value type, writer, and parser (the workspace has no
//! serde), plus [`RunRecord`] serialization for the `repro.json` sweep
//! artifact.
//!
//! Numbers are kept as their raw JSON text ([`Json::Num`] stores a
//! `String`), so integer fields round-trip exactly at any magnitude and
//! floats round-trip through Rust's shortest-representation `{}`
//! formatting. This is what makes the sweep harness's "bit-identical
//! `repro.json` for any `--jobs N`" guarantee checkable by comparing
//! document strings.

use crate::harness::{EngineRecord, HostCost, LocalityRecord, RunRecord};
use gpu_sim::cache::NUM_REUSE_CLASSES;
use gpu_sim::stats::{
    CriticalPath, LatencyStats, Pow2Hist, StallBreakdown, WakeSource, NUM_WAKE_SOURCES,
};

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw JSON text (exact round-trip).
    Num(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an unsigned integer.
    pub fn from_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a float (shortest round-trip representation).
    /// Non-finite values have no JSON encoding and become `null`.
    pub fn from_f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// The value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`; `null` reads as NaN (the writer encodes
    /// non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
            text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))?;
            Ok(Json::Num(text.to_string()))
        }
        Some(c) => Err(format!("unexpected '{}' at byte {pos}", *c as char)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (continuation bytes included).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf-8")?);
            }
        }
    }
}

/// Serializes one [`RunRecord`] as a JSON object (the `runs[]` element
/// of the `repro.json` schema; see `docs/ARCHITECTURE.md`). The
/// `locality` key is present only for profiled runs, so unprofiled
/// records keep the schema-v1 byte layout.
pub fn run_to_json(r: &RunRecord) -> Json {
    let mut fields = vec![
        ("workload".into(), Json::Str(r.workload.clone())),
        ("launch_model".into(), Json::Str(r.launch_model.clone())),
        ("scheduler".into(), Json::Str(r.scheduler.clone())),
        ("cycles".into(), Json::from_u64(r.cycles)),
        ("ipc".into(), Json::from_f64(r.ipc)),
        ("l1_hit_rate".into(), Json::from_f64(r.l1_hit_rate)),
        ("l2_hit_rate".into(), Json::from_f64(r.l2_hit_rate)),
        ("child_l1_hit_rate".into(), Json::from_f64(r.child_l1_hit_rate)),
        ("mean_child_wait".into(), Json::from_f64(r.mean_child_wait)),
        ("parent_smx_affinity".into(), Json::from_f64(r.parent_smx_affinity)),
        ("smx_utilization".into(), Json::from_f64(r.smx_utilization)),
        ("load_imbalance".into(), Json::from_f64(r.load_imbalance)),
        ("dynamic_tbs".into(), Json::from_u64(r.dynamic_tbs as u64)),
        ("total_tbs".into(), Json::from_u64(r.total_tbs as u64)),
        ("steals".into(), Json::from_u64(r.steals)),
        ("queue_overflows".into(), Json::from_u64(r.queue_overflows)),
        ("queue_pushes".into(), Json::from_u64(r.queue_pushes)),
        ("max_queue_depth".into(), Json::from_u64(r.max_queue_depth)),
        ("queue_search_cycles".into(), Json::from_u64(r.queue_search_cycles)),
        ("table_overflows".into(), Json::from_u64(r.table_overflows)),
        (
            "stalls".into(),
            Json::Obj(vec![
                ("scoreboard".into(), Json::from_u64(r.stalls.scoreboard)),
                ("memory_pending".into(), Json::from_u64(r.stalls.memory_pending)),
                ("mshr_full".into(), Json::from_u64(r.stalls.mshr_full)),
                ("barrier".into(), Json::from_u64(r.stalls.barrier)),
                ("no_tb".into(), Json::from_u64(r.stalls.no_tb)),
                ("launch_path".into(), Json::from_u64(r.stalls.launch_path)),
            ]),
        ),
    ];
    if let Some(loc) = &r.locality {
        fields.push(("locality".into(), locality_to_json(loc)));
    }
    // The profiling keys come last, newest-schema last, so enabling any
    // profiler is a pure suffix extension of the unprofiled byte
    // layout. Host-side cost (`RunRecord::host`) is deliberately
    // absent: the document carries no wall-clock fields, keeping it
    // bit-reproducible.
    if let Some(eng) = &r.engine {
        fields.push(("engine".into(), engine_to_json(eng)));
    }
    if let Some(lat) = &r.latency {
        fields.push(("latency".into(), latency_to_json(lat)));
    }
    Json::Obj(fields)
}

fn class_array(hits: &[u64; NUM_REUSE_CLASSES]) -> Json {
    Json::Arr(hits.iter().map(|&v| Json::from_u64(v)).collect())
}

fn locality_to_json(loc: &LocalityRecord) -> Json {
    Json::Obj(vec![
        ("l1_hits".into(), Json::from_u64(loc.l1_hits)),
        ("l2_hits".into(), Json::from_u64(loc.l2_hits)),
        ("l1_class_hits".into(), class_array(&loc.l1_class_hits)),
        ("l2_class_hits".into(), class_array(&loc.l2_class_hits)),
        ("l2_same_smx".into(), Json::from_u64(loc.l2_same_smx)),
        ("l2_cross_smx".into(), Json::from_u64(loc.l2_cross_smx)),
        ("bound_hits".into(), Json::from_u64(loc.bound_hits)),
        ("bound_parent_child".into(), Json::from_u64(loc.bound_parent_child)),
        ("stolen_hits".into(), Json::from_u64(loc.stolen_hits)),
        ("stolen_parent_child".into(), Json::from_u64(loc.stolen_parent_child)),
        ("l1_pc_mean_dist".into(), Json::from_f64(loc.l1_pc_mean_dist)),
        ("l2_pc_mean_dist".into(), Json::from_f64(loc.l2_pc_mean_dist)),
    ])
}

/// Encodes a [`Pow2Hist`] with its bucket array trimmed of trailing
/// zeros (the decoder pads back to 65), so sparse histograms stay
/// compact while round-tripping exactly.
fn hist_to_json(h: &Pow2Hist) -> Json {
    let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    Json::Obj(vec![
        ("count".into(), Json::from_u64(h.count)),
        ("sum".into(), Json::from_u64(h.sum)),
        ("max".into(), Json::from_u64(h.max)),
        (
            "buckets".into(),
            Json::Arr(h.buckets[..last].iter().map(|&b| Json::from_u64(b)).collect()),
        ),
    ])
}

fn hist_from_json(v: &Json, what: &str) -> Result<Pow2Hist, String> {
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what} missing integer field '{key}'"))
    };
    let arr = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what} missing array field 'buckets'"))?;
    let mut hist = Pow2Hist {
        count: u64_field("count")?,
        sum: u64_field("sum")?,
        max: u64_field("max")?,
        ..Pow2Hist::default()
    };
    if arr.len() > hist.buckets.len() {
        return Err(format!("{what} has {} buckets (max 65)", arr.len()));
    }
    for (slot, item) in hist.buckets.iter_mut().zip(arr) {
        *slot = item.as_u64().ok_or_else(|| format!("{what} bucket not integer"))?;
    }
    Ok(hist)
}

fn engine_to_json(eng: &EngineRecord) -> Json {
    Json::Obj(vec![
        ("loop_iterations".into(), Json::from_u64(eng.loop_iterations)),
        (
            "wake_counts".into(),
            Json::Obj(
                WakeSource::ALL
                    .iter()
                    .map(|s| (s.name().to_string(), Json::from_u64(eng.wake_counts[s.index()])))
                    .collect(),
            ),
        ),
        ("heap_depth".into(), hist_to_json(&eng.heap_depth)),
        ("events_per_cycle".into(), hist_to_json(&eng.events_per_cycle)),
        ("jump_len".into(), hist_to_json(&eng.jump_len)),
    ])
}

fn engine_from_json(v: &Json) -> Result<EngineRecord, String> {
    let wakes = v.get("wake_counts").ok_or("engine missing 'wake_counts'")?;
    let mut wake_counts = [0u64; NUM_WAKE_SOURCES];
    for s in WakeSource::ALL {
        wake_counts[s.index()] = wakes
            .get(s.name())
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("engine wake_counts missing '{}'", s.name()))?;
    }
    Ok(EngineRecord {
        loop_iterations: v
            .get("loop_iterations")
            .and_then(Json::as_u64)
            .ok_or("engine missing integer field 'loop_iterations'")?,
        wake_counts,
        heap_depth: hist_from_json(
            v.get("heap_depth").ok_or("engine missing 'heap_depth'")?,
            "engine heap_depth",
        )?,
        events_per_cycle: hist_from_json(
            v.get("events_per_cycle").ok_or("engine missing 'events_per_cycle'")?,
            "engine events_per_cycle",
        )?,
        jump_len: hist_from_json(
            v.get("jump_len").ok_or("engine missing 'jump_len'")?,
            "engine jump_len",
        )?,
    })
}

fn latency_to_json(lat: &LatencyStats) -> Json {
    let keyed = |key: &str, pairs: &[(u64, Pow2Hist)]| -> Json {
        Json::Arr(
            pairs
                .iter()
                .map(|(k, h)| {
                    Json::Obj(vec![
                        (key.to_string(), Json::from_u64(*k)),
                        ("hist".into(), hist_to_json(h)),
                    ])
                })
                .collect(),
        )
    };
    let depths: Vec<(u64, Pow2Hist)> =
        lat.depth_queue_wait.iter().map(|&(d, h)| (u64::from(d), h)).collect();
    let kinds: Vec<(u64, Pow2Hist)> =
        lat.kind_lifetime.iter().map(|&(k, h)| (u64::from(k), h)).collect();
    Json::Obj(vec![
        ("tbs".into(), Json::from_u64(lat.tbs)),
        ("partition_violations".into(), Json::from_u64(lat.partition_violations)),
        ("kmu_depth_hwm".into(), Json::from_u64(lat.kmu_depth_hwm)),
        ("launch_path".into(), hist_to_json(&lat.launch_path)),
        ("kmu_wait".into(), hist_to_json(&lat.kmu_wait)),
        ("queue_wait".into(), hist_to_json(&lat.queue_wait)),
        ("dispatch_gap".into(), hist_to_json(&lat.dispatch_gap)),
        ("exec".into(), hist_to_json(&lat.exec)),
        ("lifetime".into(), hist_to_json(&lat.lifetime)),
        ("child_queue_wait".into(), hist_to_json(&lat.child_queue_wait)),
        ("bound_queue_wait".into(), hist_to_json(&lat.bound_queue_wait)),
        ("stolen_queue_wait".into(), hist_to_json(&lat.stolen_queue_wait)),
        ("depth_queue_wait".into(), keyed("depth", &depths)),
        ("kind_lifetime".into(), keyed("kind", &kinds)),
        ("critical_path_len".into(), Json::from_u64(u64::from(lat.critical_path.len))),
        ("critical_path_cycles".into(), Json::from_u64(lat.critical_path.cycles)),
        ("critical_path_queue".into(), Json::from_u64(lat.critical_path.queue_cycles)),
        ("critical_path_exec".into(), Json::from_u64(lat.critical_path.exec_cycles)),
    ])
}

fn latency_from_json(v: &Json) -> Result<LatencyStats, String> {
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("latency missing integer field '{key}'"))
    };
    let hist_field = |key: &str| -> Result<Pow2Hist, String> {
        hist_from_json(
            v.get(key).ok_or_else(|| format!("latency missing '{key}'"))?,
            &format!("latency {key}"),
        )
    };
    let keyed_field = |field: &str, key: &str| -> Result<Vec<(u64, Pow2Hist)>, String> {
        let arr = v
            .get(field)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("latency missing array field '{field}'"))?;
        arr.iter()
            .map(|item| {
                let k = item
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("latency {field} entry missing '{key}'"))?;
                let h = hist_from_json(
                    item.get("hist")
                        .ok_or_else(|| format!("latency {field} entry missing 'hist'"))?,
                    &format!("latency {field}"),
                )?;
                Ok((k, h))
            })
            .collect()
    };
    let narrow = |what: &str, v: u64, max: u64| -> Result<u64, String> {
        if v > max {
            Err(format!("latency {what} {v} out of range"))
        } else {
            Ok(v)
        }
    };
    let depth_queue_wait = keyed_field("depth_queue_wait", "depth")?
        .into_iter()
        .map(|(d, h)| Ok((narrow("depth", d, u64::from(u8::MAX))? as u8, h)))
        .collect::<Result<Vec<_>, String>>()?;
    let kind_lifetime = keyed_field("kind_lifetime", "kind")?
        .into_iter()
        .map(|(k, h)| Ok((narrow("kind", k, u64::from(u16::MAX))? as u16, h)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LatencyStats {
        tbs: u64_field("tbs")?,
        partition_violations: u64_field("partition_violations")?,
        kmu_depth_hwm: u64_field("kmu_depth_hwm")?,
        launch_path: hist_field("launch_path")?,
        kmu_wait: hist_field("kmu_wait")?,
        queue_wait: hist_field("queue_wait")?,
        dispatch_gap: hist_field("dispatch_gap")?,
        exec: hist_field("exec")?,
        lifetime: hist_field("lifetime")?,
        child_queue_wait: hist_field("child_queue_wait")?,
        bound_queue_wait: hist_field("bound_queue_wait")?,
        stolen_queue_wait: hist_field("stolen_queue_wait")?,
        depth_queue_wait,
        kind_lifetime,
        critical_path: CriticalPath {
            len: u32::try_from(u64_field("critical_path_len")?)
                .map_err(|_| "latency critical_path_len out of range".to_string())?,
            cycles: u64_field("critical_path_cycles")?,
            queue_cycles: u64_field("critical_path_queue")?,
            exec_cycles: u64_field("critical_path_exec")?,
        },
    })
}

fn locality_from_json(v: &Json) -> Result<LocalityRecord, String> {
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("locality missing integer field '{key}'"))
    };
    let f64_field = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("locality missing number field '{key}'"))
    };
    let class_field = |key: &str| -> Result<[u64; NUM_REUSE_CLASSES], String> {
        let arr = v
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("locality missing array field '{key}'"))?;
        if arr.len() != NUM_REUSE_CLASSES {
            return Err(format!("locality '{key}' must have {NUM_REUSE_CLASSES} entries"));
        }
        let mut out = [0u64; NUM_REUSE_CLASSES];
        for (slot, item) in out.iter_mut().zip(arr) {
            *slot = item.as_u64().ok_or_else(|| format!("locality '{key}' entry not integer"))?;
        }
        Ok(out)
    };
    Ok(LocalityRecord {
        l1_hits: u64_field("l1_hits")?,
        l2_hits: u64_field("l2_hits")?,
        l1_class_hits: class_field("l1_class_hits")?,
        l2_class_hits: class_field("l2_class_hits")?,
        l2_same_smx: u64_field("l2_same_smx")?,
        l2_cross_smx: u64_field("l2_cross_smx")?,
        bound_hits: u64_field("bound_hits")?,
        bound_parent_child: u64_field("bound_parent_child")?,
        stolen_hits: u64_field("stolen_hits")?,
        stolen_parent_child: u64_field("stolen_parent_child")?,
        l1_pc_mean_dist: f64_field("l1_pc_mean_dist")?,
        l2_pc_mean_dist: f64_field("l2_pc_mean_dist")?,
    })
}

/// Deserializes a [`RunRecord`] from the object shape [`run_to_json`]
/// writes.
///
/// # Errors
///
/// Names the first missing or mistyped field.
pub fn run_from_json(v: &Json) -> Result<RunRecord, String> {
    let str_field = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("run record missing string field '{key}'"))
    };
    let f64_field = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("run record missing number field '{key}'"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("run record missing integer field '{key}'"))
    };
    let stalls = v.get("stalls").ok_or("run record missing 'stalls'")?;
    let stall_field = |key: &str| -> Result<u64, String> {
        stalls
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stalls missing integer field '{key}'"))
    };
    Ok(RunRecord {
        workload: str_field("workload")?,
        launch_model: str_field("launch_model")?,
        scheduler: str_field("scheduler")?,
        cycles: u64_field("cycles")?,
        ipc: f64_field("ipc")?,
        l1_hit_rate: f64_field("l1_hit_rate")?,
        l2_hit_rate: f64_field("l2_hit_rate")?,
        child_l1_hit_rate: f64_field("child_l1_hit_rate")?,
        mean_child_wait: f64_field("mean_child_wait")?,
        parent_smx_affinity: f64_field("parent_smx_affinity")?,
        smx_utilization: f64_field("smx_utilization")?,
        load_imbalance: f64_field("load_imbalance")?,
        dynamic_tbs: u64_field("dynamic_tbs")? as usize,
        total_tbs: u64_field("total_tbs")? as usize,
        steals: u64_field("steals")?,
        queue_overflows: u64_field("queue_overflows")?,
        queue_pushes: u64_field("queue_pushes")?,
        max_queue_depth: u64_field("max_queue_depth")?,
        queue_search_cycles: u64_field("queue_search_cycles")?,
        table_overflows: u64_field("table_overflows")?,
        stalls: StallBreakdown {
            scoreboard: stall_field("scoreboard")?,
            memory_pending: stall_field("memory_pending")?,
            mshr_full: stall_field("mshr_full")?,
            barrier: stall_field("barrier")?,
            no_tb: stall_field("no_tb")?,
            launch_path: stall_field("launch_path")?,
        },
        locality: v.get("locality").map(locality_from_json).transpose()?,
        engine: v.get("engine").map(engine_from_json).transpose()?,
        latency: v.get("latency").map(latency_from_json).transpose()?,
        // Host cost never enters the document; a parsed record reports
        // zero wall time and no dominant component.
        host: HostCost::default(),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            workload: "bfs-citation".to_string(),
            launch_model: "dtbl".to_string(),
            scheduler: "adaptive-bind".to_string(),
            cycles: 123_456_789_012,
            ipc: 61.25,
            l1_hit_rate: 0.5123456789,
            l2_hit_rate: 0.75,
            child_l1_hit_rate: 0.25,
            mean_child_wait: 12.5,
            parent_smx_affinity: 0.875,
            smx_utilization: 0.9,
            load_imbalance: 1.125,
            dynamic_tbs: 331,
            total_tbs: 843,
            steals: 17,
            queue_overflows: 0,
            queue_pushes: 331,
            max_queue_depth: 12,
            queue_search_cycles: 400,
            table_overflows: 2,
            stalls: StallBreakdown {
                scoreboard: 40,
                memory_pending: 30,
                mshr_full: 10,
                barrier: 5,
                no_tb: 15,
                launch_path: 3,
            },
            locality: None,
            engine: None,
            latency: None,
            host: HostCost::default(),
        }
    }

    fn engine() -> EngineRecord {
        let mut heap_depth = Pow2Hist::default();
        let mut events_per_cycle = Pow2Hist::default();
        let mut jump_len = Pow2Hist::default();
        for v in [0, 1, 3, 9] {
            heap_depth.record(v);
            events_per_cycle.record(v);
        }
        jump_len.record(17);
        jump_len.record(1024);
        EngineRecord {
            loop_iterations: 1200,
            wake_counts: [1000, 50, 30, 20, 100],
            heap_depth,
            events_per_cycle,
            jump_len,
        }
    }

    fn locality() -> LocalityRecord {
        LocalityRecord {
            l1_hits: 1000,
            l2_hits: 500,
            l1_class_hits: [600, 250, 100, 30, 20],
            l2_class_hits: [200, 150, 100, 25, 25],
            l2_same_smx: 300,
            l2_cross_smx: 200,
            bound_hits: 400,
            bound_parent_child: 240,
            stolen_hits: 100,
            stolen_parent_child: 20,
            l1_pc_mean_dist: 384.5,
            l2_pc_mean_dist: 2048.25,
        }
    }

    #[test]
    fn run_record_roundtrips_exactly() {
        let r = record();
        let text = run_to_json(&r).render();
        let parsed = run_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
        // Re-rendering is byte-identical (the invariance tests rely on
        // string comparison of whole documents).
        assert_eq!(run_to_json(&parsed).render(), text);
    }

    #[test]
    fn locality_roundtrips_exactly() {
        let mut r = record();
        r.locality = Some(locality());
        let text = run_to_json(&r).render();
        let parsed = run_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(run_to_json(&parsed).render(), text);
    }

    #[test]
    fn unprofiled_record_keeps_schema_v1_bytes() {
        // An unprofiled record must serialize without any locality key,
        // so pre-provenance consumers (and the golden diffs) see the
        // exact schema-v1 byte layout.
        let text = run_to_json(&record()).render();
        assert!(!text.contains("locality"));
        let mut profiled = record();
        profiled.locality = Some(locality());
        let profiled_text = run_to_json(&profiled).render();
        assert!(profiled_text.starts_with(text.trim_end_matches('}')));
        assert!(profiled_text.contains("\"locality\":{\"l1_hits\":1000"));
    }

    #[test]
    fn engine_roundtrips_exactly() {
        let mut r = record();
        r.engine = Some(engine());
        let text = run_to_json(&r).render();
        let parsed = run_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(run_to_json(&parsed).render(), text);
    }

    #[test]
    fn engine_key_is_a_pure_suffix_extension() {
        // Enabling engine profiling appends one key: every byte of the
        // unprofiled record is a prefix of the profiled one, and the
        // host-cost telemetry never appears in either.
        let plain = run_to_json(&record()).render();
        assert!(!plain.contains("engine"));
        assert!(!plain.contains("host"));
        let mut profiled = record();
        profiled.engine = Some(engine());
        profiled.host = HostCost { ns: 987_654_321, dominant_component: Some("dram".into()) };
        let profiled_text = run_to_json(&profiled).render();
        assert!(profiled_text.starts_with(plain.trim_end_matches('}')));
        assert!(profiled_text.contains("\"engine\":{\"loop_iterations\":1200"));
        assert!(profiled_text.contains("\"wake_counts\":{\"component_tick\":1000"));
        assert!(!profiled_text.contains("host"));
        assert!(!profiled_text.contains("987654321"));
        assert!(!profiled_text.contains("dram"));
    }

    fn latency() -> LatencyStats {
        let hist = |vals: &[u64]| {
            let mut h = Pow2Hist::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        LatencyStats {
            tbs: 12,
            partition_violations: 0,
            kmu_depth_hwm: 4,
            launch_path: hist(&[3, 9, 17]),
            kmu_wait: hist(&[1, 2]),
            queue_wait: hist(&[0, 5, 130]),
            dispatch_gap: hist(&[1, 1, 1]),
            exec: hist(&[64, 300]),
            lifetime: hist(&[70, 400, 900]),
            child_queue_wait: hist(&[5, 130]),
            bound_queue_wait: hist(&[5]),
            stolen_queue_wait: hist(&[130]),
            depth_queue_wait: vec![(0, hist(&[0])), (1, hist(&[5, 130]))],
            kind_lifetime: vec![(0, hist(&[70])), (3, hist(&[400, 900]))],
            critical_path: CriticalPath {
                len: 3,
                cycles: 950,
                queue_cycles: 200,
                exec_cycles: 750,
            },
        }
    }

    #[test]
    fn latency_roundtrips_exactly() {
        let mut r = record();
        r.latency = Some(latency());
        let text = run_to_json(&r).render();
        let parsed = run_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(run_to_json(&parsed).render(), text);
    }

    #[test]
    fn latency_key_is_a_pure_suffix_extension() {
        // The latency key appends after every earlier profiling key, so
        // an engine-profiled document stays a byte prefix of the same
        // run with latency profiling also enabled.
        let mut engine_only = record();
        engine_only.engine = Some(engine());
        let plain = run_to_json(&engine_only).render();
        assert!(!plain.contains("latency"));
        let mut profiled = engine_only.clone();
        profiled.latency = Some(latency());
        let profiled_text = run_to_json(&profiled).render();
        assert!(profiled_text.starts_with(plain.trim_end_matches('}')));
        assert!(profiled_text.contains("\"latency\":{\"tbs\":12"));
        assert!(profiled_text.contains("\"critical_path_cycles\":950"));
    }

    #[test]
    fn latency_with_out_of_range_depth_rejected() {
        let mut r = record();
        r.latency = Some(latency());
        let text = run_to_json(&r).render();
        let broken = text.replace("{\"depth\":1,", "{\"depth\":300,");
        assert_ne!(broken, text, "replacement must hit");
        assert!(run_from_json(&parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn engine_with_oversized_bucket_array_rejected() {
        let mut r = record();
        r.engine = Some(engine());
        let text = run_to_json(&r).render();
        let too_many = format!("[{}]", vec!["1"; 66].join(","));
        let broken = text.replace("\"jump_len\":{\"count\":2,\"sum\":1041,\"max\":1024,\"buckets\":[0,0,0,0,0,1,0,0,0,0,0,1]}", &format!("\"jump_len\":{{\"count\":2,\"sum\":1041,\"max\":1024,\"buckets\":{too_many}}}"));
        assert_ne!(broken, text, "replacement must hit");
        assert!(run_from_json(&parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn locality_with_wrong_class_arity_rejected() {
        let mut r = record();
        r.locality = Some(locality());
        let text = run_to_json(&r).render();
        let broken = text.replace("[600,250,100,30,20]", "[600,250,100,30]");
        assert!(run_from_json(&parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let doc = r#"{"a": [1, -2.5, 1e3, "x\"\\\n\u0041"], "b": {"c": null, "d": true}}"#;
        let v = parse(doc).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3].as_str(), Some("x\"\\\nA"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn writer_escapes_control_characters() {
        let v = Json::Str("line\nbreak \"q\" \\ \u{1}".to_string());
        let text = v.render();
        assert_eq!(text, "\"line\\nbreak \\\"q\\\" \\\\ \\u0001\"");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from_f64(f64::NAN), Json::Null);
        assert!(Json::Null.as_f64().unwrap().is_nan());
    }

    #[test]
    fn large_integers_roundtrip_exactly() {
        let v = Json::from_u64(u64::MAX);
        let text = v.render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }
}
