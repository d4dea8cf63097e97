//! Correctness checks: digests of simulated statistics and the committed
//! golden digests for the default seed.

use noc_scenario::cache_key::sha256;
use noc_scenario::Json;
use noc_sim::NetStats;

/// The seed the committed golden digests were made with.
pub const DEFAULT_SEED: u64 = 1;

/// The golden digests, one list per workload, in run order.
const GOLDEN: &str = include_str!("../golden.json");

/// Canonical text of a JSON value: fields in their given order, numbers in
/// shortest round-trip form.
fn canon(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => out.push_str(&format!("{x}")),
        Json::Str(s) => out.push_str(&format!("{s:?}")),
        Json::Arr(items) => {
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canon(x, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, x)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{k:?}:"));
                canon(x, out);
            }
            out.push('}');
        }
    }
}

/// Digest of a `stats` object as it appears in result envelopes. It holds
/// simulated quantities only: host timings live outside `NetStats`.
pub fn json_digest(stats: &Json) -> String {
    let mut text = String::new();
    canon(stats, &mut text);
    hex(&sha256(text.as_bytes()))
}

/// Digest of a run's statistics; equal to [`json_digest`] of the same
/// statistics read back from an envelope.
pub fn stats_digest(stats: &NetStats) -> String {
    let text = serde_json::to_string(stats).expect("stats serialise");
    json_digest(&Json::parse(&text).expect("serialised stats parse"))
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden digests of `workload` for [`DEFAULT_SEED`].
pub fn golden(workload: &str) -> Vec<String> {
    let j = Json::parse(GOLDEN).expect("golden.json is valid JSON");
    match j.get(workload) {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|d| d.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
