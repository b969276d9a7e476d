//! Documentation coverage tests: `docs/PROTOCOL.md` must mention
//! every wire request op, every response kind, every error code, and
//! every telemetry event kind. The constants these loops walk are the
//! single source of truth (`wire::REQUEST_OPS`, `wire::RESPONSE_KINDS`,
//! `ERROR_CODES`, `hetmem_telemetry::EVENT_KINDS`), so extending the
//! protocol without documenting the extension fails here.

use hetmem_service::{
    wire::{REQUEST_OPS, RESPONSE_KINDS},
    ERROR_CODES,
};
use hetmem_telemetry::json::{self, JsonValue};
use hetmem_telemetry::EVENT_KINDS;

const PROTOCOL: &str = include_str!("../../../docs/PROTOCOL.md");
/// One rendered event of every kind, in `EVENT_KINDS` order.
const EVENTS: &str = include_str!("../../telemetry/tests/golden/events.jsonl");
const OPERATIONS: &str = include_str!("../../../docs/OPERATIONS.md");

/// The doc convention: every protocol identifier appears in backticks
/// at least once (section headings and tables both satisfy this).
fn assert_documented(doc_name: &str, doc: &str, kind: &str, names: &[&str]) {
    let missing: Vec<&str> =
        names.iter().copied().filter(|n| !doc.contains(&format!("`{n}`"))).collect();
    assert!(
        missing.is_empty(),
        "{doc_name} does not document {kind}: {missing:?} (expected each in backticks)"
    );
}

#[test]
fn every_request_op_is_documented() {
    assert_documented("docs/PROTOCOL.md", PROTOCOL, "request ops", REQUEST_OPS);
}

#[test]
fn every_response_kind_is_documented() {
    assert_documented("docs/PROTOCOL.md", PROTOCOL, "response kinds", RESPONSE_KINDS);
}

#[test]
fn every_error_code_is_documented() {
    assert_documented("docs/PROTOCOL.md", PROTOCOL, "error codes", ERROR_CODES);
}

#[test]
fn every_telemetry_event_is_documented() {
    assert_documented("docs/PROTOCOL.md", PROTOCOL, "telemetry events", EVENT_KINDS);
}

/// Every top-level key of every event kind, as the codec renders it in
/// the golden trace, appears in backticks in that kind's `### 6.N`
/// section, so a new field cannot go undocumented.
#[test]
fn every_telemetry_event_field_is_documented_in_its_section() {
    for line in EVENTS.lines() {
        let event = json::parse(line).expect("golden event parses");
        let JsonValue::Object(fields) = &event else { panic!("not an object: {line}") };
        let kind = event.field("event").and_then(|k| k.as_str()).expect("event kind");
        let heading = PROTOCOL
            .match_indices("\n### 6.")
            .map(|(at, _)| &PROTOCOL[at + 1..])
            .find(|s| s.lines().next().is_some_and(|h| h.ends_with(&format!(" `{kind}`"))))
            .unwrap_or_else(|| panic!("docs/PROTOCOL.md has no `### 6.N `{kind}`` section"));
        let body = &heading[heading.find('\n').unwrap_or(heading.len())..];
        let section = &body[..body.find("\n#").unwrap_or(body.len())];
        let keys: Vec<&str> =
            fields.iter().map(|(k, _)| k.as_ref()).filter(|&k| k != "event").collect();
        assert_documented(&format!("docs/PROTOCOL.md §6 `{kind}`"), section, "fields", &keys);
    }
}

#[test]
fn the_documented_frame_limit_matches_the_code() {
    let limit = hetmem_service::server::MAX_FRAME.to_string();
    assert!(
        PROTOCOL.contains(&limit),
        "docs/PROTOCOL.md does not state the frame limit ({limit} bytes)"
    );
}

#[test]
fn the_snapshot_and_wirelog_formats_are_documented() {
    // §7 specifies the two binary sidecar formats. The magics are
    // written here as literals (not imported from hetmem-snapshot)
    // on purpose: service cannot depend on snapshot without a cycle,
    // and the spec holds the same bytes the codec does —
    // crates/snapshot's own tests pin the constants.
    for magic in ["HMSN", "HMWL"] {
        assert!(
            PROTOCOL.contains(&format!("`{magic}`")),
            "docs/PROTOCOL.md does not document the {magic} format"
        );
    }
}

#[test]
fn the_federation_section_is_normative() {
    // §8 must exist and must specify, inside the section itself, the
    // two federation frames, both error codes, both telemetry events,
    // and the remote-lease lifecycle verbs they compose with.
    let start = PROTOCOL
        .find("## 8. Federation")
        .expect("docs/PROTOCOL.md is missing the `## 8. Federation` section");
    let section = &PROTOCOL[start..];
    let required = [
        "forward",
        "digest",
        "peer_unreachable",
        "stale_digest",
        "spill_forwarded",
        "digest_merged",
        "renew",
        "heartbeat",
        "free",
        "HMWL",
        "HMSN",
    ];
    assert_documented("docs/PROTOCOL.md §8", section, "federation vocabulary", &required);
}

#[test]
fn the_operator_handbook_covers_the_record_replay_runbook() {
    // OPERATIONS.md must walk operators through the checkpoint
    // tooling alongside the failure drills.
    let tools = ["--record", "--restore", "hetmem-replay"];
    assert_documented("docs/OPERATIONS.md", OPERATIONS, "record/replay tooling", &tools);
}

#[test]
fn the_operator_handbook_covers_concurrency_tuning() {
    // OPERATIONS.md must carry the concurrency-tuning section, and the
    // section itself must name what an operator can see of the serve
    // plane today: the reply write timeout that cuts off a client that
    // stops reading, and the recording that logs requests in the order
    // they are served.
    let start = OPERATIONS
        .find("## 8. Concurrency tuning")
        .expect("docs/OPERATIONS.md is missing the `## 8. Concurrency tuning` section");
    let body = &OPERATIONS[start + "## 8.".len()..];
    let section = &body[..body.find("\n## ").unwrap_or(body.len())];
    let required = ["WRITE_TIMEOUT", "--record"];
    assert_documented("docs/OPERATIONS.md §8", section, "concurrency-tuning vocabulary", &required);
}

#[test]
fn the_operator_handbook_covers_the_robustness_events() {
    // OPERATIONS.md walks operators through the failure drills; the
    // five robustness events are the observable surface of those
    // drills, so the handbook must name each one.
    let robustness =
        ["lease_expired", "lease_revoked", "tier_degraded", "retry_exhausted", "reclaim"];
    assert_documented("docs/OPERATIONS.md", OPERATIONS, "robustness events", &robustness);
}
