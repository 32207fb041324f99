//! Since protocol v4 there are no kind slots. Protocol v3 kept a byte
//! where an index kind used to travel after a `JoinProbeBatch` column
//! and after each probe and join step's column of a `Plan` reply,
//! written as `FullCss`'s code and dropped on read. No plan or probe carries a kind,
//! so v4 and later write each of those column names followed directly
//! by its next field.

use ccindex_wire::{ShardRequest, ShardResponse};
use mmdb::plan::{GroupStep, JoinStep, Plan, Probe, ProbeStep, Side};
use mmdb::{AggFn, ExecOptions, Value};

/// The bytes that follow the first `name` string in `bytes`.
fn after<'a>(bytes: &'a [u8], name: &str) -> &'a [u8] {
    let at = bytes
        .windows(name.len())
        .position(|w| w == name.as_bytes())
        .unwrap_or_else(|| panic!("`{name}` is not in the frame"));
    &bytes[at + name.len()..]
}

/// `bytes` continues after `name` with `next`, not with a kind byte.
fn assert_followed_by(bytes: &[u8], name: &str, next: &[u8]) {
    let rest = after(bytes, name);
    assert!(
        rest.starts_with(next),
        "`{name}` is followed by {rest:02x?}"
    );
}

#[test]
fn kind_slots_are_written_as_full_css_and_read_as_any_kind() {
    let join = ShardRequest::JoinProbeBatch {
        table: "customers".into(),
        column: "jcol".into(),
        values: vec![Value::Int(3), "w".into()],
        lanes: 8,
        threads: 2,
    };
    let bytes = join.encode();
    // The value count, then the first value's tag.
    assert_followed_by(&bytes, "jcol", &[2, 0, 0, 0, 0]);
    assert_eq!(ShardRequest::decode(&bytes, "peer").ok(), Some(join));

    let plan = ShardResponse::Plan(Box::new(Plan {
        table: "sales".into(),
        probes: vec![
            ProbeStep {
                column: "pcol".into(),
                probe: Probe::Point(Value::Int(7)),
            },
            ProbeStep {
                column: "rcol".into(),
                probe: Probe::Range(Value::Int(1), Value::Int(9)),
            },
        ],
        join: Some(JoinStep {
            inner_table: "customers".into(),
            outer_column: "ocol".into(),
            inner_column: "icol".into(),
            rows_hint: 120,
        }),
        group: Some(GroupStep {
            column: "region".into(),
            side: Side::Inner,
            agg: AggFn::Count,
            measure: None,
            rows_hint: 120,
        }),
        exec: ExecOptions::default(),
        ..Plan::default()
    }));
    let bytes = plan.encode();
    // A probe step's column is followed by its probe's tag and value;
    // the join step's inner column by its row hint.
    assert_followed_by(&bytes, "pcol", &[0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
    assert_followed_by(&bytes, "rcol", &[1, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
    assert_followed_by(&bytes, "icol", &120u64.to_le_bytes());
    assert_eq!(ShardResponse::decode(&bytes, "peer").ok(), Some(plan));
}
