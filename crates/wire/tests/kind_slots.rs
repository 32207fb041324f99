//! Protocol v3's kind slots. A `Select` probe, a `JoinProbeBatch` and
//! each probe and join step of a `Plan` reply keep the byte where an
//! index kind used to travel. No plan or probe carries a kind any more,
//! so the slot is written as `FullCss`'s code (`05`), any of the eight
//! kind codes decodes to the same message, and a code past them is a
//! typed decode error.

use ccindex_wire::{ShardRequest, ShardResponse};
use mmdb::plan::{GroupStep, JoinStep, Plan, Probe, ProbeStep, Side};
use mmdb::{AggFn, ExecOptions, MmdbError, TransportFault, Value};

/// The offset of the kind slot that follows the first `name` string in
/// `bytes` (a length-prefixed name is followed directly by its slot).
fn slot_after(bytes: &[u8], name: &str) -> usize {
    let at = bytes
        .windows(name.len())
        .position(|w| w == name.as_bytes())
        .unwrap_or_else(|| panic!("`{name}` is not in the frame"));
    at + name.len()
}

/// `encoded`'s slots hold `05`; with any kind code in one of them it
/// decodes to `want`, and with a code of 8 or more it is a typed decode
/// error.
fn assert_slots<T: PartialEq + std::fmt::Debug>(
    encoded: &[u8],
    slots: &[usize],
    decode: impl Fn(&[u8]) -> mmdb::Result<T>,
    want: &T,
) {
    for &slot in slots {
        assert_eq!(encoded[slot], 5, "slot at {slot} of {encoded:02x?}");
        let mut bytes = encoded.to_vec();
        for code in 0..=7u8 {
            bytes[slot] = code;
            assert_eq!(decode(&bytes).as_ref(), Ok(want), "code {code}");
        }
        for code in [8u8, 9, 0xff] {
            bytes[slot] = code;
            let err = decode(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    MmdbError::Transport {
                        fault: TransportFault::Decode,
                        ..
                    }
                ),
                "code {code}: {err:?}"
            );
        }
    }
}

#[test]
fn kind_slots_are_written_as_full_css_and_read_as_any_kind() {
    let request = |bytes: &[u8]| ShardRequest::decode(bytes, "peer");
    let select = ShardRequest::Select {
        table: "sales".into(),
        probes: vec![
            ("pcol".into(), Probe::Point(Value::Int(7))),
            ("rcol".into(), Probe::Range(Value::Int(1), "z".into())),
        ],
        exec: ExecOptions::default(),
    };
    let bytes = select.encode();
    let slots = [slot_after(&bytes, "pcol"), slot_after(&bytes, "rcol")];
    assert_slots(&bytes, &slots, request, &select);

    let join = ShardRequest::JoinProbeBatch {
        table: "customers".into(),
        column: "jcol".into(),
        values: vec![Value::Int(3), "w".into()],
        lanes: 8,
        threads: 2,
    };
    let bytes = join.encode();
    assert_slots(&bytes, &[slot_after(&bytes, "jcol")], request, &join);

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
    let slots = ["pcol", "rcol", "icol"].map(|name| slot_after(&bytes, name));
    let response = |bytes: &[u8]| ShardResponse::decode(bytes, "peer");
    assert_slots(&bytes, &slots, response, &plan);
}
