//! Since protocol v4 there are no kind slots. Protocol v3 kept a byte
//! where an index kind used to travel after a `JoinProbeBatch` column
//! (and in the `Plan` reply v6 retired), written as `FullCss`'s code
//! and dropped on read. No probe carries a kind, so v4 and later write
//! that column name followed directly by its next field.

use ccindex_wire::ShardRequest;
use mmdb::Value;

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
}
