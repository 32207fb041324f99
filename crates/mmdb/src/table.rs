//! Columnar tables.

use crate::column::Column;
use crate::domain::Value;
use crate::error::{MmdbError, Result};

/// A named, columnar, domain-encoded table. Two tables are equal when
/// their names, column names and encoded columns are.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    rows: usize,
}

/// Builder encoding each column as it is added, so no raw copy of a
/// column outlives its encode. [`TableBuilder::int_column`] collects its
/// `i64`s once, 8 B a row; [`TableBuilder::column`] reads its `Value`s
/// once ([`Column::from_values`]). An integer column's encode then reads
/// its `i64`s at most three times (bounds, presence bits, ranks).
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, Column)>,
}

impl TableBuilder {
    /// Start a table.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Encode and add a column ([`Column::from_values`]; all columns must
    /// have equal length at `build`).
    pub fn column(self, name: impl Into<String>, values: Vec<Value>) -> Self {
        self.encoded(name, Column::from_values(values))
    }

    /// Convenience: an integer column, encoded from its `i64`s.
    pub fn int_column(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = i64>,
    ) -> Self {
        let ints: Vec<i64> = values.into_iter().collect();
        self.encoded(name, Column::from_ints(&ints))
    }

    /// Convenience: a string column.
    pub fn str_column<S: Into<String>>(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        self.column(
            name,
            values.into_iter().map(|s| Value::Str(s.into())).collect(),
        )
    }

    fn encoded(mut self, name: impl Into<String>, column: Column) -> Self {
        self.columns.push((name.into(), column));
        self
    }

    /// Produce the table ([`Table::from_parts`]). Fails with
    /// [`MmdbError::DuplicateColumn`] when two columns share a name, and
    /// with [`MmdbError::RaggedColumn`] — naming the table and the first
    /// offending column — when column lengths disagree.
    pub fn build(self) -> Result<Table> {
        Table::from_parts(self.name, self.columns)
    }
}

impl Table {
    /// Assemble a table from already-encoded columns: the storage open
    /// path, or a column built by [`Column::from_parts`] over a domain
    /// wider than its rows. Fails with [`MmdbError::DuplicateColumn`]
    /// when two columns share a name, and with
    /// [`MmdbError::RaggedColumn`] — naming the table and the first
    /// offending column — when column lengths disagree.
    pub fn from_parts(name: impl Into<String>, columns: Vec<(String, Column)>) -> Result<Table> {
        let name = name.into();
        let mut seen = std::collections::BTreeSet::new();
        if let Some((column, _)) = columns.iter().find(|(n, _)| !seen.insert(n)) {
            return Err(MmdbError::DuplicateColumn {
                table: name,
                column: column.clone(),
            });
        }
        let rows = columns.first().map_or(0, |(_, c)| c.len());
        if let Some((column, c)) = columns.iter().find(|(_, c)| c.len() != rows) {
            return Err(MmdbError::RaggedColumn {
                table: name,
                column: column.clone(),
                expected: rows,
                got: c.len(),
            });
        }
        Ok(Self {
            name,
            columns,
            rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Column by name, or [`MmdbError::UnknownColumn`] naming this table
    /// and the column.
    pub fn try_column(&self, name: &str) -> Result<&Column> {
        self.column(name).ok_or_else(|| MmdbError::UnknownColumn {
            table: self.name.clone(),
            column: name.to_owned(),
        })
    }

    /// All `(name, column)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Decoded value at `(column, rid)`.
    pub fn value(&self, column: &str, rid: u32) -> Option<Value> {
        self.column(column).map(|c| c.value(rid))
    }

    /// Replace a column wholesale (batch-update path); the new column must
    /// have the same row count.
    pub fn replace_column(&mut self, name: &str, column: Column) {
        assert_eq!(column.len(), self.rows, "row count mismatch");
        let slot = self
            .columns
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no column named {name}"));
        slot.1 = column;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Table {
        TableBuilder::new("sales")
            .int_column("amount", [30, 10, 20, 10])
            .str_column("region", ["east", "west", "east", "north"])
            .build()
            .expect("equal-length columns")
    }

    #[test]
    fn builder_roundtrip() {
        let t = sales();
        assert_eq!(t.name(), "sales");
        assert_eq!(t.rows(), 4);
        assert_eq!(t.value("amount", 0), Some(Value::Int(30)));
        assert_eq!(t.value("region", 3), Some(Value::Str("north".into())));
        assert!(t.column("missing").is_none());
        assert_eq!(t.columns().count(), 2);
    }

    #[test]
    fn domains_are_per_column() {
        let t = sales();
        assert_eq!(t.column("amount").unwrap().domain().len(), 3);
        assert_eq!(t.column("region").unwrap().domain().len(), 3);
    }

    #[test]
    fn rejects_ragged_columns_with_named_error() {
        let err = TableBuilder::new("bad")
            .int_column("a", [1, 2])
            .int_column("b", [1])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            MmdbError::RaggedColumn {
                table: "bad".into(),
                column: "b".into(),
                expected: 2,
                got: 1,
            }
        );
        assert!(err.to_string().contains("bad"));
        assert!(err.to_string().contains('b'));
    }

    #[test]
    fn rejects_duplicate_column_names_with_named_error() {
        let dup = || TableBuilder::new("t").int_column("a", [1, 2, 3]);
        let err = dup().int_column("a", [7, 8, 9]).build().unwrap_err();
        let want = MmdbError::DuplicateColumn {
            table: "t".into(),
            column: "a".into(),
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("`a`"), "{err}");
        // The name check comes first, whatever else is wrong, and holds
        // for already-encoded columns too.
        let ragged = dup().int_column("b", [1]).int_column("a", [1]).build();
        assert_eq!(ragged.unwrap_err(), want);
        let col = Column::from_values(&[Value::Int(1)]);
        let parts = vec![("a".to_owned(), col.clone()), ("a".to_owned(), col)];
        assert_eq!(Table::from_parts("t", parts).unwrap_err(), want);
    }

    #[test]
    fn empty_table() {
        let t = TableBuilder::new("empty").build().expect("no columns");
        assert_eq!(t.rows(), 0);
        assert_eq!(t.columns().count(), 0);
    }
}
