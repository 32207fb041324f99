//! The decision-support schema `engine-mix` and `dss-tcp` share: the
//! select ⋈ join ⋈ group-by star shape of "Multidimensional or
//! Relational?" (PAPERS.md) — an `orders` fact table and a `customers`
//! dimension — and the five query shapes run over it.

use crate::harness::{fail, Config, Rng};
use ccindex::prelude::*;

pub const REGIONS: [&str; 4] = ["north", "south", "east", "west"];
/// `orders.amount` is uniform in `[0, AMOUNTS)`.
pub const AMOUNTS: i64 = 10_000;

/// Raw column values, generated from the seed before any clock starts.
pub struct Rows {
    pub key: Vec<i64>,
    pub cust: Vec<i64>,
    pub amount: Vec<i64>,
    pub customers: usize,
}

impl Rows {
    /// `orders` rows: `key` uniform in `[0, 2n)` (so about half of all
    /// probes into that range hit), `cust` in `[0, customers)`, `amount`
    /// in `[0, AMOUNTS)`.
    pub fn generate(cfg: &Config, orders: usize, customers: usize) -> Rows {
        let mut rng = Rng::new(cfg.seed, 100);
        let mut column =
            |range: u64| -> Vec<i64> { (0..orders).map(|_| rng.below(range) as i64).collect() };
        Rows {
            key: column(2 * orders as u64),
            cust: column(customers as u64),
            amount: column(AMOUNTS as u64),
            customers,
        }
    }

    pub fn orders(&self) -> usize {
        self.key.len()
    }

    /// Bytes of user data in both tables (8 per integer, the region
    /// strings as written) — the numerator of bytes-per-second figures.
    pub fn user_bytes(&self) -> usize {
        let regions: usize = (0..self.customers).map(|i| REGIONS[i % 4].len()).sum();
        self.orders() * 3 * 8 + self.customers * 8 + regions
    }

    /// Domain-encode the rows into the program's tables. This is a call
    /// into the program (sort + dedup per column), so set-up times it.
    pub fn tables(&self) -> Result<(Table, Table), String> {
        let orders = TableBuilder::new("orders")
            .int_column("key", self.key.iter().copied())
            .int_column("cust", self.cust.iter().copied())
            .int_column("amount", self.amount.iter().copied())
            .build()
            .map_err(fail("orders table"))?;
        let customers = TableBuilder::new("customers")
            .int_column("id", 0..self.customers as i64)
            .str_column("region", (0..self.customers).map(|i| REGIONS[i % 4]))
            .build()
            .map_err(fail("customers table"))?;
        Ok((orders, customers))
    }

    /// Both tables in an unsharded in-process catalog with a FullCss index
    /// on each of `indexes` — `engine-mix`'s engine, and `dss-tcp`'s
    /// reference and bottom rung.
    pub fn database(&self, indexes: &[(&str, &str)]) -> Result<Database, String> {
        let (orders, customers) = self.tables()?;
        let mut db = Database::new();
        db.set_exec_options(Config::EXEC);
        db.register(orders).map_err(fail("register orders"))?;
        db.register(customers).map_err(fail("register customers"))?;
        for (table, column) in indexes {
            db.create_index(table, column, IndexKind::FullCss)
                .map_err(fail("create_index"))?;
        }
        Ok(db)
    }
}

/// One composed query. Parameters are drawn from the seed; the shapes are
/// fixed.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `eq(cust)`
    Point { cust: i64 },
    /// `between(cust, lo, hi)`
    Range { lo: i64, hi: i64 },
    /// `eq(cust) ∧ between(amount, lo, hi)`
    Select { cust: i64, lo: i64, hi: i64 },
    /// `between(amount, lo, hi) ⋈ customers`
    Join { lo: i64, hi: i64 },
    /// `between(amount, lo, hi) ⋈ customers group by region, sum(amount)`
    Group { lo: i64, hi: i64 },
}

/// Build `shape` on any catalog with the query-builder surface
/// (`Database`, a snapshot, `ShardedDatabase` — they share method names,
/// not a trait); the caller finishes with `.run()` or `.plan()`.
macro_rules! build_query {
    ($cat:expr, $shape:expr) => {
        match $shape {
            Shape::Point { cust } => $cat.query("orders").filter(eq("cust", *cust)),
            Shape::Range { lo, hi } => $cat.query("orders").filter(between("cust", *lo, *hi)),
            Shape::Select { cust, lo, hi } => $cat
                .query("orders")
                .filter(eq("cust", *cust))
                .filter(between("amount", *lo, *hi)),
            Shape::Join { lo, hi } => $cat
                .query("orders")
                .filter(between("amount", *lo, *hi))
                .join("customers", on("cust", "id")),
            Shape::Group { lo, hi } => $cat
                .query("orders")
                .filter(between("amount", *lo, *hi))
                .join("customers", on("cust", "id"))
                .group_by("region", sum("amount")),
        }
    };
}
pub(crate) use build_query;

/// A band `[lo, lo + width]` of `amount`, uniformly placed.
pub fn amount_band(rng: &mut Rng, width: i64) -> (i64, i64) {
    let lo = rng.below((AMOUNTS - width) as u64) as i64;
    (lo, lo + width)
}

/// One turn of a weighted mix with the classes spread evenly through it:
/// each slot goes to the class furthest behind its share, so a stream of
/// whole turns has exactly the stated proportions and no long runs.
pub fn spread<T: Copy>(mix: &[(T, usize)]) -> Vec<T> {
    let total: usize = mix.iter().map(|&(_, n)| n).sum();
    let mut placed = vec![0usize; mix.len()];
    (1..=total)
        .map(|slot| {
            let (at, _) = mix
                .iter()
                .enumerate()
                .max_by_key(|&(i, &(_, n))| (n * slot) as isize - (placed[i] * total) as isize)
                .expect("the mix is not empty");
            placed[at] += 1;
            mix[at].0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_keeps_proportions_and_avoids_runs() {
        let turn = spread(&[('p', 70), ('r', 20), ('j', 7), ('g', 3)]);
        assert_eq!(turn.len(), 100);
        for (class, n) in [('p', 70), ('r', 20), ('j', 7), ('g', 3)] {
            assert_eq!(turn.iter().filter(|&&c| c == class).count(), n);
        }
        // The rare classes are spaced out, not bunched at one end.
        let groups: Vec<usize> = (0..100).filter(|&i| turn[i] == 'g').collect();
        assert!(groups.windows(2).all(|w| w[1] - w[0] > 25), "{groups:?}");
        assert_eq!(spread(&[(1, 1), (2, 1)]).len(), 2);
    }
}
