//! The README's batched-join example, kept compiling and correct.

use ccindex::prelude::*;

#[test]
fn readme_batched_join_example() {
    let orders = TableBuilder::new("orders")
        .int_column("cust", [5i64, 1, 2, 5, 9])
        .build()
        .unwrap();
    let customers = TableBuilder::new("customers")
        .int_column("id", [1i64, 2, 3, 5, 5])
        .build()
        .unwrap();

    let cust_id = customers.column("id").unwrap();
    let cust_rids = RidList::for_column(cust_id);

    // The outer side is a RID stream (here every order row, in RID order);
    // the last two arguments are the interleave lanes and worker threads.
    let every_order: Vec<u32> = (0..orders.rows() as u32).collect();
    let joined = indexed_nested_loop_join(
        orders.column("cust").unwrap(),
        &every_order,
        cust_id,
        &cust_rids,
        DEFAULT_BATCH_LANES,
        1,
    );
    assert_eq!(joined.len(), 6); // each 5 matches two customer rows; 1 and 2 one each; 9 none
}
