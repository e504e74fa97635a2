//! The tutorial's shopping cart, the Dynamo way: two devices edit the
//! same cart concurrently, a sibling store surfaces the conflict instead
//! of hiding it, and the application merges. `kvstore::SiblingStore` is
//! the store E6's sibling rows run.
//!
//! ```sh
//! cargo run --example shopping_cart
//! ```

use rethinking_ec::clocks::VersionVector;
use rethinking_ec::kvstore::{SiblingStore, Value};

fn main() {
    println!("— sibling store (Dynamo) —");
    let mut store_a = SiblingStore::new(0);
    let mut store_b = SiblingStore::new(1);
    const CART: u64 = 1;

    // Both devices write from the same (empty) causal context.
    store_a.write(CART, Value::from("beer,chips"), &VersionVector::new(), 0);
    store_b.write(CART, Value::from("beer,wine"), &VersionVector::new(), 0);

    // Anti-entropy exchanges the siblings.
    for s in store_b.siblings(CART).to_vec() {
        store_a.apply_remote(CART, s);
    }
    let read = store_a.read(CART);
    println!("  read returns {} siblings:", read.values.len());
    for v in &read.values {
        println!("    - {}", String::from_utf8_lossy(v.as_bytes()));
    }
    assert_eq!(read.values.len(), 2, "the conflict is visible, not hidden");

    // The app merges (union) and writes back with the read's context —
    // which supersedes both siblings.
    store_a.write(CART, Value::from("beer,chips,wine"), &read.context, 1);
    let after = store_a.read(CART);
    assert_eq!(after.values.len(), 1);
    println!(
        "  app-level merge wrote back: {}",
        String::from_utf8_lossy(after.values[0].as_bytes())
    );
}
