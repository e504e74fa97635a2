//! The library outside the simulator: real OS threads gossiping sibling
//! stores over `std::sync::mpsc` channels.
//!
//! Everything else in this workspace runs on deterministic virtual time;
//! this example shows the same data-plane types (`SiblingStore`, dotted
//! version vectors) driving a live multi-threaded anti-entropy loop, with
//! a `Mutex` guarding each replica's store.
//!
//! ```sh
//! cargo run --example threaded_gossip
//! ```

use rethinking_ec::kvstore::{siblings::Sibling, Key, SiblingStore, Value};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

const REPLICAS: usize = 4;
const KEYS: u64 = 8;
const WRITES_PER_REPLICA: u64 = 50;

type GossipMsg = Vec<(Key, Sibling)>;

fn main() {
    // One store per replica, one inbox per replica.
    let stores: Vec<Arc<Mutex<SiblingStore>>> =
        (0..REPLICAS).map(|r| Arc::new(Mutex::new(SiblingStore::new(r as u64)))).collect();
    let channels: Vec<(Sender<GossipMsg>, Receiver<GossipMsg>)> =
        (0..REPLICAS).map(|_| channel()).collect();
    let senders: Vec<Sender<GossipMsg>> = channels.iter().map(|(s, _)| s.clone()).collect();

    let mut handles = Vec::new();
    for (r, (_, rx)) in channels.into_iter().enumerate() {
        let store = stores[r].clone();
        let peers: Vec<Sender<GossipMsg>> =
            senders.iter().enumerate().filter(|(i, _)| *i != r).map(|(_, s)| s.clone()).collect();
        handles.push(thread::spawn(move || {
            // Phase 1: local writes. Each write quotes the replica's own
            // causal context, so a replica's successive writes supersede
            // its earlier ones — leaving exactly one sibling per replica
            // per key (cross-replica writes stay concurrent).
            for i in 0..WRITES_PER_REPLICA {
                let key = i % KEYS;
                let value = Value::from_u64((r as u64) << 32 | i);
                let mut s = store.lock().expect("no thread panics holding a store lock");
                let ctx = s.read(key).context;
                s.write(key, value, &ctx, i);
            }
            // Phase 2: gossip rounds — push all local siblings, drain inbox.
            for _round in 0..40 {
                let outgoing: GossipMsg = {
                    let s = store.lock().expect("no thread panics holding a store lock");
                    s.keys()
                        .flat_map(|k| s.siblings(k).iter().cloned().map(move |sib| (k, sib)))
                        .collect()
                };
                for p in &peers {
                    let _ = p.send(outgoing.clone());
                }
                thread::sleep(Duration::from_millis(2));
                while let Ok(batch) = rx.try_recv() {
                    let mut s = store.lock().expect("no thread panics holding a store lock");
                    for (k, sib) in batch {
                        s.apply_remote(k, sib);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("replica thread panicked");
    }

    // Convergence check across all replicas.
    let first = stores[0].lock().expect("no thread panics holding a store lock");
    let mut converged = true;
    for other in &stores[1..] {
        if !first.same_siblings(&other.lock().expect("no thread panics holding a store lock")) {
            converged = false;
        }
    }
    println!(
        "{} replicas, {} keys, {} writes each → {} sibling sets, converged: {}",
        REPLICAS,
        KEYS,
        WRITES_PER_REPLICA,
        first.sibling_count(),
        converged
    );
    assert!(converged, "anti-entropy must converge all replicas");
    // Every key holds one sibling per writing replica (blind writes with
    // unique dots never supersede each other).
    for k in 0..KEYS {
        let n = first.siblings(k).len();
        assert_eq!(n, REPLICAS, "key {k}: expected {REPLICAS} siblings, got {n}");
    }
    println!("every key carries {REPLICAS} concurrent siblings — one per replica, none lost.");
}
