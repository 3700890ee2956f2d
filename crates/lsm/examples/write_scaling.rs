//! Scaling probe (dev aid, not a bench): raw skiplist insert throughput by
//! thread count, then group-commit fusion stats for durable writes on the
//! simulated device.

use std::sync::Arc;
use std::time::Instant;

use lsm_tree::skiplist::SkipList;
use lsm_tree::types::{EntryKind, InternalKey};
use lsm_tree::{Db, Maintenance, Options, WriteBatch, WriteOptions};

fn run_list(threads: usize, total: u64) -> f64 {
    let list = Arc::new(SkipList::new());
    let per = total / threads as u64;
    let t0 = Instant::now();
    let hs: Vec<_> = (0..threads)
        .map(|t| {
            let l = Arc::clone(&list);
            std::thread::spawn(move || {
                let base = t as u64 * per;
                for i in 0..per {
                    let k = base + i;
                    l.insert_quiet(
                        InternalKey {
                            user_key: k,
                            seq: k + 1,
                            kind: EntryKind::Put,
                        },
                        &[7u8; 64],
                    );
                }
                l.add_stats(per as usize, per as usize * 100);
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn run_db(threads: usize) {
    const BATCH: usize = 32;
    const TOTAL_BATCHES: usize = 2_048;
    let o = Options {
        value_width: 64,
        write_buffer_bytes: 256 << 20,
        maintenance: Maintenance::Background,
        ..Options::default()
    };
    let db = Arc::new(Db::open_sim(o, lsm_io::CostModel::with_sync_latency(100_000)).unwrap());
    let before_io = db.storage().stats().snapshot();
    let per_thread = TOTAL_BATCHES / threads;
    let t0 = Instant::now();
    let hs: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let wopts = WriteOptions::durable();
                for r in 0..per_thread {
                    let mut batch = WriteBatch::with_capacity(BATCH);
                    let base = ((t * per_thread + r) * BATCH) as u64;
                    for i in 0..BATCH as u64 {
                        batch.put(base + i, &(base + i).to_le_bytes());
                    }
                    db.write(batch, &wopts).unwrap();
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    let wall = t0.elapsed().as_nanos() as u64;
    let io = db
        .storage()
        .stats()
        .snapshot()
        .since(&before_io)
        .sim_total_ns();
    let s = db.stats().snapshot();
    println!(
        "db threads={threads}: wall {:.2} ms, io {:.2} ms, combined {:.2} ms; groups {} / batches {}, syncs {}, appends {}",
        wall as f64 / 1e6,
        io as f64 / 1e6,
        (wall + io) as f64 / 1e6,
        s.write_groups,
        s.write_batches,
        s.wal_syncs,
        s.wal_appends,
    );
}

fn main() {
    let total = 262_144u64;
    for t in [1usize, 2, 4] {
        let mut best = f64::MAX;
        for _ in 0..3 {
            best = best.min(run_list(t, total));
        }
        println!(
            "list threads={} best={:.2} ms ({:.0} ns/insert)",
            t,
            best,
            best * 1e6 / total as f64
        );
    }
    for t in [1usize, 2, 4] {
        run_db(t);
    }
}
