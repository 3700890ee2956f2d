//! The scan and compaction path end to end: a corrupt entry surfaces as a
//! typed error exactly where it lies, and the merge keeps writing the bytes
//! it always wrote.

use std::sync::Arc;

use lsm_io::{read_all, MemStorage, Storage};
use lsm_tree::{Db, Error, Maintenance, Options, WriteBatch, WriteOptions};

const VALUE_WIDTH: usize = 32;
/// On-disk entry: 24-byte key slot, kind, 7-byte seq, 4-byte length, value.
const ENTRY_WIDTH: usize = 36 + VALUE_WIDTH;

fn value_of(key: u64) -> Vec<u8> {
    vec![key as u8; 1 + (key % VALUE_WIDTH as u64) as usize]
}

/// One L0 table holding keys `0, 3, 6, ..` in order, with entry `bad`
/// overwritten by `damage`, behind a freshly opened `Db`.
fn db_with_damaged_entry(bad: usize, damage: fn(&mut [u8])) -> Db {
    let storage = Arc::new(MemStorage::new());
    let opts = Options {
        write_buffer_bytes: 1 << 20,
        value_width: VALUE_WIDTH,
        ..Options::small_for_tests()
    };
    let db = Db::open(storage.clone(), opts.clone()).unwrap();
    for key in (0..1_500u64).step_by(3) {
        db.put(key, &value_of(key)).unwrap();
    }
    db.flush().unwrap();
    drop(db);
    let tables: Vec<String> = storage.list().unwrap();
    let tables: Vec<&String> = tables.iter().filter(|n| n.ends_with(".sst")).collect();
    assert_eq!(tables.len(), 1, "one flush, one table");
    let mut bytes = read_all(storage.as_ref(), tables[0]).unwrap();
    damage(&mut bytes[bad * ENTRY_WIDTH..(bad + 1) * ENTRY_WIDTH]);
    storage.create(tables[0]).unwrap().append(&bytes).unwrap();
    Db::open(storage, opts).unwrap()
}

fn corrupt<T>(result: lsm_tree::Result<T>) -> bool {
    matches!(result, Err(Error::Corruption(_)))
}

/// A bad kind tag or an oversize value length mid-file: every pair before
/// the entry reads right, and the read that reaches it — `next`, a `scan`
/// across it, a `get` of its key — is `Error::Corruption`, never a panic
/// and never a wrong pair.
#[test]
fn damaged_entry_is_corruption_where_it_lies() {
    type Damage = fn(&mut [u8]);
    let damages: [(&str, Damage); 2] = [
        ("kind", |entry| entry[24] = 9),
        ("vlen", |entry| {
            entry[32..36].copy_from_slice(&200u32.to_le_bytes())
        }),
    ];
    for (what, damage) in damages {
        // Entries 30 and 31 share the first block edge; 217 is mid-chunk.
        for bad in [0usize, 30, 217, 499] {
            let db = db_with_damaged_entry(bad, damage);
            let mut it = db.iter().unwrap();
            it.seek_to_first();
            for i in 0..bad as u64 {
                let pair = it.next().unwrap();
                assert_eq!(pair, Some((i * 3, value_of(i * 3))), "{what} at {bad}");
            }
            assert!(corrupt(it.next()), "{what} at {bad}: next");
            assert!(corrupt(db.scan(0, 1_000)), "{what} at {bad}: scan");
            assert!(
                corrupt(db.scan(bad as u64 * 3, 1)),
                "{what} at {bad}: scan from it"
            );
            assert!(corrupt(db.get(bad as u64 * 3)), "{what} at {bad}: get");
            if bad > 0 {
                let before = db.scan(0, bad).unwrap();
                assert_eq!(before.len(), bad, "{what} at {bad}: scan that stops short");
            }
            let after = db.scan(bad as u64 * 3 + 1, 1_000).unwrap();
            assert_eq!(
                after.len(),
                499 - bad,
                "{what} at {bad}: scan that starts past it"
            );
        }
    }
}

/// The number of table files and the CRC of their names and bytes, in name
/// order.
fn table_files_crc(storage: &MemStorage) -> (usize, u32) {
    let mut names: Vec<String> = storage.list().unwrap();
    names.retain(|n| n.ends_with(".sst"));
    names.sort();
    let mut all = Vec::new();
    for name in &names {
        all.extend_from_slice(name.as_bytes());
        all.extend(read_all(storage, name).unwrap());
    }
    (names.len(), lsm_tree::wal::crc32(&all))
}

/// One deterministic load — overwrites, deletes, 24 flushes and the
/// compactions they trigger — leaves exactly the table files it left before
/// the merge read keys instead of entries: same merge order, same
/// retention, same rotation points, byte for byte.
#[test]
#[allow(clippy::manual_is_multiple_of)] // the MSRV (1.82) predates `u64::is_multiple_of`
fn compaction_outputs_are_byte_identical() {
    let storage = Arc::new(MemStorage::new());
    let opts = Options {
        value_width: VALUE_WIDTH,
        ..Options::small_for_tests()
    };
    let db = Db::open(storage.clone(), opts).unwrap();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..24u64 {
        let mut batch = WriteBatch::new();
        for _ in 0..250 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 3_000;
            if x % 11 == 0 {
                batch.delete(key);
            } else {
                batch.put(key, &value_of(key ^ round));
            }
        }
        db.write(batch, &WriteOptions::default()).unwrap();
        db.flush().unwrap();
    }
    assert!(db.stats().snapshot().compactions >= 5);
    drop(db);
    let golden = (GOLDEN_LEVELING_FILES, GOLDEN_LEVELING_CRC);
    assert_eq!(table_files_crc(&storage), golden);
}

/// One flush, whichever mode runs it: the same batches — overwrites,
/// deletes, several versions of a key — flushed inline and by the background
/// worker leave a byte-identical first L0 table.
#[test]
fn flush_writes_the_same_table_in_either_mode() {
    let first_table = |maintenance: Maintenance| -> Vec<u8> {
        let storage = Arc::new(MemStorage::new());
        let opts = Options {
            value_width: VALUE_WIDTH,
            maintenance,
            ..Options::small_for_tests()
        };
        let db = Db::open(storage.clone(), opts).unwrap();
        db.pause_compactions();
        for round in 0..5u64 {
            let mut batch = WriteBatch::new();
            for i in 0..60u64 {
                let key = i * 7 % 90;
                match (i + round) % 5 {
                    0 => batch.delete(key),
                    _ => batch.put(key, &value_of(key + round)),
                };
            }
            db.write(batch, &WriteOptions::default()).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats().snapshot().flushes, 1, "{maintenance:?}");
        let mut names: Vec<String> = storage.list().unwrap();
        names.retain(|n| n.ends_with(".sst"));
        assert_eq!(names.len(), 1, "{maintenance:?}: {names:?}");
        read_all(storage.as_ref(), &names[0]).unwrap()
    };
    let inline = first_table(Maintenance::Synchronous);
    assert!(inline.len() > 60 * ENTRY_WIDTH, "{} bytes", inline.len());
    assert_eq!(first_table(Maintenance::background()), inline);
}

// Recorded at the parent of the change that introduced the cursor merge
// (PR 13's `MergeIter` over `Vec<Entry>` chunks), from this same test.
const GOLDEN_LEVELING_FILES: usize = 27;
const GOLDEN_LEVELING_CRC: u32 = 1_937_225_261;

/// The benchmark's `ingest-scan` load at 1/16 scale — 9 472 `books` keys in
/// a seeded shuffle, 32-entry batches of 100-byte values, 64 KiB buffer,
/// 32 KiB tables, PGM at boundary 64, WAL on — rotates, flushes and
/// compacts where it did when a write-buffer node was a `Box` holding a
/// `Vec`: the buffer's size is the logical count (36 B + value a record),
/// not what the arena holds, so every file on the device has the same name
/// and size.
#[test]
fn ingest_scan_load_rotates_where_it_always_did() {
    use learned_index::IndexKind;
    use lsm_tree::IndexChoice;
    use lsm_workloads::{value_for_key, Dataset};
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    let keys = Dataset::Books.generate(148 * 1024 / 16, 42);
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(42));
    let storage = Arc::new(MemStorage::new());
    let opts = Options {
        write_buffer_bytes: 64 << 10,
        sstable_target_bytes: 32 << 10,
        value_width: 100,
        bloom_bits_per_key: 10,
        index: IndexChoice::with_boundary(IndexKind::Pgm, 64),
        block_cache_bytes: 128 << 10,
        maintenance: Maintenance::Synchronous,
        ..Options::default()
    };
    let db = Db::open(storage.clone(), opts).unwrap();
    for chunk in order.chunks(32) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for &pos in chunk {
            batch.put(keys[pos], &value_for_key(keys[pos], 100));
        }
        db.write(batch, &WriteOptions::default()).unwrap();
    }
    let stats = db.stats().snapshot();
    let mut names = storage.list().unwrap();
    names.sort();
    let files: Vec<String> = names
        .iter()
        .map(|name| format!("{name}={}", storage.size_of(name).unwrap()))
        .collect();
    assert_eq!((stats.flushes, stats.compactions), (18, 19));
    assert_eq!(files.join(" "), GOLDEN_INGEST_FILES);
}

// Recorded at the parent of the change that moved the write buffer's nodes
// into an arena (PR 23), from this same test.
const GOLDEN_INGEST_FILES: &str = "\
    000078.sst=33213 000079.sst=33213 000092.sst=33213 000102.sst=33213 000103.sst=33213 \
    000104.sst=33213 000105.sst=33213 000106.sst=33213 000107.sst=33213 000108.sst=33213 \
    000109.sst=33213 000110.sst=33213 000111.sst=33213 000112.sst=33213 000113.sst=33213 \
    000114.sst=33213 000115.sst=33213 000116.sst=33213 000117.sst=33213 000118.sst=33213 \
    000119.sst=33001 000120.sst=33213 000121.sst=33213 000122.sst=33213 000123.sst=33213 \
    000124.sst=33213 000125.sst=33213 000126.sst=33213 000127.sst=33213 000128.sst=33213 \
    000129.sst=33213 000130.sst=33213 000131.sst=33213 000132.sst=33213 000134.sst=70521 \
    000135.wal=29096 000136.sst=70521 MANIFEST-000056=726";
