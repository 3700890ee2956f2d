//! Seal-then-retire metadata files: `<prefix><epoch>` text files closed by a
//! `crc <8 hex digits>` footer line over every byte before it.
//!
//! Every rewrite goes to a **fresh** epoch file and only then retires its
//! predecessor, so a crash at any storage-operation boundary leaves at least
//! one intact file; readers adopt the newest epoch that validates. (In-place
//! truncate-and-rewrite has a window where the only copy is empty, which the
//! crash-point matrix found immediately.) The per-shard manifest
//! (`MANIFEST-`) and the sharding topology (`SHARDING-`) are both kept this
//! way; the commit-marker log follows a different rule (a union of
//! append-only generations) and has its own code.

use lsm_io::Storage;

use crate::wal::crc32;
use crate::{Error, Result};

/// File name of `epoch` under `prefix`.
pub(crate) fn name(prefix: &str, epoch: u64) -> String {
    format!("{prefix}{epoch:06}")
}

/// Seal `body` as `<prefix><epoch>` — create, append body + footer, sync —
/// and only then retire `<prefix><epoch - 1>`. An error means the seal may
/// or may not have reached the store; the predecessor is still there.
pub(crate) fn write_sealed(
    storage: &dyn Storage,
    prefix: &str,
    epoch: u64,
    mut body: String,
) -> Result<()> {
    body.push_str(&format!("crc {:08x}\n", crc32(body.as_bytes())));
    let mut f = storage.create(&name(prefix, epoch))?;
    f.append(body.as_bytes())?;
    f.sync()?;
    if epoch > 1 {
        let _ = storage.remove(&name(prefix, epoch - 1));
    }
    Ok(())
}

/// Whether the final line of `text` is a footer matching every byte before
/// it.
fn is_sealed(text: &str) -> bool {
    let footer = text
        .rfind("crc ")
        .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n');
    footer.is_some_and(|i| {
        u32::from_str_radix(text[i + 4..].trim_end(), 16) == Ok(crc32(&text.as_bytes()[..i]))
    })
}

/// The newest `<prefix><epoch>` file that validates, as `(epoch, text)`
/// (footer included). Torn or unsealed files — a crash mid-write — are
/// skipped in favour of an older epoch; `None` means no sealed file exists
/// (and no unsealed pre-epoch one: see [`refuse_unsealed`]). Whether the
/// text's own contents agree with `epoch` is the caller's check.
pub(crate) fn newest_valid(storage: &dyn Storage, prefix: &str) -> Result<Option<(u64, String)>> {
    let mut epochs: Vec<u64> = storage
        .list()?
        .into_iter()
        .filter_map(|n| n.strip_prefix(prefix)?.parse().ok())
        .collect();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    for epoch in epochs {
        let raw = lsm_io::read_all(storage, &name(prefix, epoch))?;
        match String::from_utf8(raw) {
            Ok(text) if is_sealed(&text) => return Ok(Some((epoch, text))),
            _ => {} // torn or unsealed: fall back to an older epoch
        }
    }
    refuse_unsealed(storage, prefix)?;
    Ok(None)
}

/// `prefix` without its dash (`MANIFEST`, `SHARDING`, `COMMIT`) names the
/// pre-epoch, unsealed form of the file, which nothing reads any more. With
/// no epoch file to adopt, its presence is a typed error — never "no file",
/// which an open takes for a fresh database and sweeps the directory.
pub(crate) fn refuse_unsealed(storage: &dyn Storage, prefix: &str) -> Result<()> {
    let stem = prefix.trim_end_matches('-');
    if storage.exists(stem) {
        return Err(Error::Corruption(format!(
            "{stem} is an unsealed pre-epoch file this build does not read, \
             and no {prefix}<n> validates"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_io::MemStorage;

    const PREFIX: &str = "META-";

    fn put(storage: &MemStorage, name: &str, bytes: &[u8]) {
        storage.create(name).unwrap().append(bytes).unwrap();
    }

    #[test]
    fn newest_valid_epoch_wins_and_predecessor_is_retired() {
        let storage = MemStorage::new();
        assert_eq!(newest_valid(&storage, PREFIX).unwrap(), None);
        write_sealed(&storage, PREFIX, 1, "one\n".into()).unwrap();
        write_sealed(&storage, PREFIX, 2, "two\n".into()).unwrap();
        assert!(!storage.exists(&name(PREFIX, 1)), "sealing 2 retires 1");
        write_sealed(&storage, PREFIX, 4, "four\n".into()).unwrap();
        assert!(
            storage.exists(&name(PREFIX, 2)),
            "only epoch - 1 is retired"
        );
        let (epoch, text) = newest_valid(&storage, PREFIX).unwrap().unwrap();
        assert_eq!(epoch, 4);
        assert_eq!(text, format!("four\ncrc {:08x}\n", crc32(b"four\n")));
    }

    #[test]
    fn torn_footer_adopts_the_previous_epoch() {
        let storage = MemStorage::new();
        write_sealed(&storage, PREFIX, 1, "one\n".into()).unwrap();
        let sealed = lsm_io::read_all(&storage, &name(PREFIX, 1)).unwrap();
        // Every prefix that stops short of the last CRC digit is a possible
        // torn write (the trailing newline alone carries nothing).
        for cut in 0..sealed.len() - 1 {
            put(&storage, &name(PREFIX, 2), &sealed[..cut]);
            let (epoch, _) = newest_valid(&storage, PREFIX).unwrap().unwrap();
            assert_eq!(epoch, 1, "prefix of {cut} bytes must not validate");
        }
        // A body edited under an intact footer fails the CRC too.
        let mut edited = sealed.clone();
        edited[0] ^= 0x20;
        put(&storage, &name(PREFIX, 2), &edited);
        assert_eq!(newest_valid(&storage, PREFIX).unwrap().unwrap().0, 1);
        put(&storage, &name(PREFIX, 2), &sealed);
        assert_eq!(newest_valid(&storage, PREFIX).unwrap().unwrap().0, 2);
    }

    #[test]
    fn non_utf8_garbage_and_foreign_names_are_skipped() {
        let storage = MemStorage::new();
        write_sealed(&storage, PREFIX, 3, "three\n".into()).unwrap();
        put(&storage, &name(PREFIX, 9), b"\xff\xfe\x00crc 00000000\n");
        put(&storage, "META", b"legacy, unsealed");
        put(&storage, "META-.model", b"not an epoch");
        assert_eq!(newest_valid(&storage, PREFIX).unwrap().unwrap().0, 3);
    }

    #[test]
    fn epoch_named_inside_the_text_is_the_callers_check() {
        let storage = MemStorage::new();
        write_sealed(&storage, PREFIX, 7, "epoch 6\n".into()).unwrap();
        let (epoch, text) = newest_valid(&storage, PREFIX).unwrap().unwrap();
        assert_eq!((epoch, text.starts_with("epoch 6\n")), (7, true));
    }
}
