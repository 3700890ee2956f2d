//! Real-filesystem storage backed by `pread`/buffered appends.
//!
//! This is the backend to use when running the testbed against an actual
//! disk, mirroring the paper's use of the Linux `pread` interface. Counters
//! are still recorded (block counts use [`crate::DEFAULT_BLOCK_SIZE`]) but no
//! virtual time is charged — wall-clock time is the real thing here.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::{CostModel, IoStats, RandomAccessFile, Storage, WritableFile};

/// Named-file storage rooted at a directory on the local filesystem.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
    stats: IoStats,
    model: CostModel,
}

impl FileStorage {
    /// Open (creating if needed) a storage rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            stats: IoStats::new(),
            model: CostModel::free(),
        })
    }

    /// Root directory of this storage.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

struct OsFile {
    file: File,
    len: u64,
    stats: IoStats,
    model: CostModel,
}

impl RandomAccessFile for OsFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        #[cfg(unix)]
        let n = {
            use std::os::unix::fs::FileExt;
            // pread loop: FileExt::read_at may return short reads mid-file.
            let mut done = 0;
            while done < buf.len() {
                match self.file.read_at(&mut buf[done..], offset + done as u64) {
                    Ok(0) => break,
                    Ok(k) => done += k,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            done
        };
        #[cfg(not(unix))]
        let n = {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(offset))?;
            f.read(buf)?
        };
        let blocks = self.model.blocks_spanned(offset, n);
        self.stats.record_read(n as u64, blocks, 0);
        Ok(n)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

struct OsWriter {
    writer: BufWriter<File>,
    written: u64,
    stats: IoStats,
    model: CostModel,
}

impl WritableFile for OsWriter {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.writer.write_all(data)?;
        let blocks = self.model.blocks_spanned(self.written, data.len());
        self.written += data.len() as u64;
        self.stats.record_write(data.len() as u64, blocks, 0);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()
    }

    fn written(&self) -> u64 {
        self.written
    }
}

impl Drop for OsWriter {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Storage for FileStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        let file = File::open(self.path(name))?;
        let len = file.metadata()?.len();
        Ok(Arc::new(OsFile {
            file,
            len,
            stats: self.stats.clone(),
            model: self.model,
        }))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        let path = self.path(name);
        // Directory-style names ("shard-0/000001.wal", as produced by
        // `PrefixedStorage`) map onto real subdirectories.
        if let Some(parent) = path.parent() {
            if parent != self.root {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(OsWriter {
            writer: BufWriter::with_capacity(1 << 20, file),
            written: 0,
            stats: self.stats.clone(),
            model: self.model,
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.path(name))
    }

    fn sync_file(&self, name: &str) -> io::Result<()> {
        File::open(self.path(name))?.sync_data()
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        // Recursive: nested names are reported relative to the root with
        // `/` separators, matching what `create` accepted.
        fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let ty = entry.file_type()?;
                if ty.is_dir() {
                    walk(root, &entry.path(), out)?;
                } else if ty.is_file() {
                    if let Ok(rel) = entry.path().strip_prefix(root) {
                        if let Some(name) = rel.to_str() {
                            out.push(name.replace(std::path::MAIN_SEPARATOR, "/"));
                        }
                    }
                }
            }
            Ok(())
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out)?;
        Ok(out)
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path(name))?.len())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_visible_after_drop() {
        let dir = tempfile::tempdir().unwrap();
        let s = FileStorage::new(dir.path()).unwrap();
        {
            let mut w = s.create("t").unwrap();
            w.append(b"0123456789").unwrap();
        }
        let r = s.open_read("t").unwrap();
        assert_eq!(r.len(), 10);
        let mut buf = [0u8; 4];
        r.read_exact_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"3456");
    }

    #[test]
    fn list_recurses_into_subdirectories() {
        let dir = tempfile::tempdir().unwrap();
        let s = FileStorage::new(dir.path()).unwrap();
        fs::create_dir(dir.path().join("empty-subdir")).unwrap();
        s.create("x").unwrap().append(b"1").unwrap();
        s.create("shard-0/wal").unwrap().append(b"2").unwrap();
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["shard-0/wal".to_string(), "x".to_string()]);
    }

    #[test]
    fn directory_style_names_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let s = FileStorage::new(dir.path()).unwrap();
        s.create("a/b/f").unwrap().append(b"nested").unwrap();
        assert!(s.exists("a/b/f"));
        assert_eq!(s.size_of("a/b/f").unwrap(), 6);
        let r = s.open_read("a/b/f").unwrap();
        let mut buf = [0u8; 6];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"nested");
        s.remove("a/b/f").unwrap();
        assert!(!s.exists("a/b/f"));
    }

    #[test]
    fn nested_root_created() {
        let dir = tempfile::tempdir().unwrap();
        let nested = dir.path().join("a/b/c");
        let s = FileStorage::new(&nested).unwrap();
        assert!(nested.exists());
        assert_eq!(s.root(), nested.as_path());
    }
}
