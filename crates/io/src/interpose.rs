//! One decorator for every storage that watches operations.
//!
//! [`Interposed`] wraps a [`Storage`] and the files it opens, and hands
//! each operation to a [`Hook`] before the operation reaches the wrapped
//! store. The hook may fail the operation (the crash and fault storages),
//! hold it (a test that parks a `sync`), or note it (a test that records
//! the storage ops of a load); everything the hook lets pass is forwarded
//! unchanged, one call for one call, so a vectored read stays one device
//! read. `exists`, `list`, `size_of`, `len`, `written` and `stats` are not
//! operations a hook sees: they are forwarded as they are.

use std::io;
use std::ops::Deref;
use std::sync::Arc;

use crate::{IoStats, RandomAccessFile, Storage, WritableFile};

/// A storage operation, named by the file it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<'a> {
    /// `Storage::open_read`.
    Open(&'a str),
    /// Any read of an open file.
    Read(&'a str),
    /// `Storage::create`.
    Create(&'a str),
    /// `WritableFile::append`, with the bytes appended.
    Append(&'a str, &'a [u8]),
    /// `WritableFile::sync` or `Storage::sync_file`.
    Sync(&'a str),
    /// `Storage::remove`.
    Remove(&'a str),
}

/// What an [`Interposed`] storage asks before each operation.
pub trait Hook: Send + Sync + 'static {
    /// Called before `op` reaches the wrapped store; an error fails the
    /// operation without it reaching the store.
    fn before(&self, op: Op<'_>) -> io::Result<()>;
}

/// A storage, or one of its files, whose operations pass a [`Hook`] first.
pub struct Interposed<S, H> {
    pub(crate) inner: S,
    pub(crate) hook: Arc<H>,
    /// The file's name; empty on the store itself.
    name: String,
}

impl<S, H: Hook> Interposed<S, H> {
    /// `inner` (a storage behind an `Arc` or `Box`), its operations passing
    /// `hook` first.
    pub fn hooked(inner: S, hook: Arc<H>) -> Self {
        Self {
            inner,
            hook,
            name: String::new(),
        }
    }

    fn file<F>(&self, name: &str, inner: F) -> Interposed<F, H> {
        Interposed {
            inner,
            hook: Arc::clone(&self.hook),
            name: name.to_string(),
        }
    }
}

impl<S, H> Storage for Interposed<S, H>
where
    S: Deref + Send + Sync,
    S::Target: Storage,
    H: Hook,
{
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        self.hook.before(Op::Open(name))?;
        Ok(Arc::new(self.file(name, self.inner.open_read(name)?)))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        self.hook.before(Op::Create(name))?;
        Ok(Box::new(self.file(name, self.inner.create(name)?)))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.hook.before(Op::Remove(name))?;
        self.inner.remove(name)
    }

    fn sync_file(&self, name: &str) -> io::Result<()> {
        self.hook.before(Op::Sync(name))?;
        self.inner.sync_file(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.inner.size_of(name)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

impl<H: Hook> RandomAccessFile for Interposed<Arc<dyn RandomAccessFile>, H> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.hook.before(Op::Read(&self.name))?;
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        self.hook.before(Op::Read(&self.name))?;
        self.inner.read_exact_vectored_at(offset, bufs)
    }
}

impl<H: Hook> WritableFile for Interposed<Box<dyn WritableFile>, H> {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.hook.before(Op::Append(&self.name, data))?;
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.hook.before(Op::Sync(&self.name))?;
        self.inner.sync()
    }

    fn written(&self) -> u64 {
        self.inner.written()
    }
}
