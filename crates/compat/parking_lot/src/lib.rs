//! Offline shim for `parking_lot`: wraps `std::sync` primitives behind
//! parking_lot's panic-free (non-`Result`) locking API. Poisoning is
//! deliberately ignored — parking_lot has no poisoning, and the service
//! crate's documented semantics assume none.

use std::sync::{
    Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdReadGuard, RwLockWriteGuard as StdWriteGuard,
};

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

/// RAII guard of [`Mutex::lock`].
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wrap `value` in a mutex.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose guards never report poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(StdRwLock<T>);

/// RAII guard of [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = StdReadGuard<'a, T>;
/// RAII guard of [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = StdWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Wrap `value` in a reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_counting() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }
}
