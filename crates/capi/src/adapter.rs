//! Bridges between C callback bundles and the Rust custom-serialization
//! traits.
//!
//! Each adapter owns the per-operation state object: `statefn` runs at
//! construction, `freefn` at drop — the exact lifecycle the paper describes
//! ("The state object is freed on completion of the point-to-point
//! operation using the freefn callback").

use crate::ctypes::*;
use mpicd::datatype::{CustomPack, CustomUnpack, RecvRegion, SendRegion};
use mpicd::{Error, Result};
use std::os::raw::{c_int, c_void};

fn check(code: c_int) -> Result<()> {
    if code == MPI_SUCCESS {
        Ok(())
    } else {
        Err(Error::Serialization(code))
    }
}

/// A byte or element count a callback wrote back; a negative one is a
/// broken contract (cast to `usize` it would read as ~2^64), so it fails
/// the operation with `MPI_ERR_ARG`.
fn count(n: MPI_Count) -> Result<usize> {
    usize::try_from(n).map_err(|_| Error::Serialization(MPI_ERR_ARG))
}

/// Send-side adapter: C callbacks → [`CustomPack`].
pub struct CCustomPack {
    cb: CustomCallbacks,
    buf: *const c_void,
    count: MPI_Count,
    state: *mut c_void,
}

// SAFETY: MPI's own threading contract — the application's callbacks and
// context must tolerate being called from the progress thread.
unsafe impl Send for CCustomPack {}

impl CCustomPack {
    /// Run `statefn` and capture the state object.
    ///
    /// # Safety
    /// `buf` must be a valid buffer of `count` elements per the callbacks'
    /// expectations, alive for the adapter's lifetime.
    pub unsafe fn new(cb: CustomCallbacks, buf: *const c_void, count: MPI_Count) -> Result<Self> {
        let mut state: *mut c_void = std::ptr::null_mut();
        check((cb.statefn)(cb.context, buf, count, &mut state))?;
        Ok(Self {
            cb,
            buf,
            count,
            state,
        })
    }
}

impl CustomPack for CCustomPack {
    fn packed_size(&self) -> Result<usize> {
        let mut size: MPI_Count = 0;
        // SAFETY: state/buf validity guaranteed by `new`'s contract.
        check(unsafe { (self.cb.queryfn)(self.state, self.buf, self.count, &mut size) })?;
        count(size)
    }

    fn pack(&mut self, offset: usize, dst: &mut [u8]) -> Result<usize> {
        let Some(packfn) = self.cb.packfn else {
            return Err(Error::Unsupported("datatype registered no pack function"));
        };
        let mut used: MPI_Count = 0;
        // SAFETY: dst is a live, exclusive slice; other pointers per `new`.
        check(unsafe {
            packfn(
                self.state,
                self.buf,
                self.count,
                offset as MPI_Count,
                dst.as_mut_ptr().cast(),
                dst.len() as MPI_Count,
                &mut used,
            )
        })?;
        count(used)
    }

    fn regions(&mut self) -> Result<Vec<SendRegion>> {
        let (Some(region_countfn), Some(regionfn)) = (self.cb.region_countfn, self.cb.regionfn)
        else {
            return Ok(Vec::new());
        };
        let mut n: MPI_Count = 0;
        // SAFETY: per `new`'s contract.
        check(unsafe { region_countfn(self.state, self.buf as *mut c_void, self.count, &mut n) })?;
        let n = count(n)?;
        let mut bases = vec![std::ptr::null_mut::<c_void>(); n];
        let mut lens = vec![0 as MPI_Count; n];
        let mut types = vec![MPI_BYTE; n];
        // SAFETY: output arrays sized to `n` as the C contract requires.
        check(unsafe {
            regionfn(
                self.state,
                self.buf as *mut c_void,
                self.count,
                n as MPI_Count,
                bases.as_mut_ptr(),
                lens.as_mut_ptr(),
                types.as_mut_ptr(),
            )
        })?;
        if types.iter().any(|t| *t != MPI_BYTE) {
            return Err(Error::Unsupported(
                "only MPI_BYTE regions are supported by this prototype",
            ));
        }
        bases
            .into_iter()
            .zip(lens)
            .map(|(b, l)| {
                Ok(SendRegion {
                    ptr: b as *const u8,
                    len: count(l)?,
                })
            })
            .collect()
    }

    fn inorder(&self) -> bool {
        self.cb.inorder
    }
}

impl Drop for CCustomPack {
    fn drop(&mut self) {
        if let Some(freefn) = self.cb.freefn {
            // SAFETY: state created by `statefn`, freed exactly once.
            unsafe {
                let _ = freefn(self.state);
            }
        }
    }
}

/// Receive-side adapter: C callbacks → [`CustomUnpack`].
pub struct CCustomUnpack {
    cb: CustomCallbacks,
    buf: *mut c_void,
    count: MPI_Count,
    state: *mut c_void,
}

// SAFETY: see `CCustomPack`.
unsafe impl Send for CCustomUnpack {}

impl CCustomUnpack {
    /// Run `statefn` and capture the state object.
    ///
    /// # Safety
    /// `buf` must be a valid, exclusively-held buffer of `count` elements,
    /// alive for the adapter's lifetime.
    pub unsafe fn new(cb: CustomCallbacks, buf: *mut c_void, count: MPI_Count) -> Result<Self> {
        let mut state: *mut c_void = std::ptr::null_mut();
        check((cb.statefn)(cb.context, buf, count, &mut state))?;
        Ok(Self {
            cb,
            buf,
            count,
            state,
        })
    }
}

impl CustomUnpack for CCustomUnpack {
    fn packed_size(&self) -> Result<usize> {
        let mut size: MPI_Count = 0;
        // SAFETY: per `new`'s contract.
        check(unsafe { (self.cb.queryfn)(self.state, self.buf, self.count, &mut size) })?;
        count(size)
    }

    fn unpack(&mut self, offset: usize, src: &[u8]) -> Result<()> {
        let Some(unpackfn) = self.cb.unpackfn else {
            return Err(Error::Unsupported("datatype registered no unpack function"));
        };
        // SAFETY: src is a live slice; other pointers per `new`.
        check(unsafe {
            unpackfn(
                self.state,
                self.buf,
                self.count,
                offset as MPI_Count,
                src.as_ptr().cast(),
                src.len() as MPI_Count,
            )
        })
    }

    fn regions(&mut self) -> Result<Vec<RecvRegion>> {
        let (Some(region_countfn), Some(regionfn)) = (self.cb.region_countfn, self.cb.regionfn)
        else {
            return Ok(Vec::new());
        };
        let mut n: MPI_Count = 0;
        // SAFETY: per `new`'s contract.
        check(unsafe { region_countfn(self.state, self.buf, self.count, &mut n) })?;
        let n = count(n)?;
        let mut bases = vec![std::ptr::null_mut::<c_void>(); n];
        let mut lens = vec![0 as MPI_Count; n];
        let mut types = vec![MPI_BYTE; n];
        // SAFETY: output arrays sized to `n`.
        check(unsafe {
            regionfn(
                self.state,
                self.buf,
                self.count,
                n as MPI_Count,
                bases.as_mut_ptr(),
                lens.as_mut_ptr(),
                types.as_mut_ptr(),
            )
        })?;
        if types.iter().any(|t| *t != MPI_BYTE) {
            return Err(Error::Unsupported(
                "only MPI_BYTE regions are supported by this prototype",
            ));
        }
        bases
            .into_iter()
            .zip(lens)
            .map(|(b, l)| {
                Ok(RecvRegion {
                    ptr: b as *mut u8,
                    len: count(l)?,
                })
            })
            .collect()
    }
}

impl Drop for CCustomUnpack {
    fn drop(&mut self) {
        if let Some(freefn) = self.cb.freefn {
            // SAFETY: state created by `statefn`, freed exactly once.
            unsafe {
                let _ = freefn(self.state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        // Per test thread: the callbacks run on the caller's thread, so
        // tests running in parallel never see each other's calls.
        static STATE_ALLOCS: Cell<usize> = const { Cell::new(0) };
        static STATE_FREES: Cell<usize> = const { Cell::new(0) };
    }

    unsafe extern "C" fn test_statefn(
        _context: *mut c_void,
        _src: *const c_void,
        _count: MPI_Count,
        state: *mut *mut c_void,
    ) -> c_int {
        STATE_ALLOCS.with(|c| c.set(c.get() + 1));
        *state = Box::into_raw(Box::new(0u64)) as *mut c_void;
        MPI_SUCCESS
    }

    unsafe extern "C" fn test_freefn(state: *mut c_void) -> c_int {
        STATE_FREES.with(|c| c.set(c.get() + 1));
        drop(Box::from_raw(state as *mut u64));
        MPI_SUCCESS
    }

    unsafe extern "C" fn test_queryfn(
        _state: *mut c_void,
        _buf: *const c_void,
        count: MPI_Count,
        packed_size: *mut MPI_Count,
    ) -> c_int {
        *packed_size = count * 4;
        MPI_SUCCESS
    }

    unsafe extern "C" fn test_packfn(
        _state: *mut c_void,
        buf: *const c_void,
        count: MPI_Count,
        offset: MPI_Count,
        dst: *mut c_void,
        dst_size: MPI_Count,
        used: *mut MPI_Count,
    ) -> c_int {
        let total = count * 4;
        let n = (total - offset).min(dst_size);
        std::ptr::copy_nonoverlapping(
            (buf as *const u8).offset(offset as isize),
            dst as *mut u8,
            n as usize,
        );
        *used = n;
        MPI_SUCCESS
    }

    fn callbacks() -> CustomCallbacks {
        CustomCallbacks {
            statefn: test_statefn,
            freefn: Some(test_freefn),
            queryfn: test_queryfn,
            packfn: Some(test_packfn),
            unpackfn: None,
            region_countfn: None,
            regionfn: None,
            context: std::ptr::null_mut(),
            inorder: true,
        }
    }

    #[test]
    fn state_lifecycle_and_packing() {
        let allocs0 = STATE_ALLOCS.with(Cell::get);
        let frees0 = STATE_FREES.with(Cell::get);
        let data = [1i32, 2, 3];
        {
            let mut a = unsafe { CCustomPack::new(callbacks(), data.as_ptr().cast(), 3).unwrap() };
            assert_eq!(a.packed_size().unwrap(), 12);
            let mut out = [0u8; 12];
            assert_eq!(a.pack(0, &mut out).unwrap(), 12);
            assert_eq!(&out[..4], &1i32.to_ne_bytes());
            assert!(a.inorder());
            assert!(a.regions().unwrap().is_empty());
        }
        assert_eq!(STATE_ALLOCS.with(Cell::get), allocs0 + 1);
        assert_eq!(
            STATE_FREES.with(Cell::get),
            frees0 + 1,
            "freefn ran at drop"
        );
    }

    #[test]
    fn error_codes_propagate() {
        unsafe extern "C" fn bad_queryfn(
            _state: *mut c_void,
            _buf: *const c_void,
            _count: MPI_Count,
            _packed_size: *mut MPI_Count,
        ) -> c_int {
            33
        }
        let cb = CustomCallbacks {
            queryfn: bad_queryfn,
            ..callbacks()
        };
        let data = [0u8; 4];
        let a = unsafe { CCustomPack::new(cb, data.as_ptr().cast(), 1).unwrap() };
        assert_eq!(a.packed_size(), Err(Error::Serialization(33)));
    }

    #[test]
    fn negative_counts_are_rejected() {
        unsafe extern "C" fn negative_region_countfn(
            _state: *mut c_void,
            _buf: *mut c_void,
            _count: MPI_Count,
            region_count: *mut MPI_Count,
        ) -> c_int {
            *region_count = -1;
            MPI_SUCCESS
        }
        unsafe extern "C" fn unused_regionfn(
            _state: *mut c_void,
            _buf: *mut c_void,
            _count: MPI_Count,
            _region_count: MPI_Count,
            _reg_bases: *mut *mut c_void,
            _reg_lens: *mut MPI_Count,
            _reg_types: *mut MPI_Datatype,
        ) -> c_int {
            unreachable!("a negative region count is rejected before regionfn")
        }
        let bad = Error::Serialization(MPI_ERR_ARG);
        // `test_queryfn` reports count * 4 bytes: -4 for count -1.
        let cb = CustomCallbacks {
            region_countfn: Some(negative_region_countfn),
            regionfn: Some(unused_regionfn),
            ..callbacks()
        };
        let mut a = unsafe { CCustomPack::new(cb, std::ptr::null(), -1).unwrap() };
        assert_eq!(a.packed_size(), Err(bad.clone()));
        assert!(a.regions().is_err_and(|e| e == bad));
        let mut u = unsafe { CCustomUnpack::new(cb, std::ptr::null_mut(), -1).unwrap() };
        assert_eq!(u.packed_size(), Err(bad.clone()));
        assert!(u.regions().is_err_and(|e| e == bad));
    }
}
