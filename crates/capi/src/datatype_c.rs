//! `MPI_Type_create_custom` — Listing 2, verbatim signature.

use crate::ctypes::*;
use crate::handles::{register_type, resolve_element_type, TypeEntry, GLOBAL};
use mpicd_datatype::Datatype;
use std::os::raw::{c_int, c_void};
use std::sync::Arc;

/// Create a custom datatype from application callbacks (Listing 2).
///
/// `statefn` and `queryfn` are required; the rest may be null when the type
/// does not need them (e.g. a regions-only type may omit `packfn`).
/// `inorder` nonzero requests in-order fragment delivery to `unpackfn`.
///
/// # Safety
/// The callbacks and `context` must remain valid until the type is freed,
/// and must follow the documented callback contracts when invoked.
#[allow(non_snake_case)]
pub unsafe extern "C" fn MPI_Type_create_custom(
    statefn: Option<MPI_Type_custom_state_function>,
    freefn: Option<MPI_Type_custom_state_free_function>,
    queryfn: Option<MPI_Type_custom_query_function>,
    packfn: Option<MPI_Type_custom_pack_function>,
    unpackfn: Option<MPI_Type_custom_unpack_function>,
    region_countfn: Option<MPI_Type_custom_region_count_function>,
    regionfn: Option<MPI_Type_custom_region_function>,
    context: *mut c_void,
    inorder: c_int,
    newtype: *mut MPI_Datatype,
) -> c_int {
    let (Some(statefn), Some(queryfn)) = (statefn, queryfn) else {
        return MPI_ERR_ARG;
    };
    if newtype.is_null() {
        return MPI_ERR_ARG;
    }
    // Regions come as a count/fill pair; allowing one without the other is
    // an application bug worth failing early on.
    if region_countfn.is_some() != regionfn.is_some() {
        return MPI_ERR_ARG;
    }
    let cb = CustomCallbacks {
        statefn,
        freefn,
        queryfn,
        packfn,
        unpackfn,
        region_countfn,
        regionfn,
        context,
        inorder: inorder != 0,
    };
    *newtype = register_type(TypeEntry::Custom(cb));
    MPI_SUCCESS
}

/// `MPI_Type_contiguous`: `count` consecutive elements of `oldtype`.
///
/// # Safety
/// `newtype` must be a valid pointer.
pub unsafe extern "C" fn MPI_Type_contiguous(
    count: MPI_Count,
    oldtype: MPI_Datatype,
    newtype: *mut MPI_Datatype,
) -> c_int {
    if newtype.is_null() || count < 0 {
        return MPI_ERR_ARG;
    }
    let child = match resolve_element_type(oldtype) {
        Ok(t) => t,
        Err(code) => return code,
    };
    *newtype = register_type(TypeEntry::Derived(Datatype::contiguous(
        count as usize,
        child,
    )));
    MPI_SUCCESS
}

/// `MPI_Type_vector`: strided blocks (stride in elements of `oldtype`).
///
/// # Safety
/// `newtype` must be a valid pointer.
pub unsafe extern "C" fn MPI_Type_vector(
    count: MPI_Count,
    blocklength: MPI_Count,
    stride: MPI_Count,
    oldtype: MPI_Datatype,
    newtype: *mut MPI_Datatype,
) -> c_int {
    if newtype.is_null() || count < 0 || blocklength < 0 {
        return MPI_ERR_ARG;
    }
    let child = match resolve_element_type(oldtype) {
        Ok(t) => t,
        Err(code) => return code,
    };
    *newtype = register_type(TypeEntry::Derived(Datatype::vector(
        count as usize,
        blocklength as usize,
        stride as isize,
        child,
    )));
    MPI_SUCCESS
}

/// `MPI_Type_create_struct`: heterogeneous fields at byte displacements.
///
/// # Safety
/// `blocklengths`/`displacements`/`types` must point to `count` entries;
/// `newtype` must be valid.
pub unsafe extern "C" fn MPI_Type_create_struct(
    count: MPI_Count,
    blocklengths: *const MPI_Count,
    displacements: *const MPI_Count,
    types: *const MPI_Datatype,
    newtype: *mut MPI_Datatype,
) -> c_int {
    if newtype.is_null()
        || count < 0
        || blocklengths.is_null()
        || displacements.is_null()
        || types.is_null()
    {
        return MPI_ERR_ARG;
    }
    let n = count as usize;
    let mut fields = Vec::with_capacity(n);
    for i in 0..n {
        let bl = *blocklengths.add(i);
        let d = *displacements.add(i);
        if bl < 0 {
            return MPI_ERR_ARG;
        }
        let ft = match resolve_element_type(*types.add(i)) {
            Ok(t) => t,
            Err(code) => return code,
        };
        fields.push((bl as usize, d as isize, ft));
    }
    *newtype = register_type(TypeEntry::Derived(Datatype::structure(fields)));
    MPI_SUCCESS
}

/// `MPI_Type_commit`: flatten/optimize a derived type for communication.
/// Uses the convertor-style commit (the Open MPI model this reproduction
/// benchmarks against).
///
/// # Safety
/// `datatype` must point to a live handle variable.
pub unsafe extern "C" fn MPI_Type_commit(datatype: *mut MPI_Datatype) -> c_int {
    if datatype.is_null() {
        return MPI_ERR_ARG;
    }
    let handle = *datatype;
    let mut g = GLOBAL.lock();
    let entry = match g.datatypes.get(&handle) {
        Some(e) => e.clone(),
        None => return MPI_ERR_TYPE,
    };
    match entry {
        TypeEntry::Derived(t) => match t.commit_convertor() {
            Ok(c) => {
                g.datatypes
                    .insert(handle, TypeEntry::Committed(Arc::new(c)));
                MPI_SUCCESS
            }
            Err(_) => MPI_ERR_TYPE,
        },
        // Committing a custom or already-committed type is a no-op.
        TypeEntry::Custom(_) | TypeEntry::Committed(_) => MPI_SUCCESS,
    }
}

/// `MPI_Get_count`: elements received, from a status and a datatype.
/// Returns `MPI_ERR_TYPE` when the byte count is not a whole number of
/// elements (MPI would set `MPI_UNDEFINED`), or when a derived type's
/// layout overflows.
///
/// # Safety
/// `status` and `count` must be valid pointers.
pub unsafe extern "C" fn MPI_Get_count(
    status: *const MPI_Status,
    datatype: MPI_Datatype,
    count: *mut MPI_Count,
) -> c_int {
    if status.is_null() || count.is_null() {
        return MPI_ERR_ARG;
    }
    let bytes = (*status).count as usize;
    let elem = match datatype {
        MPI_BYTE => 1usize,
        MPI_INT | MPI_FLOAT => 4,
        MPI_DOUBLE | MPI_INT64_T => 8,
        _ => match crate::handles::lookup_type(datatype) {
            Ok(TypeEntry::Committed(c)) => c.size(),
            Ok(TypeEntry::Derived(t)) => match t.layout() {
                Ok(l) => l.size,
                Err(_) => return MPI_ERR_TYPE,
            },
            _ => return MPI_ERR_TYPE,
        },
    };
    if elem == 0 || !bytes.is_multiple_of(elem) {
        return MPI_ERR_TYPE;
    }
    *count = (bytes / elem) as MPI_Count;
    MPI_SUCCESS
}

/// Release a custom datatype handle.
///
/// # Safety
/// `datatype` must point to a live handle variable.
#[allow(non_snake_case)]
pub unsafe extern "C" fn MPI_Type_free(datatype: *mut MPI_Datatype) -> c_int {
    if datatype.is_null() {
        return MPI_ERR_ARG;
    }
    let handle = *datatype;
    let mut g = GLOBAL.lock();
    if g.datatypes.remove(&handle).is_none() {
        return MPI_ERR_TYPE;
    }
    *datatype = MPI_BYTE; // "null-ish": reset to a predefined handle
    MPI_SUCCESS
}

/// `MPIX_Type_signature` (extension): the 64-bit structural signature of a
/// datatype — the token the fabric compares under `MPICD_TYPECHECK`.
///
/// Works on predefined handles, derived (uncommitted) types, and committed
/// types. Custom-callback types have no declared type map and report `0`
/// ("unchecked"), matching how their sends travel on the wire. A derived
/// type whose layout overflows has none: `MPI_ERR_TYPE`, as its commit.
///
/// # Safety
/// `signature` must be a valid pointer.
#[allow(non_snake_case)]
pub unsafe extern "C" fn MPIX_Type_signature(datatype: MPI_Datatype, signature: *mut u64) -> c_int {
    if signature.is_null() {
        return MPI_ERR_ARG;
    }
    if let Ok(t) = resolve_element_type(datatype) {
        // A layout that overflows has no signature.
        let Ok(sig) = mpicd_datatype::signature64(&t) else {
            return MPI_ERR_TYPE;
        };
        *signature = sig;
        return MPI_SUCCESS;
    }
    match crate::handles::lookup_type(datatype) {
        Ok(TypeEntry::Committed(c)) => {
            *signature = c.signature64();
            MPI_SUCCESS
        }
        Ok(TypeEntry::Custom(_)) => {
            *signature = 0;
            MPI_SUCCESS
        }
        Ok(TypeEntry::Derived(_)) => unreachable!("resolved above"),
        Err(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe extern "C" fn sf(
        _c: *mut c_void,
        _s: *const c_void,
        _n: MPI_Count,
        state: *mut *mut c_void,
    ) -> c_int {
        *state = std::ptr::null_mut();
        MPI_SUCCESS
    }

    unsafe extern "C" fn qf(
        _st: *mut c_void,
        _b: *const c_void,
        n: MPI_Count,
        out: *mut MPI_Count,
    ) -> c_int {
        *out = n;
        MPI_SUCCESS
    }

    #[test]
    fn create_and_free() {
        let mut ty: MPI_Datatype = 0;
        let rc = unsafe {
            MPI_Type_create_custom(
                Some(sf),
                None,
                Some(qf),
                None,
                None,
                None,
                None,
                std::ptr::null_mut(),
                1,
                &mut ty,
            )
        };
        assert_eq!(rc, MPI_SUCCESS);
        assert!(ty >= 100);
        let mut ty2 = ty;
        assert_eq!(unsafe { MPI_Type_free(&mut ty2) }, MPI_SUCCESS);
        assert_eq!(
            unsafe { MPI_Type_free(&mut ty2) },
            MPI_ERR_TYPE,
            "double free"
        );
    }

    #[test]
    fn missing_required_callbacks_rejected() {
        let mut ty: MPI_Datatype = 0;
        let rc = unsafe {
            MPI_Type_create_custom(
                None,
                None,
                Some(qf),
                None,
                None,
                None,
                None,
                std::ptr::null_mut(),
                0,
                &mut ty,
            )
        };
        assert_eq!(rc, MPI_ERR_ARG);
    }

    #[test]
    fn mismatched_region_callbacks_rejected() {
        unsafe extern "C" fn rcf(
            _st: *mut c_void,
            _b: *mut c_void,
            _n: MPI_Count,
            out: *mut MPI_Count,
        ) -> c_int {
            *out = 0;
            MPI_SUCCESS
        }
        let mut ty: MPI_Datatype = 0;
        let rc = unsafe {
            MPI_Type_create_custom(
                Some(sf),
                None,
                Some(qf),
                None,
                None,
                Some(rcf),
                None, // count without fill
                std::ptr::null_mut(),
                0,
                &mut ty,
            )
        };
        assert_eq!(rc, MPI_ERR_ARG);
    }

    /// Build `{bl × type @ displ}` struct handles for signature tests.
    unsafe fn struct_handle(fields: &[(MPI_Count, MPI_Count, MPI_Datatype)]) -> MPI_Datatype {
        let bl: Vec<MPI_Count> = fields.iter().map(|f| f.0).collect();
        let d: Vec<MPI_Count> = fields.iter().map(|f| f.1).collect();
        let t: Vec<MPI_Datatype> = fields.iter().map(|f| f.2).collect();
        let mut ty: MPI_Datatype = 0;
        assert_eq!(
            MPI_Type_create_struct(
                fields.len() as MPI_Count,
                bl.as_ptr(),
                d.as_ptr(),
                t.as_ptr(),
                &mut ty,
            ),
            MPI_SUCCESS
        );
        ty
    }

    #[test]
    fn type_signature_survives_commit_and_separates_layouts() {
        unsafe {
            // The acceptance-criteria pair: {f64,f64,i32} vs {f64,i32,f64}.
            let mut a = struct_handle(&[(2, 0, MPI_DOUBLE), (1, 16, MPI_INT)]);
            let b = struct_handle(&[(1, 0, MPI_DOUBLE), (1, 8, MPI_INT), (1, 16, MPI_DOUBLE)]);
            let mut sig_a = 0u64;
            let mut sig_b = 0u64;
            assert_eq!(MPIX_Type_signature(a, &mut sig_a), MPI_SUCCESS);
            assert_eq!(MPIX_Type_signature(b, &mut sig_b), MPI_SUCCESS);
            assert_ne!(sig_a, 0, "declared type maps are always checked");
            assert_ne!(sig_a, sig_b, "reordered fields get distinct tokens");
            // Committing must not change the wire token.
            assert_eq!(MPI_Type_commit(&mut a), MPI_SUCCESS);
            let mut sig_committed = 0u64;
            assert_eq!(MPIX_Type_signature(a, &mut sig_committed), MPI_SUCCESS);
            assert_eq!(sig_committed, sig_a);
            // Predefined handles work too.
            let mut sig_int = 0u64;
            assert_eq!(MPIX_Type_signature(MPI_INT, &mut sig_int), MPI_SUCCESS);
            assert_ne!(sig_int, 0);
        }
    }

    #[test]
    fn custom_types_report_unchecked_signature() {
        let mut ty: MPI_Datatype = 0;
        unsafe {
            assert_eq!(
                MPI_Type_create_custom(
                    Some(sf),
                    None,
                    Some(qf),
                    None,
                    None,
                    None,
                    None,
                    std::ptr::null_mut(),
                    1,
                    &mut ty,
                ),
                MPI_SUCCESS
            );
            let mut sig = 1u64;
            assert_eq!(MPIX_Type_signature(ty, &mut sig), MPI_SUCCESS);
            assert_eq!(sig, 0, "no declared type map, so unchecked on the wire");
            assert_eq!(MPIX_Type_signature(ty, std::ptr::null_mut()), MPI_ERR_ARG);
        }
    }
}
