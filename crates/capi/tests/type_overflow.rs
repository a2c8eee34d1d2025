//! Derived types whose layout overflows `isize`, through the C API: commit,
//! signature and element count return `MPI_ERR_TYPE` in debug and release
//! builds alike. A panic may not cross `extern "C"`, and a wrapped size or
//! displacement must not reach the pack engine.

use mpicd_capi::*;

#[test]
fn overflowing_layouts_return_mpi_err_type() {
    unsafe {
        // Block 1 at 2^61 doubles: its byte displacement wraps.
        let mut vector: MPI_Datatype = 0;
        let stride = (isize::MAX / 4) as MPI_Count;
        assert_eq!(
            MPI_Type_vector(2, 1, stride, MPI_DOUBLE, &mut vector),
            MPI_SUCCESS
        );
        // 2^62 doubles: the size wraps.
        let mut contiguous: MPI_Datatype = 0;
        let count = (usize::MAX / 4) as MPI_Count;
        assert_eq!(
            MPI_Type_contiguous(count, MPI_DOUBLE, &mut contiguous),
            MPI_SUCCESS
        );
        for mut ty in [vector, contiguous] {
            let mut sig = 7u64;
            assert_eq!(MPIX_Type_signature(ty, &mut sig), MPI_ERR_TYPE);
            assert_eq!(sig, 7, "no signature is written");
            let status = MPI_Status {
                count: 16,
                ..MPI_Status::default()
            };
            let mut elems: MPI_Count = -1;
            assert_eq!(MPI_Get_count(&status, ty, &mut elems), MPI_ERR_TYPE);
            assert_eq!(MPI_Type_commit(&mut ty), MPI_ERR_TYPE);
            // The failed commit leaves the handle derived and uncommitted.
            assert_eq!(MPI_Type_commit(&mut ty), MPI_ERR_TYPE);
            assert_eq!(MPI_Type_free(&mut ty), MPI_SUCCESS);
        }
    }
}
