#![deny(missing_docs)]
#![deny(unsafe_code)]
//! # mpicd-datatype — an MPI derived-datatype engine
//!
//! This crate implements the *classic* MPI datatype machinery that the
//! paper's custom serialization API is evaluated against: type maps built
//! from predefined types and displacements (MPI 4.1 §5.1), the standard
//! constructors (`contiguous`, `vector`, `hvector`, `indexed`, `hindexed`,
//! `indexed_block`, `struct`, `resized`), extent/lower-bound rules with
//! alignment padding, and a commit step that walks a type once, run by
//! run (never primitive by primitive), into an optimized block list, a
//! compiled pack plan and a structural signature, used by a resumable
//! pack/unpack engine.
//!
//! It plays the role Open MPI's datatype engine (driven through RSMPI)
//! plays in the paper's figures:
//!
//! * For **contiguous** committed types (e.g. `struct-simple-no-gap`,
//!   Listing 8) the engine detects contiguity and the transport can send
//!   the bytes directly — the fast case of Fig 6.
//! * For **gapped** types (e.g. `struct-simple`, Listing 7, with its 4-byte
//!   hole between `c` and `d`) the engine must walk the type map and copy
//!   block by block — the slow case of Fig 5 ("the Open MPI type
//!   representation is not able to handle efficiently").
//!
//! The pack engine is *resumable*: it can produce any byte range of the
//! packed stream on demand (`pack_segment`), which is how real MPI
//! implementations feed pipelined fragments, and how this engine plugs into
//! the fabric's generic-datatype path.

pub mod committed;
pub mod engine;
pub mod equivalence;
pub mod error;
pub mod marshal;
pub mod plan;
pub mod primitive;
pub mod typ;

pub use committed::Committed;
pub use equivalence::{
    compatible, equivalent, key64, signature, signature64, structural_key, type_map, StructuralKey,
};
pub use error::{DatatypeError, DatatypeResult};
pub use marshal::{marshal, marshal_with_header, unmarshal, unmarshal_with_header};
pub use plan::{Kernel, PackPlan, PlanOp};
pub use primitive::Primitive;
pub use typ::{Datatype, Layout};
