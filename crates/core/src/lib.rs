#![deny(missing_docs)]
#![deny(unsafe_code)]
//! # mpicd — MPI with custom datatype serialization
//!
//! Rust reproduction of the prototype from *"Improving MPI Language Support
//! Through Custom Datatype Serialization"* (Tronge, Schuchart, Pritchard,
//! Dalcin — SC 2024).
//!
//! The paper proposes a new MPI datatype interface in which the
//! *application* controls buffer packing and the wire representation
//! through callbacks (Listing 2's `MPI_Type_create_custom`):
//!
//! | paper callback | here |
//! |---|---|
//! | `statefn` / `freefn` | creating / dropping a [`CustomPack`]/[`CustomUnpack`] value |
//! | `queryfn` | [`CustomPack::packed_size`] |
//! | `packfn` | [`CustomPack::pack`] (virtual offsets, partial fill allowed) |
//! | `unpackfn` | [`CustomUnpack::unpack`] |
//! | `region_countfn` / `regionfn` | [`CustomPack::regions`] / [`CustomUnpack::regions`] |
//! | `inorder` flag | [`CustomPack::inorder`] |
//!
//! A value opts into communication by implementing [`Buffer`] (send side)
//! and/or [`BufferMut`] (receive side), yielding either a contiguous byte
//! view or a custom-serialization context. On the wire, a custom buffer
//! becomes **one** message whose scatter/gather list starts with the packed
//! stream and continues with the exposed memory regions — exactly the
//! paper's UCX iov layout.
//!
//! ## Quick start
//!
//! ```
//! use mpicd::{World, Buffer, BufferMut};
//!
//! // A two-rank world over the simulated fabric.
//! let world = World::new(2);
//! let (c0, c1) = world.pair();
//!
//! // Vec<Vec<i32>> — the paper's "double-vec" dynamic type — has built-in
//! // custom-serialization support: lengths are packed, subvector payloads
//! // travel as zero-copy memory regions, all in a single message.
//! let send: Vec<Vec<i32>> = vec![vec![1, 2, 3], vec![4, 5]];
//! let mut recv: Vec<Vec<i32>> = vec![vec![0; 3], vec![0; 2]];
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| c0.send(&send, 1, 0).unwrap());
//!     s.spawn(|| { c1.recv(&mut recv, 0, 0).unwrap(); });
//! });
//! assert_eq!(recv, vec![vec![1, 2, 3], vec![4, 5]]);
//! ```

pub mod buffer;
pub mod collective;
pub mod communicator;
pub mod containers;
pub mod datatype;
pub mod derive;
pub mod error;
pub mod exchange;
pub mod macros;
pub mod resumable;
pub mod types;
pub mod vecvec;

pub use buffer::{Buffer, BufferMut, RecvView, SendView};
pub use collective::{allreduce_f64, bcast, collective_tag_name, ReduceOp};
pub use communicator::{Communicator, MatchedMessage, Scope, Status, World};
pub use datatype::{
    CustomPack, CustomUnpack, RandomAccessPacker, RandomAccessUnpacker, RecvRegion, SendRegion,
};
pub use derive::{DatatypeField, StaticDatatype};
pub use error::{Error, Result};
pub use exchange::{transfer, transfer_custom, transfer_typed};
pub use resumable::LoopNest;

/// Re-export of the derived-datatype engine (the classic-MPI baseline).
///
/// Typed sends of derived datatypes go through the engine's resumable
/// pack path; a [`Datatype::commit`](mpicd_datatype::Datatype::commit)
/// additionally compiles a cached pack *plan* (strided-copy program, see
/// [`mpicd_datatype::plan`]) that the fragment packer executes, while
/// [`commit_convertor`](mpicd_datatype::Datatype::commit_convertor)
/// remains the paper-faithful interpreted baseline.
pub use mpicd_datatype as derived;
/// Re-export of the transport substrate for harnesses that need wire-model
/// control or traffic statistics.
pub use mpicd_fabric as fabric;
