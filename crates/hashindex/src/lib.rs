//! Chained bucket hash index with cache-line-sized buckets.
//!
//! §3.5/§6.2: "we followed the techniques used in \[GBC98\] by using the
//! cache line size as the bucket size. Besides keys, each bucket also
//! contains a counter indicating the number of occupied slots in the bucket
//! and the pointer to the next bucket. Our hash function simply uses the
//! low order bits of the key."
//!
//! The hash index is the "fast but fat" end of the paper's space/time
//! frontier (Figs. 2/14): about 3× faster than a CSS-tree for point lookups
//! but ~20× the space, no ordered access (the only "N" in Fig. 7's
//! RID-ordered column), and sensitive to skew and to the directory-size
//! choice (the hash sweep in Fig. 12).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod bucket;
pub mod hashfn;
pub mod table;

pub use bucket::Bucket;
pub use hashfn::HashFn;
pub use table::HashIndex;
