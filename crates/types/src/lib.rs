//! Common vocabulary types for the ScanRaw reproduction.
//!
//! This crate defines the data model shared by every other crate in the
//! workspace: schemas and typed values ([`schema`], [`value`]), the chunk
//! structures that flow through the ScanRaw pipeline ([`chunk`]), operator
//! configuration ([`config`]), and the error type ([`error`]).
//!
//! The paper (Cheng & Rusu, SIGMOD 2014, §2–§3) decomposes in-situ raw-file
//! processing into READ → TOKENIZE → PARSE → MAP → {engine, WRITE} stages that
//! communicate through buffers holding *chunks*: horizontal file partitions of
//! a fixed number of lines. The types here are the currency of those buffers.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod chunk;
pub mod config;
pub mod error;
pub mod layout;
pub mod predicate;
pub mod schema;
pub mod value;

pub use chunk::{BinaryChunk, ChunkId, ColumnData, PositionalMap, TextChunk, Utf8Column};
pub use config::{ScanRawConfig, WritePolicy};
pub use error::{Error, IoError, IoErrorKind, Result};
pub use layout::{ChunkLayout, ChunkMeta};
pub use predicate::RangePredicate;
pub use schema::{DataType, Field, Schema};
pub use value::Value;
