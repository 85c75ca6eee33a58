//! Workload DSL: a small language for TB-program generators, with a
//! compiled bytecode path and a reference interpreter.
//!
//! The paper's benchmark workloads describe, per thread block, a short
//! program of memory operations, compute phases, and device-side child
//! launches. This crate lets those descriptions live as *source text*
//! instead of Rust generator code:
//!
//! ```text
//! .dsl text ──lex──► tokens ──parse──► AST ──resolve──► resolved tree
//!                                                        │        │
//!                                              interpreter        compiler ──verify──► bytecode
//!                                                   (oracle)                              │
//!                                                        ▼                                ▼
//!                                                    TbProgram  ◄────── stack VM (hot path)
//! ```
//!
//! Both back ends consume the same resolved tree, share one arithmetic
//! kernel ([`resolve::eval_bin`]), one op-emission layer (`emit`), and
//! one set of error constructors — so they agree byte-for-byte on every
//! program *and* on every fault, which the differential fuzzer
//! ([`difftest`]) and the CI `repro-gate` job's `--programs dsl` sweep
//! enforce. The VM's
//! dispatch loop is bounds-check-free: the [`bytecode`] verifier proves
//! stack depths and id ranges per instruction at compile time, and
//! [`CompiledKernel`]s are only constructible through the verifying
//! compiler.
//!
//! Entry points:
//! - [`CompiledWorkload::from_source`] — compile `.dsl` text into a
//!   drop-in [`workloads::Workload`].
//! - [`compile_workload`] / [`compiled_suite_seeded`] — route the
//!   generator suite through its checked-in DSL ports.
//! - [`difftest::fuzz_case`] — one seeded VM-vs-interpreter comparison.

#![deny(clippy::unwrap_used)]

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod difftest;
mod emit;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod source;
pub mod vm;

pub use bytecode::CompiledKernel;
pub use compile::{compile, compile_kernel};
pub use error::{DslError, Pos};
pub use interp::interpret_tb;
pub use parser::parse;
pub use resolve::{resolve, ResolvedWorkload};
pub use source::{compile_workload, compiled_suite_seeded, CompiledWorkload, ExecMode};
pub use vm::run_compiled;
