//! Workspace-level integration surface for **odburg**, the on-demand
//! tree-parsing-automaton instruction selector.
//!
//! This crate intentionally contains no code: it exists to host the
//! cross-crate integration tests under `tests/` and the end-to-end
//! examples under `examples/`, which exercise the public API of the
//! `odburg` facade crate exactly as an external user would. See the
//! workspace `README.md` for the architecture overview.
