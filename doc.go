// Package repro is a Go reproduction of "Data Distribution Schemes of
// Sparse Arrays on Distributed Memory Multicomputers" (Lin, Chung, Liu,
// ICPP 2002): the SFC, CFS and ED distribution schemes, the partition
// methods and compression formats they compose with, an emulated
// distributed-memory multicomputer to run them on, the paper's
// closed-form cost model, and the tools regenerating every table in
// the paper's evaluation.
//
// The root package holds only end-to-end tests (pipeline_test.go) and
// the check that the documents cite nothing that no longer exists
// (docs_test.go); the library lives under internal/ — start at
// internal/core for the high-level API and see README.md, DESIGN.md and
// EXPERIMENTS.md. Benchmarks sit in the packages they time; the
// repository benchmark is the nested module bench/.
package repro
