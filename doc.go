// Package repro is a from-scratch Go reproduction of "A Graph Database
// for a Virtualized Network Infrastructure" (Jamkhedkar et al., SIGMOD
// 2018) — the Nepal system: a model-driven, temporal, path-first graph
// database layer for virtualized network inventory and topology.
//
// The public API lives in internal/core; the layered network model of the
// paper in internal/netmodel. cmd/nepalbench prints the paper's tables
// from the fixtures in internal/bench, whose Test*Shape tests assert each
// result; ./benchmark measures the served system layer by layer against
// BENCHMARK.json. See README.md for a tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the paper-versus-measured record.
package repro
