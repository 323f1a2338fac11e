// Package diffprov is a Go implementation of differential provenance, the
// network diagnostic technique of "The Good, the Bad, and the
// Differences: Better Network Diagnostics with Differential Provenance"
// (SIGCOMM 2016).
//
// Classical provenance answers "why did this event happen?" with a
// complete — and often overwhelming — causal explanation. Differential
// provenance instead takes a reference event (a similar event that
// produced the correct outcome) and reasons about the differences between
// the two provenance trees, returning a small set of changes to mutable
// configuration state — often a single tuple — that explains the
// divergence: the estimated root cause.
//
// The package re-exports the supported surface of the implementation:
//
//   - the NDlog declarative engine (tuples, rules, programs) that models
//     the diagnosed system,
//   - the temporal provenance graph and tree queries,
//   - the logging/replay session that captures executions,
//   - the DiffProv reasoning engine itself,
//   - the SDN and MapReduce substrates and the paper's case studies.
//
// A minimal diagnosis looks like this:
//
//	prog := diffprov.MustParse(modelSource)
//	sess := diffprov.NewSession(prog)
//	// ... drive the system: sess.Insert / sess.Delete / sess.Run ...
//	_, graph, _ := sess.Graph()
//	good := graph.Tree(graph.LastAppear("host1", goodTuple).ID)
//	bad := graph.Tree(graph.LastAppear("host2", badTuple).ID)
//	world, _ := diffprov.NewWorld(sess)
//	res, err := diffprov.Diagnose(good, bad, world, diffprov.Options{})
//	// res.Changes is Δ(B→G): the root cause estimate.
//
// See the examples directory for complete programs, and DESIGN.md /
// EXPERIMENTS.md for the mapping to the paper's evaluation.
package diffprov

import (
	"context"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// ---- Declarative system model (NDlog) ----

// Value is a runtime value held in a tuple field.
type Value = ndlog.Value

// Convenience value constructors and types.
type (
	// Int is a 64-bit integer value.
	Int = ndlog.Int
	// Str is a string value.
	Str = ndlog.Str
	// Bool is a boolean value.
	Bool = ndlog.Bool
	// IP is an IPv4 address value.
	IP = ndlog.IP
	// Prefix is an IPv4 CIDR prefix value.
	Prefix = ndlog.Prefix
	// ID is an opaque identifier (checksum, version) value.
	ID = ndlog.ID
)

// Tuple is a row of a table: the unit of system state and events.
type Tuple = ndlog.Tuple

// Program is a set of table declarations and NDlog rules.
type Program = ndlog.Program

// Engine evaluates a program over a simulated distributed system.
type Engine = ndlog.Engine

// Stamp is a logical timestamp.
type Stamp = ndlog.Stamp

// At is a located, timestamped tuple occurrence (used when reporting
// provenance from instrumented systems).
type At = ndlog.At

// NewTuple constructs a tuple.
func NewTuple(table string, args ...Value) Tuple { return ndlog.NewTuple(table, args...) }

// Parse parses an NDlog program from source text.
func Parse(src string) (*Program, error) { return ndlog.Parse(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Program { return ndlog.MustParse(src) }

// ParseIP parses dotted-quad IPv4 notation.
func ParseIP(s string) (IP, error) { return ndlog.ParseIP(s) }

// MustParseIP is ParseIP that panics on error.
func MustParseIP(s string) IP { return ndlog.MustParseIP(s) }

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) { return ndlog.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix { return ndlog.MustParsePrefix(s) }

// Hash64 is the deterministic hash used by the hash/hashmod builtins.
func Hash64(v Value) uint64 { return ndlog.Hash64(v) }

// ---- Provenance ----

// Graph is the temporal provenance graph (INSERT, DELETE, EXIST, DERIVE,
// UNDERIVE, APPEAR, DISAPPEAR).
type Graph = provenance.Graph

// Tree is a provenance tree projected from the graph.
type Tree = provenance.Tree

// Vertex is one provenance graph vertex.
type Vertex = provenance.Vertex

// Builder reports provenance from instrumented (non-declarative) systems.
type Builder = provenance.Builder

// NewBuilder creates a reported-provenance builder over a specification
// program.
func NewBuilder(spec *Program) *Builder { return provenance.NewBuilder(spec) }

// ---- Logging and replay ----

// Session couples a live engine with the logging and replay engines.
type Session = replay.Session

// Log is an append-only base-event log.
type Log = replay.Log

// Change is a counterfactual base-tuple change (insert or delete).
type Change = replay.Change

// NewSession creates a session for a program.
func NewSession(prog *Program, opts ...replay.SessionOption) *Session {
	return replay.NewSession(prog, opts...)
}

// WithCheckpointEvery enables periodic state checkpoints.
func WithCheckpointEvery(ticks int64) replay.SessionOption {
	return replay.WithCheckpointEvery(ticks)
}

// ---- The DiffProv reasoning engine ----

// World is the bad execution as DiffProv sees it.
type World = core.World

// Options configure the DiffProv algorithm.
type Options = core.Options

// Result is the output of a diagnosis: Changes is Δ(B→G).
type Result = core.Result

// Timings decomposes the reasoning time (the paper's Figure 8).
type Timings = core.Timings

// DiagnosisError reports why a diagnosis failed (§4.7), with attempted
// changes as diagnostic clues.
type DiagnosisError = core.DiagnosisError

// FailureKind classifies diagnosis failures.
type FailureKind = core.FailureKind

// The failure kinds.
const (
	SeedTypeMismatch = core.SeedTypeMismatch
	ImmutableChange  = core.ImmutableChange
	NonInvertible    = core.NonInvertible
	NoProgress       = core.NoProgress
)

// NewWorld wraps a replay session as a diagnosable world.
func NewWorld(s *Session) (World, error) { return core.NewWorld(s) }

// Diagnose runs the DiffProv algorithm: given the good and bad provenance
// trees and the bad execution's world, it returns the set of changes to
// mutable base tuples that aligns the trees — the root cause estimate.
func Diagnose(good, bad *Tree, world World, opts Options) (*Result, error) {
	return core.Diagnose(context.Background(), good, bad, world, opts)
}

// DiagnoseContext is Diagnose honoring the context's cancellation and
// deadline: the diagnosis aborts between rounds and inside counterfactual
// replays, returning the context's error (wrapped).
func DiagnoseContext(ctx context.Context, good, bad *Tree, world World, opts Options) (*Result, error) {
	return core.Diagnose(ctx, good, bad, world, opts)
}

// AutoDiagnose diagnoses a bad event without an operator-supplied
// reference, mining candidate references from the execution itself (the
// automation the paper sketches in §4.9). It returns the result and the
// reference tree that produced it.
func AutoDiagnose(bad *Tree, world World, opts Options) (*Result, *Tree, error) {
	return core.AutoDiagnose(context.Background(), bad, world, opts)
}

// AutoDiagnoseContext is AutoDiagnose honoring the context's cancellation
// and deadline.
func AutoDiagnoseContext(ctx context.Context, bad *Tree, world World, opts Options) (*Result, *Tree, error) {
	return core.AutoDiagnose(ctx, bad, world, opts)
}

// ReferenceCandidate is a mined reference candidate.
type ReferenceCandidate = core.Candidate

// FindReferenceCandidates mines and ranks reference candidates for a bad
// tree from the world's provenance.
func FindReferenceCandidates(bad *Tree, world World, limit int) ([]ReferenceCandidate, error) {
	return core.FindReferenceCandidates(bad, world, limit)
}
