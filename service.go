package qokit

import (
	"qokit/internal/evaluator"
	"qokit/internal/grad"
	"qokit/internal/serve"
	"qokit/internal/sweep"
)

// This file is the public façade of the evaluation service — the
// request-queue → engine-pool layer that unifies the three evaluation
// worlds (single-node point/batch, adjoint gradients, distributed
// sharded evaluation) behind one contract:
//
//   - Evaluator is the contract every engine implements: Energy and
//     EnergyGrad on the flat parameter vector [γ…, β…], plus Caps
//     metadata (qubit count, gradient support, concurrency, ranks,
//     state memory) a scheduler can place work with. Simulator,
//     SweepEngine, GradEngine, and DistributedGradEngine all satisfy
//     it, as does Service itself.
//   - Service schedules point, gradient, and batch requests FIFO over
//     an elastic pool of evaluators built from factories, with
//     worker-affine buffer reuse and context.Context cancellation at
//     every layer. It has one scheduler and two constructors:
//     NewRegistryService and NewElasticService (registry.go).
//
// One Service therefore serves a landscape grid, a stream of optimizer
// steps, and concurrent sharded evaluations through the same queue —
// the "distributed sweep/optimizer service" scaling rung of the
// ROADMAP.

// Evaluator is the unified evaluation contract (energy and exact
// gradient on flat parameters, plus capability/cost metadata).
type Evaluator = evaluator.Evaluator

// EvaluatorCaps describes an evaluator's capabilities and per-
// evaluation cost.
type EvaluatorCaps = evaluator.Caps

// OutputSpec selects the measurement-style outputs of one evaluation:
// CVaR levels, sampled shots (with a reproducible seed), and
// per-index probability queries. The zero value requests only the
// always-present outputs (energy, overlap, minimum cost, most
// probable state).
type OutputSpec = evaluator.OutputSpec

// EvalOutputs carries one evaluation's measurement-style outputs.
type EvalOutputs = evaluator.Outputs

// OutputEvaluator is the optional evaluator extension serving
// measurement-style outputs. All engines in this package implement it
// — including the distributed ones, which compute every output
// gather-free on the shards — and Service forwards EvalOutputs
// requests through its queue when every pool member supports them
// (EvaluatorCaps.Outputs).
type OutputEvaluator = evaluator.OutputEvaluator

// SampleStreamer is the optional evaluator extension serving chunked
// sampling: shot counts beyond MaxShotsPerRequest stream through one
// SampleChunkSize buffer instead of a shot-count-sized allocation.
// The single-node engines and Service implement it; Service forwards
// StreamSamples through its queue when every pool member supports it
// (EvaluatorCaps.Streaming).
type SampleStreamer = evaluator.SampleStreamer

const (
	// MaxShotsPerRequest bounds OutputSpec.Shots on the buffered
	// EvalOutputs path; larger shot counts go through SampleStreamer.
	MaxShotsPerRequest = evaluator.MaxShotsPerRequest
	// SampleChunkSize is the chunk length of the streaming sample path.
	SampleChunkSize = evaluator.SampleChunkSize
)

// Service is the concurrent evaluation service: a FIFO request queue
// feeding an elastic pool of evaluators. Safe for concurrent use;
// implements Evaluator itself, so services compose. Build one with
// NewRegistryService (a registered problem) or NewElasticService
// (explicit factories; StaticFactory wraps a live evaluator).
type Service = serve.Service

// StaticFactory wraps one live evaluator — an engine built by hand, a
// Service composed inside another, a light-cone engine over a graph too
// large for the registry — as an EvaluatorFactory. Its single build is
// ev itself, so a service over it never runs more than
// ev.Caps().MaxConcurrent concurrent evaluations on ev, whatever
// MaxWorkers says; MinWorkers == MaxWorkers == k gives a fixed pool of
// k workers.
func StaticFactory(ev Evaluator) EvaluatorFactory { return evaluator.Static(ev) }

// newSimService serves sim through one worker over a one-worker sweep
// engine: one pooled state buffer for a whole optimization.
func newSimService(sim *Simulator) (*Service, error) {
	eng := sweep.New(sim, sweep.Options{Workers: 1})
	return NewElasticService([]EvaluatorFactory{StaticFactory(eng)}, ElasticOptions{MinWorkers: 1, MaxWorkers: 1})
}

// NewGradEvaluator exposes the pooled adjoint engine as an Evaluator —
// useful for assembling heterogeneous pools through StaticFactory.
// (Service objectives come from the service itself: Service.Objective
// feeds the derivative-free optimizers, Service.GradObjective the
// gradient ones.)
func NewGradEvaluator(sim *Simulator) Evaluator { return grad.New(sim) }
