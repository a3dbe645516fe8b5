package evaluator

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Factory builds evaluators on demand so a scheduler can grow and
// shrink capacity instead of being handed live engine pointers at
// construction. Cost metadata is available *before* the first build —
// Caps() must not require New() to have been called — which is what
// lets an elastic pool pack heterogeneous evaluators (float64/float32/
// quantized, local/sharded/light-cone) against a memory budget before
// paying for any of them.
//
// Implementations are free to share heavy immutable state (a problem
// diagonal, per-rank shards, a cone decomposition) across builds and
// refcount it: New/Retire pairs bracket the lifetime of one evaluator,
// and a factory may only release shared state once every evaluator it
// built has been retired.
type Factory interface {
	// Caps reports the capability and cost metadata of the evaluators
	// this factory builds. StateBytes is the per-build pinned memory
	// (the cost-model term an elastic scheduler budgets against);
	// MaxConcurrent is the per-build worker capacity.
	Caps() Caps

	// New builds one evaluator. ctx bounds construction work only
	// (e.g. a registry acquire or a diagonal precompute), not the
	// evaluator's lifetime.
	New(ctx context.Context) (Evaluator, error)

	// Retire releases an evaluator obtained from New. After Retire the
	// evaluator must not be used; shared state is reclaimed when the
	// last outstanding build is retired.
	Retire(ev Evaluator) error
}

// ErrNoCapacity is the refusal a Factory's New returns when it cannot
// supply another evaluator right now (Static, while its evaluator is
// bound). It is not a failure: a scheduler treats it like a memory-
// budget refusal and runs with the capacity it already has.
var ErrNoCapacity = errors.New("evaluator: no capacity")

// Static wraps one live evaluator as a Factory, so a caller holding an
// engine (a CLI's simulator, a test double, a Service composed inside
// another, the >64-vertex light-cone engine) schedules it like any
// other build. Caps reports ev.Caps(); New returns ev, or ErrNoCapacity
// while ev is already bound; Retire releases it. A scheduler therefore
// never runs more than ev.Caps().MaxConcurrent concurrent calls on ev.
func Static(ev Evaluator) Factory { return &static{ev: ev} }

type static struct {
	ev Evaluator

	mu    sync.Mutex
	bound bool
}

func (s *static) Caps() Caps { return s.ev.Caps() }

func (s *static) New(ctx context.Context) (Evaluator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound {
		return nil, ErrNoCapacity
	}
	s.bound = true
	return s.ev, nil
}

func (s *static) Retire(ev Evaluator) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound || ev != s.ev {
		return fmt.Errorf("evaluator: Retire of an evaluator this factory does not have bound")
	}
	s.bound = false
	return nil
}
