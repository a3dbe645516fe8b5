package evaluator

import (
	"context"
	"errors"
	"testing"
)

type stubEval struct{ id int }

func (stubEval) Energy(context.Context, []float64) (float64, error)                { return 0, nil }
func (stubEval) EnergyGrad(context.Context, []float64, []float64) (float64, error) { return 0, nil }
func (stubEval) Caps() Caps                                                        { return Caps{NumQubits: 3, MaxConcurrent: 2} }

// TestStaticBindsOnce: Static hands out its evaluator once, refuses
// with ErrNoCapacity until it is retired, and rejects foreign retires.
func TestStaticBindsOnce(t *testing.T) {
	ev := &stubEval{}
	f := Static(ev)
	if c := f.Caps(); c != ev.Caps() {
		t.Errorf("Caps %+v, want the evaluator's %+v", c, ev.Caps())
	}
	got, err := f.New(context.Background())
	if err != nil || got != Evaluator(ev) {
		t.Fatalf("first New = %v, %v; want the wrapped evaluator", got, err)
	}
	if _, err := f.New(context.Background()); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("New while bound = %v, want ErrNoCapacity", err)
	}
	if err := f.Retire(&stubEval{id: 1}); err == nil {
		t.Error("Retire of a foreign evaluator accepted")
	}
	if err := f.Retire(ev); err != nil {
		t.Fatal(err)
	}
	if err := f.Retire(ev); err == nil {
		t.Error("double Retire accepted")
	}
	if got, err := f.New(context.Background()); err != nil || got != Evaluator(ev) {
		t.Errorf("New after Retire = %v, %v; want the wrapped evaluator", got, err)
	}
}
