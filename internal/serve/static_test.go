package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"qokit/internal/evaluator"
)

// TestStaticCapsConcurrency: a live evaluator behind evaluator.Static
// never runs more than its Caps().MaxConcurrent calls at once, however
// far MaxWorkers lets the pool grow — workers beyond the build's
// capacity are refused with ErrNoCapacity and exit — and that refusal
// is not an error: the batch drains and Close returns nil.
func TestStaticCapsConcurrency(t *testing.T) {
	const points = 8
	fe := &fakeEval{n: 4, grad: true, conc: 2, gate: make(chan struct{})}
	svc, err := NewElastic([]evaluator.Factory{evaluator.Static(fe)}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: 4, IdleDecay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, points)
	for i := range xs {
		xs[i] = flat(float64(i), 0)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.EnergyBatch(context.Background(), xs, nil)
		done <- err
	}()
	waitInFlight(t, &fe.inFlight, 2)
	time.Sleep(20 * time.Millisecond) // let growth past the capacity be tried
	for i := 0; i < points; i++ {
		fe.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := fe.maxSeen.Load(); got != 2 {
		t.Errorf("max in-flight %d on a MaxConcurrent-2 evaluator, want exactly 2", got)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("Close = %v; capacity refusals are not errors", err)
	}
}

// errFactory is a fakeFactory whose New or Retire fails.
type errFactory struct {
	fakeFactory
	newErr, retireErr error
}

func (f *errFactory) New(ctx context.Context) (evaluator.Evaluator, error) {
	if f.newErr != nil {
		return nil, f.newErr
	}
	return f.fakeFactory.New(ctx)
}

func (f *errFactory) Retire(ev evaluator.Evaluator) error {
	f.fakeFactory.Retire(ev)
	return f.retireErr
}

// TestElasticBuildErrorStrandsQueue: when every build fails, no worker
// will ever serve the queue, so a queued request fails with the
// wrapped build error instead of hanging, and Close reports the error.
func TestElasticBuildErrorStrandsQueue(t *testing.T) {
	errBuild := errors.New("injected build failure")
	f := &errFactory{fakeFactory: fakeFactory{n: 4, perBuild: 1, stateBytes: 1}, newErr: errBuild}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{MinWorkers: 1, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Energy(context.Background(), flat(1, 0)); !errors.Is(err, errBuild) {
		t.Errorf("queued request returned %v, want the wrapped build error", err)
	}
	if err := svc.Close(); !errors.Is(err, errBuild) {
		t.Errorf("Close = %v, want the build error", err)
	}
}

// TestElasticRetireErrorSurfaces: a failed Retire has no request to
// fail, so Close reports it.
func TestElasticRetireErrorSurfaces(t *testing.T) {
	errRetire := errors.New("injected retire failure")
	f := &errFactory{fakeFactory: fakeFactory{n: 4, perBuild: 1, stateBytes: 1}, retireErr: errRetire}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{MinWorkers: 1, MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Energy(context.Background(), flat(2, 0)); err != nil || got != -2 {
		t.Fatalf("Energy = %v, %v; want -2", got, err)
	}
	if err := svc.Close(); !errors.Is(err, errRetire) {
		t.Errorf("Close = %v, want the retire error", err)
	}
	if err := svc.Close(); !errors.Is(err, errRetire) {
		t.Errorf("second Close = %v, want the same retire error", err)
	}
}

// TestElasticDecayBindOrdering stresses the window between a worker's
// idle decay and its release from its build. One build of capacity
// 2 == MaxWorkers holds the floor worker for good, so every worker the
// pool grows fits on it and no second evaluator may ever be built. Each
// cycle holds one worker on a gated request while the other idles for
// about IdleDecay, then submits a second request — growth that can land
// just as the idle worker decays, and must not find the build full.
func TestElasticDecayBindOrdering(t *testing.T) {
	f := &fakeFactory{n: 4, perBuild: 2, stateBytes: 1, gate: make(chan struct{}, 2)}
	svc, err := NewElastic([]evaluator.Factory{f}, ElasticOptions{
		MinWorkers: 1, MaxWorkers: 2, IdleDecay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	errs := make(chan error, 2)
	submit := func(x float64) {
		_, err := svc.Energy(context.Background(), flat(x, 0))
		errs <- err
	}
	for cycle := 0; cycle < 400; cycle++ {
		go submit(1)
		time.Sleep(time.Duration(800+rng.Intn(600)) * time.Microsecond)
		go submit(2)
		f.gate <- struct{}{}
		f.gate <- struct{}{}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if built, _ := f.counts(); built != 1 {
			t.Fatalf("cycle %d: %d evaluators built, want 1", cycle, built)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if built, retired := f.counts(); built != 1 || retired != 1 {
		t.Errorf("built %d, retired %d evaluators; want exactly 1 of each", built, retired)
	}
}
