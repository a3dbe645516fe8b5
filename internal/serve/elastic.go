// Elastic scheduling: the Service's worker pool grows and shrinks from
// observed queue depth. Workers are built on demand from
// evaluator.Factory descriptors — so the pool can pack heterogeneous
// capacity (float64/float32/quantized simulators, sharded rank groups,
// light-cone fan-outs) against one memory budget using each factory's
// up-front Caps().StateBytes cost metadata — and retire back to their
// factories after sitting idle, returning state-vector-scale memory.
// A live evaluator joins through evaluator.Static, whose single build
// caps the pool at the evaluator's Caps().MaxConcurrent workers.
//
// Scale-up happens at push time (a queued task with no idle worker
// spawns one, up to MaxWorkers and the budget); scale-down happens at
// pop time (a worker above the MinWorkers floor that stays idle past
// IdleDecay exits and, when it was its evaluator's last worker,
// retires the evaluator).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qokit/internal/evaluator"
)

// ElasticOptions configures a service's pool. The zero value gives a
// pool with floor 1, a ceiling of the factories' combined preferred
// capacity, no memory budget, and a 100 ms idle decay.
type ElasticOptions struct {
	// MinWorkers is the pool floor, capped by what MemoryBudget admits
	// (≤ 0 means 1): that many workers start immediately and never
	// decay, so the degenerate MinWorkers == MaxWorkers configuration
	// is a fixed pool. A floor worker that finds no spare capacity and
	// whose build the budget refuses exits, so LiveWorkers can sit
	// below MinWorkers for as long as the budget is full.
	MinWorkers int
	// MaxWorkers caps growth (≤ 0 means the sum of the factories'
	// per-build MaxConcurrent, with GOMAXPROCS standing in for
	// unlimited builds).
	MaxWorkers int
	// MemoryBudget bounds the summed Caps().StateBytes of built
	// evaluators (0 = unlimited). Growth that would exceed it binds
	// spare capacity on existing builds or does not happen; the first
	// build is always allowed so the floor can serve.
	MemoryBudget int64
	// ScaleThreshold is the unserved backlog (queued tasks minus idle
	// workers) that triggers one spawn at push time (≤ 0 means 1).
	ScaleThreshold int
	// IdleDecay is how long a worker above the floor stays parked on an
	// empty queue before exiting (≤ 0 means 100 ms).
	IdleDecay time.Duration
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.MinWorkers <= 0 {
		o.MinWorkers = 1
	}
	if o.ScaleThreshold <= 0 {
		o.ScaleThreshold = 1
	}
	if o.IdleDecay <= 0 {
		o.IdleDecay = 100 * time.Millisecond
	}
	return o
}

// factorySlot is one factory plus its current builds.
type factorySlot struct {
	f      evaluator.Factory
	caps   evaluator.Caps
	builds []*build
}

// build is one evaluator and the workers bound to it. It joins its
// slot's builds before Factory.New runs, so concurrent binders see its
// spare capacity and wait on ready instead of building a redundant
// evaluator; ev and err are valid once ready is closed.
type build struct {
	slot     *factorySlot
	ready    chan struct{}
	ev       evaluator.Evaluator
	err      error
	workers  int
	capacity int // per-build worker cap (0 = unlimited)
}

// NewElastic builds a service over evaluator factories and starts its
// floor workers. All factories must be bound to the same qubit count;
// the aggregate Caps reports Grad/Outputs/Streaming only when every
// factory's builds support them, MaxConcurrent as the worker ceiling,
// and StateBytes as the memory bound (the budget when set, else the
// worst-case packing).
func NewElastic(factories []evaluator.Factory, opts ElasticOptions) (*Service, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("serve: no factories")
	}
	opts = opts.withDefaults()
	caps := factories[0].Caps()
	capacity := 0
	var maxBuild int64
	slots := make([]*factorySlot, 0, len(factories))
	for i, f := range factories {
		c := f.Caps()
		if c.NumQubits != caps.NumQubits {
			return nil, fmt.Errorf("serve: factory %d is bound to n=%d, factory 0 to n=%d",
				i, c.NumQubits, caps.NumQubits)
		}
		caps.Grad = caps.Grad && c.Grad
		caps.Outputs = caps.Outputs && c.Outputs
		caps.Streaming = caps.Streaming && c.Streaming
		caps.Ranks = max(caps.Ranks, c.Ranks)
		pref := c.MaxConcurrent
		if pref <= 0 {
			pref = runtime.GOMAXPROCS(0)
		}
		capacity += pref
		maxBuild = max(maxBuild, c.StateBytes)
		slots = append(slots, &factorySlot{f: f, caps: c})
	}
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = capacity
	}
	opts.MaxWorkers = max(opts.MaxWorkers, opts.MinWorkers)
	caps.MaxConcurrent = opts.MaxWorkers
	if opts.MemoryBudget > 0 {
		caps.StateBytes = opts.MemoryBudget
	} else {
		caps.StateBytes = int64(opts.MaxWorkers) * maxBuild
	}

	s := &Service{caps: caps, opts: opts, slots: slots}
	s.cond = sync.NewCond(&s.mu)
	s.taskPool.New = func() interface{} {
		return &task{done: make(chan struct{}, 1)}
	}
	s.mu.Lock()
	for i := 0; i < opts.MinWorkers; i++ {
		s.spawnLocked()
	}
	s.mu.Unlock()
	return s, nil
}

// LiveWorkers reports the current worker count, including workers
// still binding an evaluator.
func (s *Service) LiveWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// PeakWorkers reports the pool's high-water mark.
func (s *Service) PeakWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// maybeGrowLocked spawns one worker when the unserved backlog crosses
// the threshold (s.mu held, called from push). The worker binds its
// evaluator on its own goroutine, so a slow first build never blocks
// the submitter.
func (s *Service) maybeGrowLocked() {
	backlog := len(s.queue) - s.head - s.idle
	if backlog < s.opts.ScaleThreshold || s.live >= s.opts.MaxWorkers {
		return
	}
	s.spawnLocked()
}

// spawnLocked starts one worker (s.mu held, service open).
func (s *Service) spawnLocked() {
	s.live++
	s.peak = max(s.peak, s.live)
	s.wg.Add(1)
	go s.elasticWorker()
}

// elasticWorker binds an evaluator (building one if needed) and serves
// tasks until close or idle decay; popElastic releases it on exit.
func (s *Service) elasticWorker() {
	defer s.wg.Done()
	b := s.bind()
	if b == nil {
		return
	}
	for {
		t := s.popElastic(b)
		if t == nil {
			return
		}
		s.serveTask(b.ev, t)
	}
}

// bind attaches the calling worker to a build with spare capacity, or
// builds a new evaluator from the cheapest factory that fits the
// remaining memory budget. A nil return means the worker could not be
// supplied — the budget is exhausted with no spare capacity, the
// factory refused (evaluator.ErrNoCapacity), or New failed — and has
// already been discounted from live.
func (s *Service) bind() *build {
	s.mu.Lock()
	b := s.spareLocked()
	if b == nil {
		slot := s.cheapestFitLocked()
		if slot == nil {
			stranded := s.refuseLocked()
			s.mu.Unlock()
			s.failAll(stranded, errors.New("serve: pool has no workers: memory budget admits no evaluator"))
			return nil
		}
		// Charge the budget while building so concurrent binds cannot
		// collectively overshoot it.
		b = &build{slot: slot, ready: make(chan struct{}), workers: 1, capacity: slot.caps.MaxConcurrent}
		slot.builds = append(slot.builds, b)
		s.usedBytes += slot.caps.StateBytes
		s.mu.Unlock()

		ev, err := slot.f.New(context.Background())

		s.mu.Lock()
		b.ev, b.err = ev, err
		if err != nil {
			s.dropLocked(b)
			if !errors.Is(err, evaluator.ErrNoCapacity) && s.err == nil {
				s.err = err
			}
		}
		close(b.ready)
	}
	s.mu.Unlock()
	<-b.ready
	if b.err == nil {
		return b
	}
	s.mu.Lock()
	stranded := s.refuseLocked()
	s.mu.Unlock()
	s.failAll(stranded, fmt.Errorf("serve: pool has no workers: %w", b.err))
	return nil
}

// spareLocked claims a worker slot on a build (finished or still in
// Factory.New) with spare capacity — free capacity is preferred over a
// new build. Nil means every build is full.
func (s *Service) spareLocked() *build {
	for _, slot := range s.slots {
		for _, b := range slot.builds {
			if b.capacity == 0 || b.workers < b.capacity {
				b.workers++
				return b
			}
		}
	}
	return nil
}

// cheapestFitLocked picks the cheapest factory fitting the budget, or
// nil. The first build ever is exempt so a too-small budget degrades
// to one evaluator instead of a pool that can serve nothing. The
// exemption is keyed on charged bytes, not finished builds: usedBytes
// is charged before Factory.New runs, so only one of several
// concurrent cold binders can take it.
func (s *Service) cheapestFitLocked() *factorySlot {
	var slot *factorySlot
	haveAny := s.usedBytes > 0
	for _, cand := range s.slots {
		if haveAny && s.opts.MemoryBudget > 0 && s.usedBytes+cand.caps.StateBytes > s.opts.MemoryBudget {
			continue
		}
		if slot == nil || cand.caps.StateBytes < slot.caps.StateBytes {
			slot = cand
		}
	}
	return slot
}

// refuseLocked discounts a worker that got no evaluator. When it was
// the last worker and no retire is in flight to free capacity (retire
// refills the pool), no worker will ever serve the queue: the queued
// tasks are returned for the caller to fail rather than hang.
func (s *Service) refuseLocked() []*task {
	s.live--
	if s.live > 0 || s.retiring > 0 || s.closed {
		return nil
	}
	stranded := append([]*task(nil), s.queue[s.head:]...)
	clear(s.queue)
	s.queue = s.queue[:0]
	s.head = 0
	return stranded
}

// dropLocked removes b from its slot and uncharges its bytes.
func (s *Service) dropLocked(b *build) {
	builds := b.slot.builds
	for i, ob := range builds {
		if ob == b {
			builds[i] = builds[len(builds)-1]
			builds[len(builds)-1] = nil
			b.slot.builds = builds[:len(builds)-1]
			break
		}
	}
	s.usedBytes -= b.slot.caps.StateBytes
}

// popElastic blocks for the oldest live task for a worker bound to b. Tasks
// whose context is already cancelled are settled here and never
// returned: a queue full of dead requests costs the popping worker a
// scan, not one worker occupancy per corpse. A nil return is the
// worker's exit — the service closed, or the worker sat idle above
// the floor past IdleDecay — and the worker has then already left both
// live and b.workers, in one critical section, so a worker spawned
// meanwhile never sees b full while its departing worker leaves.
// Floor workers wait untimed: the steady-state path arms no timers and
// allocates nothing.
func (s *Service) popElastic(b *build) *task {
	for {
		s.mu.Lock()
		var decay *time.Timer
		expired, exit := false, false
		for !s.closed && s.head == len(s.queue) {
			if expired {
				if s.live > s.opts.MinWorkers {
					exit = true
					break
				}
				// The pool shrank to the floor while this worker's timer
				// ran: it is now a floor worker and parks untimed.
				expired = false
				decay = nil
			}
			if decay == nil && s.live > s.opts.MinWorkers {
				decay = time.AfterFunc(s.opts.IdleDecay, func() {
					s.mu.Lock()
					expired = true
					s.mu.Unlock()
					s.cond.Broadcast()
				})
			}
			s.idle++
			s.cond.Wait()
			s.idle--
		}
		if decay != nil {
			decay.Stop()
		}
		if exit || s.head == len(s.queue) {
			s.live--
			b.workers--
			last := b.workers == 0
			if last {
				s.dropLocked(b)
				s.retiring++
			}
			s.mu.Unlock()
			if last {
				s.retire(b)
			}
			return nil
		}
		t := s.dequeueLocked()
		s.mu.Unlock()
		if err := t.ctx.Err(); err != nil {
			s.finish(t, 0, err)
			continue
		}
		return t
	}
}

// retire returns a build's evaluator to its factory, latches a failure
// for Close, and restores the floor if binders refused while the
// evaluator was still out (a Static factory refuses until Retire).
func (s *Service) retire(b *build) {
	err := b.slot.f.Retire(b.ev)
	s.mu.Lock()
	s.retiring--
	if err != nil && s.err == nil {
		s.err = err
	}
	if !s.closed {
		for s.live < s.opts.MinWorkers {
			s.spawnLocked()
		}
	}
	s.mu.Unlock()
}
