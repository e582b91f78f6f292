package dist

// Session: concurrent distributions over one shared machine.
//
// A machine.Machine is a fixed set of p emulated processors; nothing
// about it is specific to one array. A Session lets several arrays be
// distributed over the same processors at once — each plan's frames
// travel on a tag range drawn from the machine's allocator, and a rank's
// inbox hands each receive only the frames it matches, so concurrent
// runs can never steal each other's messages. Virtual costs are per-plan and
// unaffected by the interleaving: each Result's Breakdown counts
// exactly the messages, elements and operations of its own plan.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Session multiplexes distribution plans over one machine.
type Session struct {
	m *machine.Machine
}

// NewSession wraps a machine for concurrent distributions.
func NewSession(m *machine.Machine) *Session { return &Session{m: m} }

// DistributeAll runs every plan concurrently over the shared machine
// and returns the results in plan order. Plans fail or succeed
// independently; the joined error reports every failure. This is the
// batched entry the CLIs use to distribute several arrays (or several
// scheme variants of one array) without serialising on the machine.
func (s *Session) DistributeAll(plans []Plan) ([]*Result, error) {
	results := make([]*Result, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(s.m, plans[i])
			if err != nil {
				errs[i] = fmt.Errorf("dist: Session plan %d: %w", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}
