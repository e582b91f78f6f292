// Package trace renders a run's phase table: the virtual clock's
// estimate of each paper phase beside its measured wall time. A run's
// message-level events live in the simnet recorder, on the virtual
// clock, and simnet's Timeline draws them.
package trace

// Tracer records nothing; goes when bench stops calling it (ROADMAP 21a).
type Tracer struct{}

// New records nothing; goes when bench stops calling it (ROADMAP 21a).
func New() *Tracer { return &Tracer{} }
