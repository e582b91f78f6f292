package machine

import "fmt"

// Additional MPI-style collectives. Like Barrier/Bcast/Gather these use
// reserved negative tags and are not charged to cost counters: the
// paper's analysis models only the distribution traffic itself.

const tagReduce = -6

// ReduceOp combines two equal-length vectors elementwise.
type ReduceOp func(acc, in []float64)

// SumOp adds in to acc elementwise.
func SumOp(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// Reduce combines every rank's data at root with op; the reduced vector
// is returned at root, nil elsewhere. All contributions must have the
// same length.
func (p *Proc) Reduce(root int, data []float64, op ReduceOp) ([]float64, error) {
	if root < 0 || root >= p.m.p {
		return nil, fmt.Errorf("machine: Reduce to invalid root %d", root)
	}
	if p.Rank != root {
		return nil, p.control(root, tagReduce, data)
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	for i := 0; i < p.m.p-1; i++ {
		msg, err := p.RecvFrom(-1, tagReduce)
		if err != nil {
			return nil, fmt.Errorf("machine: reduce: %w", err)
		}
		if len(msg.Data) != len(acc) {
			return nil, fmt.Errorf("machine: reduce: rank %d contributed %d values, want %d", msg.From, len(msg.Data), len(acc))
		}
		op(acc, msg.Data)
	}
	return acc, nil
}

// Allreduce is Reduce followed by Bcast: every rank receives the
// combined vector.
func (p *Proc) Allreduce(data []float64, op ReduceOp) ([]float64, error) {
	acc, err := p.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	return p.Bcast(0, acc)
}
