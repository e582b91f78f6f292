package machine

import "sync"

// Wire-buffer pool: steady-state distribution reuses []float64 payload
// buffers instead of allocating one per part.
//
// Ownership protocol (see DESIGN.md "Root pipeline"):
//
//   - An encoder takes a buffer with GetBuf and owns it exclusively
//     while filling it.
//   - Sending the buffer with Proc.SendBuf(..., pooled=true) transfers
//     ownership to the receiver along with the message; the sender must
//     not touch the slice afterwards.
//   - The receiver releases it with ReleaseMessage once it has fully
//     decoded the payload (decoders copy data out, never alias it).
//   - Transports that may retain or re-deliver a sent payload (fault
//     injection, see PayloadRetainer) strip the pooled mark at send
//     time, so such payloads are never recycled while a duplicate could
//     still read them. The reliability layer is not one of them: it
//     copies the payload into a frame of its own and returns a pooled
//     one to the pool at once.
//
// Two sync.Pools cooperate so the steady state allocates nothing: one
// holds slice headers with live backing arrays, the other recycles the
// emptied headers (a *[]float64 is pointer-shaped, so moving it through
// an interface does not allocate).

var (
	wireBufs   sync.Pool // *[]float64 with backing arrays ready for reuse
	wireBufHdr sync.Pool // *[]float64 spare headers (nil slices)
)

// GetBuf returns a zero-length buffer with capacity at least n, reusing
// a pooled backing array when one is available. Append into it; the
// grown slice is what travels on the wire.
func GetBuf(n int) []float64 {
	if p, _ := wireBufs.Get().(*[]float64); p != nil {
		s := (*p)[:0]
		*p = nil
		wireBufHdr.Put(p)
		if cap(s) >= n {
			return s
		}
		// Too small for this part: let it be collected and size up. The
		// pool converges on the run's largest part after one round.
	}
	return make([]float64, 0, n)
}

// PutBuf returns a buffer's backing array to the pool. The caller must
// not use the slice (or any alias of it) afterwards.
func PutBuf(s []float64) {
	if cap(s) == 0 {
		return
	}
	p, _ := wireBufHdr.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = s[:0]
	wireBufs.Put(p)
}

// ReleaseMessage returns msg's payload to the wire-buffer pool if the
// sender marked it poolable, and nils the reference either way. Call it
// exactly once, after the payload has been fully decoded.
func ReleaseMessage(msg *Message) {
	if msg.Pooled {
		PutBuf(msg.Data)
		msg.Pooled = false
	}
	msg.Data = nil
}

// PayloadRetainer is implemented by transports that may retain or
// re-deliver a sent payload slice after Send returns (duplication,
// reordering). Proc.SendBuf consults it: over a retaining transport the
// pooled mark is dropped, so receivers never recycle a buffer a second
// delivery could still read.
type PayloadRetainer interface {
	RetainsPayloads() bool
}

func transportRetainsPayloads(t Transport) bool {
	r, ok := t.(PayloadRetainer)
	return ok && r.RetainsPayloads()
}

// RetainsPayloads implements PayloadRetainer: fault injection may
// duplicate or mutate payloads after Send returns.
func (t *FaultTransport) RetainsPayloads() bool { return true }
