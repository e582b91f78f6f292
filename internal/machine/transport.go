package machine

import "fmt"

// ChanTransport is the in-process transport: Send appends the message
// straight to the destination rank's inbox. It is deterministic given a
// deterministic send order and has no serialisation overhead, which
// makes it the right substrate for virtual-clock experiments.
type ChanTransport struct {
	inboxes []msgQueue
}

// NewChanTransport creates a channel transport for p ranks.
func NewChanTransport(p int) *ChanTransport {
	return &ChanTransport{inboxes: make([]msgQueue, max(p, 0))}
}

// Ranks implements Transport.
func (t *ChanTransport) Ranks() int { return len(t.inboxes) }

// Send implements Transport. It never blocks: an inbox grows with its
// backlog.
func (t *ChanTransport) Send(msg Message) error {
	if msg.To < 0 || msg.To >= len(t.inboxes) {
		return fmt.Errorf("machine: chan transport: invalid destination %d", msg.To)
	}
	if err := t.inboxes[msg.To].push(msg); err != nil {
		return fmt.Errorf("machine: chan transport: send to rank %d: %w", msg.To, err)
	}
	return nil
}

func (t *ChanTransport) inbox(rank int) *msgQueue { return &t.inboxes[rank] }

// Close implements Transport: every inbox fails, so blocked receives
// return at once and later sends are refused. Messages already queued
// stay readable.
func (t *ChanTransport) Close() error {
	for i := range t.inboxes {
		t.inboxes[i].fail(errClosed)
	}
	return nil
}
