package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHeartbeat posts arbitrary bodies to POST /cluster/heartbeat on a
// fresh node. Only 200 or 400 may come back, every 200 must decode as a
// membership view, and the node must list itself exactly once, as
// itself: never as a peer a body taught it, whatever id the body claims
// for its sender or its gossip.
func FuzzHeartbeat(f *testing.F) {
	const self, advertise = "n1", "http://127.0.0.1:1"
	for _, body := range []string{
		`{"from":{"id":"n2","endpoint":"http://127.0.0.1:2"},"known":[{"id":"n3","endpoint":"http://127.0.0.1:3","state":"alive"}]}`,
		`{"from":{"id":"n1","endpoint":"http://127.0.0.1:9"}}`,
		`{"from":{"id":"n2"},"known":[{"id":"n1","endpoint":"http://127.0.0.1:9","state":"dead"},{"id":""}]}`,
		`{"from":{"id":"n2","last_seen":"not a time"}}`,
		`{"from":{}}`, `{}`, `null`, `[]`, `{"from":`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(Config{Cluster: ClusterConfig{NodeID: self, Advertise: advertise}})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var reply nodesReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("200 reply does not decode: %v\n%s", err, rec.Body)
		}
		if reply.Self != self {
			t.Fatalf("reply names %q as self, want %q", reply.Self, self)
		}
		listed := 0
		for _, n := range reply.Nodes {
			if n.ID != self {
				continue
			}
			listed++
			if n.State != "alive" || n.Endpoint != advertise {
				t.Fatalf("the node lists itself as %+v", n)
			}
		}
		if listed != 1 {
			t.Fatalf("the node lists itself %d times", listed)
		}
	})
}
