package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestServerCloseLeavesNoGoroutines runs jobs through the daemon's
// handler, each on a machine checked out of the pool and returned to
// it, then closes the server: the workers, the pooled machines and
// anything they started must be gone once the goroutine count settles.
func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{QueueDepth: 8, Workers: 2})
	var ids []string
	for _, spec := range []string{
		`{"n":32,"procs":4,"scheme":"ED"}`,
		`{"n":32,"procs":4,"scheme":"CFS","op":"spmv"}`,
		`{"n":24,"procs":2,"scheme":"SFC"}`,
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(spec)))
		var out struct {
			ID string `json:"id"`
		}
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			t.Fatalf("submit %s: %d %s", spec, rec.Code, rec.Body)
		}
		ids = append(ids, out.ID)
	}
	waitFor(t, 30*time.Second, "every job to finish", func() bool {
		for _, id := range ids {
			if j, ok := s.lookup(id); !ok || !j.status().State.terminal() {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		j, _ := s.lookup(id)
		if st := j.status(); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if s.pool.idleCount() == 0 {
		t.Fatal("no machine went back to the pool")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := machine.SettledGoroutines(before, 2*time.Second); got > before {
		t.Errorf("%d goroutines after Close, %d before the server was built", got, before)
	}
}
