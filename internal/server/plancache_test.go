package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sparse"
)

// TestPlanKeyDiscriminatesSource: a materializing job, a streamed
// synthetic job and a streamed file job of the same shape and plan
// describe different arrays, so none may be served another's cached
// plan (planKey's stream and source fields).
func TestPlanKeyDiscriminatesSource(t *testing.T) {
	var buf bytes.Buffer
	if err := sparse.WriteText(&buf, sparse.FromDense(sparse.Uniform(64, 64, 0.1, 1))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(Config{})
	for _, spec := range []JobSpec{
		{N: 64},
		{N: 64, Stream: true},
		{N: 64, Stream: true, SourceFile: path},
	} {
		st := runSpec(s, spec.withDefaults())
		if st.State != StateDone {
			t.Fatalf("%+v: state %q, error %q", spec, st.State, st.Error)
		}
		if st.Result.PlanCacheHit {
			t.Errorf("%+v: served another source's cached plan", spec)
		}
	}
	if hits, misses := s.plans.hits.Load(), s.plans.misses.Load(); hits != 0 || misses != 3 {
		t.Errorf("plan cache hits/misses = %d/%d, want 0/3", hits, misses)
	}
}
