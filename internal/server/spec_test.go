package server

// The request path, white-box: the shared bad-request table, the
// agreement between JobSpec.validate and core.Config.Validate, the
// defaulted-spec echo clients read back, and the fuzz target over the
// whole decode → defaults → validate → plan chain.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/sparse"
)

// BadRequests is every request body the daemon must answer with a 400
// under Limits{MaxN: 256, MaxProcs: 8}: TestBadRequests posts them over
// HTTP, TestValidateAgreesWithCore holds the validator to core's words
// on them, and FuzzJobSpec starts from them.
var BadRequests = []struct{ Name, Body string }{
	{"malformed json", `{"n":`},
	{"unknown field", `{"n":64,"frobnicate":1}`},
	{"negative n", `{"n":-5}`},
	{"n over limit", `{"n":100000}`},
	{"ratio over 1", `{"n":64,"ratio":1.5}`},
	{"negative ratio", `{"n":64,"ratio":-0.25}`},
	{"unknown scheme", `{"n":64,"scheme":"XXX"}`},
	{"unknown partition", `{"n":64,"partition":"diagonal"}`},
	{"unknown method", `{"n":64,"method":"COO"}`},
	{"negative procs", `{"n":64,"procs":-2}`},
	{"procs over limit", `{"n":64,"procs":999}`},
	{"half a mesh", `{"n":64,"mesh_rows":2}`},
	{"negative mesh", `{"n":64,"mesh_rows":-1,"mesh_cols":-1}`},
	{"mesh over limit", `{"n":64,"mesh_rows":4,"mesh_cols":4}`},
	{"mesh product wraps", `{"n":64,"partition":"mesh","mesh_rows":4294967296,"mesh_cols":4294967296}`},
	{"negative workers", `{"n":64,"workers":-1}`},
	{"negative block", `{"n":64,"block":-3}`},
	// Malformed HPF descriptors: admitted (202) and failed on a worker
	// before admission asked core.
	{"descriptor unknown axis", `{"n":32,"partition":"(Bogus,*)"}`},
	{"descriptor distributes nothing", `{"n":32,"partition":"(*,*)"}`},
	{"descriptor block-cyclic columns", `{"n":32,"partition":"(*,Cyclic(2))"}`},
	{"descriptor unterminated", `{"n":32,"partition":"(Block"}`},
	// The bodies of TestAutoValidation, then the fields of the streamed
	// jobs the daemon does not serve: unknown, so a decode error.
	{"auto with method", `{"n":64,"scheme":"auto","method":"CRS"}`},
	{"auto with stream", `{"n":64,"scheme":"auto","stream":true}`},
	{"auto with stream and file", `{"n":64,"scheme":"auto","stream":true,"source_file":"x.mtx"}`},
	{"file without stream", `{"source_file":"a.mtx"}`},
	{"budget without stream", `{"mem_budget":1048576}`},
	{"negative budget", `{"stream":true,"mem_budget":-1}`},
}

// decodeSpec is handleSubmit's decoding step.
func decodeSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// TestValidateAgreesWithCore: every row of the bad-request table is
// rejected, and whenever core.Config.Validate rejects the spec's
// config the service answers in core's words — the doors agree.
func TestValidateAgreesWithCore(t *testing.T) {
	limits := Limits{MaxN: 256, MaxProcs: 8}
	fromCore := 0
	for _, tc := range BadRequests {
		spec, err := decodeSpec([]byte(tc.Body))
		if err != nil {
			continue // rejected before validation
		}
		spec = spec.withDefaults()
		err = spec.validate(limits)
		if err == nil {
			t.Errorf("%s: %s accepted", tc.Name, tc.Body)
			continue
		}
		if verr := spec.config(Config{}).Validate(); verr != nil {
			fromCore++
			if err.Error() != verr.Error() {
				t.Errorf("%s: core says %q, the service says %q", tc.Name, verr, err)
			}
		}
	}
	if fromCore < 10 {
		t.Errorf("only %d rows reached core.Config.Validate; the table no longer covers the shared rules", fromCore)
	}
}

// TestDefaultedSpecEcho pins the defaulted spec GET /jobs/{id} echoes
// to what the parent returned: clients read their resolved request
// back from it.
func TestDefaultedSpecEcho(t *testing.T) {
	s := newServer(Config{QueueDepth: 4}) // no workers: the jobs stay queued
	ts := httptest.NewServer(s)
	defer ts.Close()
	for body, want := range map[string]string{
		`{"n":64}`:                 `{"n":64,"ratio":0.1,"seed":1,"scheme":"ED","partition":"row","procs":4,"block":1,"method":"CRS"}`,
		`{"n":64,"scheme":"auto"}`: `{"n":64,"ratio":0.1,"seed":1,"scheme":"AUTO","procs":4,"block":1}`,
	} {
		resp, err := http.Get(ts.URL + "/jobs/" + decodeID(t, postJob(t, ts, body)))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Spec json.RawMessage `json:"spec"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(st.Spec) != want {
			t.Errorf("spec echoed for %s:\n got %s\nwant %s", body, st.Spec, want)
		}
	}
}

// FuzzJobSpec drives arbitrary bytes through the daemon's request path
// — decode, defaults, validation under small limits — and, for every
// accepted spec, on into the plan builder: nothing may panic, the
// defaults are idempotent, and admission
// is complete — what validate accepts, core.NewPlan builds (the bug
// class where a 202 turned into a failure on a worker).
func FuzzJobSpec(f *testing.F) {
	for _, tc := range BadRequests {
		f.Add([]byte(tc.Body))
	}
	for _, ok := range []string{
		`{"n":24}`,
		`{"n":24,"scheme":"auto","partition":"mesh","procs":6}`,
		`{"n":24,"partition":"balanced-row","op":"spmv"}`,
		`{"n":16,"partition":"(Cyclic(2),*)","procs":3,"method":"jds"}`,
		`{"n":16,"partition":"cyclic-mesh","mesh_rows":2,"mesh_cols":3,"block":2,"op":"jacobi","op_iters":5}`,
	} {
		f.Add([]byte(ok))
	}
	limits := Limits{MaxN: 48, MaxProcs: 16}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(body)
		if err != nil {
			return
		}
		d := spec.withDefaults()
		if again := d.withDefaults(); again != d {
			t.Fatalf("withDefaults is not idempotent: %+v then %+v", d, again)
		}
		if d.validate(limits) != nil {
			return
		}
		cfg := d.config(Config{})
		g := sparse.UniformExact(d.N, d.N, d.Ratio, d.Seed)
		if core.IsAutoScheme(cfg.Scheme) {
			if cfg, _, err = core.ResolveAutoStats(costmodel.MeasureStats(g), cfg); err != nil {
				t.Fatalf("accepted auto spec %+v does not resolve: %v", d, err)
			}
		}
		if _, err := core.NewPlan(g, cfg.Normalized()); err != nil {
			t.Fatalf("accepted spec %+v does not plan: %v", d, err)
		}
	})
}
