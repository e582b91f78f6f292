package costmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
)

// unit params where each cost is 1 second, so predicted durations read
// directly as event counts.
var unit = cost.Params{TStartup: time.Second, TData: time.Second, TOperation: time.Second}

func rowCRS(n, p int, s, sp float64) Inputs {
	return Inputs{N: n, P: p, S: s, SPrime: sp, Kind: RowPart, Method: CRS}
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func approx(t *testing.T, name string, got time.Duration, want float64) {
	t.Helper()
	if math.Abs(seconds(got)-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %gs, want %gs", name, seconds(got), want)
	}
}

func TestTable1Formulas(t *testing.T) {
	// Row partition + CRS, the paper's Table 1, with n=100, p=4, s=0.1,
	// s'=0.12. Hand-evaluated closed forms:
	n, p, s, sp := 100, 4, 0.1, 0.12
	nn := float64(n * n)
	local := float64(n/p) * float64(n)

	est, err := Predict("SFC", rowCRS(n, p, s, sp), unit)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "SFC dist", est.Distribution, float64(p)+nn)
	approx(t, "SFC comp", est.Compression, local*(1+3*sp))

	est, err = Predict("CFS", rowCRS(n, p, s, sp), unit)
	if err != nil {
		t.Fatal(err)
	}
	wire := 2*nn*s + float64(n) + float64(p)
	unpack := float64(n/p) + 1 + 2*local*sp
	approx(t, "CFS dist", est.Distribution, float64(p)+wire+(wire+unpack))
	approx(t, "CFS comp", est.Compression, nn*(1+3*s))

	est, err = Predict("ED", rowCRS(n, p, s, sp), unit)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ED dist", est.Distribution, float64(p)+2*nn*s+float64(n))
	approx(t, "ED comp", est.Compression, nn*(1+3*s)+float64(n/p)+1+2*local*sp)
}

func TestTable2Formulas(t *testing.T) {
	// Row partition + CCS (Table 2): pointer arrays now span all n
	// columns per part (p(n+1) words) and receivers convert indices.
	n, p, s := 100, 4, 0.1
	in := Inputs{N: n, P: p, S: s, Kind: RowPart, Method: CCS}
	nn := float64(n * n)
	local := float64(n/p) * float64(n)

	est, err := Predict("ED", in, unit)
	if err != nil {
		t.Fatal(err)
	}
	// Table 2 ED: T_dist = p·Ts + (2n²s + pn)·Td.
	approx(t, "ED dist", est.Distribution, float64(p)+2*nn*s+float64(p*n))
	// Comp includes the conversion: n²(1+3s) + (n + 1 + 2Ls' + Ls').
	approx(t, "ED comp", est.Compression, nn*(1+3*s)+float64(n)+1+3*local*s)

	est, err = Predict("CFS", in, unit)
	if err != nil {
		t.Fatal(err)
	}
	wire := 2*nn*s + float64(p)*(float64(n)+1)
	unpack := float64(n) + 1 + 2*local*s
	conv := local * s
	approx(t, "CFS dist", est.Distribution, float64(p)+wire+(wire+unpack+conv))
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict("SFC", Inputs{N: 0, P: 1}, unit); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Predict("SFC", Inputs{N: 4, P: 0}, unit); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Predict("XXX", rowCRS(4, 2, 0.1, 0), unit); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Predict("SFC", Inputs{N: 4, P: 4, S: 2}, unit); err == nil {
		t.Error("s=2 accepted")
	}
	if _, err := Predict("SFC", Inputs{N: 4, P: 4, S: 0.1, Kind: MeshPart, Pr: 3, Pc: 2}, unit); err == nil {
		t.Error("inconsistent mesh grid accepted")
	}
	bad := cost.Params{TStartup: -time.Second}
	if _, err := Predict("SFC", rowCRS(4, 2, 0.1, 0), bad); err == nil {
		t.Error("negative params accepted")
	}
}

func TestSPrimeDefaultsToS(t *testing.T) {
	a, err := Predict("SFC", rowCRS(100, 4, 0.1, 0), unit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict("SFC", rowCRS(100, 4, 0.1, 0.1), unit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("SPrime=0 does not default to S")
	}
}

func TestMeshLocalShape(t *testing.T) {
	in := Inputs{N: 120, P: 4, Pr: 2, Pc: 2, S: 0.1, Kind: MeshPart, Method: CRS}
	if lr, lc := in.localShape(); lr != 60 || lc != 60 {
		t.Errorf("mesh local shape = %dx%d, want 60x60", lr, lc)
	}
	est, err := Predict("SFC", in, unit)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mesh SFC comp", est.Compression, 3600*(1+0.3))
}

func TestConversionNeeded(t *testing.T) {
	cases := []struct {
		kind   PartitionKind
		method Method
		want   bool
	}{
		{RowPart, CRS, false}, // Case 3.2.1
		{RowPart, CCS, true},  // Case 3.2.2
		{ColPart, CCS, false}, // Case 3.2.1 (column dual)
		{ColPart, CRS, true},  // Case 3.2.2 (column dual)
		{MeshPart, CRS, true}, // Case 3.2.3
		{MeshPart, CCS, true}, // Case 3.2.3
	}
	for _, c := range cases {
		in := Inputs{Kind: c.kind, Method: c.method}
		if got := in.conversionNeeded(); got != c.want {
			t.Errorf("conversionNeeded(%v, %v) = %v, want %v", c.kind, c.method, got, c.want)
		}
	}
}

// predictByScheme indexes PredictAllOrdered's result by scheme name.
func predictByScheme(t *testing.T, in Inputs, params cost.Params) map[string]Estimate {
	t.Helper()
	ordered, err := PredictAllOrdered(in, params)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]Estimate, len(ordered))
	for _, se := range ordered {
		out[se.Scheme] = se.Estimate
	}
	return out
}

func TestPredictAllOrderingAtPaperRatio(t *testing.T) {
	// With the paper's estimated T_Data = 1.2·T_Operation and s = 0.1:
	// row partition → SFC best overall (paper §5.1 observation 2);
	// column partition → ED best overall (paper §5.2).
	params := cost.DefaultParams
	row := Inputs{N: 1000, P: 16, S: 0.1, Kind: RowPart, Method: CRS}
	all := predictByScheme(t, row, params)
	if !(all["SFC"].Total() < all["CFS"].Total() && all["SFC"].Total() < all["ED"].Total()) {
		t.Errorf("row partition: SFC not best overall: SFC %v CFS %v ED %v",
			all["SFC"].Total(), all["CFS"].Total(), all["ED"].Total())
	}
	// Dist ordering (Remarks 1-2) must hold regardless.
	if !(all["ED"].Distribution < all["CFS"].Distribution && all["CFS"].Distribution < all["SFC"].Distribution) {
		t.Error("row partition: distribution ordering violated")
	}
	// Compression ordering (Remark 3).
	if !(all["SFC"].Compression < all["CFS"].Compression && all["CFS"].Compression < all["ED"].Compression) {
		t.Error("row partition: compression ordering violated")
	}

	col := Inputs{N: 1000, P: 16, S: 0.1, Kind: ColPart, Method: CRS}
	allC := predictByScheme(t, col, params)
	if !(allC["ED"].Total() < allC["CFS"].Total() && allC["CFS"].Total() < allC["SFC"].Total()) {
		t.Errorf("col partition: expected ED < CFS < SFC overall, got SFC %v CFS %v ED %v",
			allC["SFC"].Total(), allC["CFS"].Total(), allC["ED"].Total())
	}
}

func TestRemarkThresholdsMatchPaperFractions(t *testing.T) {
	// At s = 0.1 the paper states the thresholds 1/4 (Remark 2),
	// 13/8 and 15/8 (row partition), 3/8 and 5/8 (column/mesh).
	th, err := Remark2Threshold(0.1)
	if err != nil {
		t.Fatal(err)
	}
	approxF(t, "Remark2", th, 0.25)

	th, _ = Remark5EDThreshold(0.1, RowPart)
	approxF(t, "Remark5 ED row", th, 13.0/8)
	th, _ = Remark5CFSThreshold(0.1, RowPart)
	approxF(t, "Remark5 CFS row", th, 15.0/8)
	th, _ = Remark5EDThreshold(0.1, ColPart)
	approxF(t, "Remark5 ED col", th, 3.0/8)
	th, _ = Remark5CFSThreshold(0.1, MeshPart)
	approxF(t, "Remark5 CFS mesh", th, 5.0/8)
}

func approxF(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s threshold = %g, want %g", name, got, want)
	}
}

func TestRemarkPredicatesAtDefaultParams(t *testing.T) {
	// Default ratio 1.2: Remark 2 holds (1.2 > 0.25); ED/CFS beat SFC
	// overall on column and mesh partitions but not on row.
	p := cost.DefaultParams
	ok, err := Remark2(0.1, p)
	if err != nil || !ok {
		t.Errorf("Remark2 = %v, %v; want true", ok, err)
	}
	ed, cfs, err := Remark5(0.1, RowPart, p)
	if err != nil || ed || cfs {
		t.Errorf("row partition Remark5 = (%v, %v), want (false, false) at ratio 1.2", ed, cfs)
	}
	ed, cfs, err = Remark5(0.1, ColPart, p)
	if err != nil || !ed || !cfs {
		t.Errorf("col partition Remark5 = (%v, %v), want (true, true)", ed, cfs)
	}
	if !Remark1(0.1) || Remark1(0.6) {
		t.Error("Remark1 predicate wrong")
	}
}

func TestRemarkErrorsOnDenseRatio(t *testing.T) {
	if _, err := Remark2Threshold(0.5); err == nil {
		t.Error("s = 0.5 accepted (division by zero)")
	}
	if _, err := Remark5EDThreshold(-0.1, RowPart); err == nil {
		t.Error("negative s accepted")
	}
	if _, _, err := Remark5(0.7, ColPart, cost.DefaultParams); err == nil {
		t.Error("s = 0.7 accepted")
	}
}

func TestBestScheme(t *testing.T) {
	row := Inputs{N: 500, P: 8, S: 0.1, Kind: RowPart, Method: CRS}
	best, all, err := BestScheme(row, cost.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if best != "SFC" {
		t.Errorf("row best = %q, want SFC at ratio 1.2", best)
	}
	if len(all) != 3 {
		t.Errorf("estimates for %d schemes, want 3", len(all))
	}

	col := Inputs{N: 500, P: 8, S: 0.1, Kind: ColPart, Method: CRS}
	best, _, err = BestScheme(col, cost.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if best != "ED" {
		t.Errorf("col best = %q, want ED", best)
	}
}

func TestFormulasText(t *testing.T) {
	crs := Formulas(CRS)
	for _, want := range []string{"Table 1", "SFC", "CFS", "ED", "p·Ts + n²·Td", "(2n²s+n)·Td"} {
		if !containsStr(crs, want) {
			t.Errorf("CRS formulas missing %q", want)
		}
	}
	ccs := Formulas(CCS)
	for _, want := range []string{"Table 2", "(2n²s+pn)·Td"} {
		if !containsStr(ccs, want) {
			t.Errorf("CCS formulas missing %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

func TestStringers(t *testing.T) {
	if RowPart.String() != "row" || ColPart.String() != "col" || MeshPart.String() != "mesh" {
		t.Error("PartitionKind strings wrong")
	}
	if PartitionKind(9).String() == "" {
		t.Error("unknown kind empty string")
	}
	if CRS.String() != "CRS" || CCS.String() != "CCS" {
		t.Error("Method strings wrong")
	}
}
