package dist

import (
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestEndToEndRandomised is the randomised property test over the whole
// stack: random shape, processor count, ratio, scheme, partition and
// method — distribute, verify, reassemble through the differential
// oracle, compare.
func TestEndToEndRandomised(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		pick := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int(rng % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		rows := 5 + pick(30)
		cols := 5 + pick(30)
		p := 1 + pick(5)
		ratio := 0.05 + float64(pick(40))/100
		g := sparse.Uniform(rows, cols, ratio, seed)

		var part partition.Partition
		var err error
		switch pick(4) {
		case 0:
			part, err = partition.NewRow(rows, cols, p)
		case 1:
			part, err = partition.NewCol(rows, cols, p)
		case 2:
			part, err = partition.NewCyclicRow(rows, cols, p)
		default:
			part, err = partition.NewBalancedRow(g, p)
		}
		if err != nil {
			return false
		}
		scheme := Schemes()[pick(3)]
		method := []Method{CRS, CCS, JDS}[pick(3)]

		m, err := newQuietMachine(p)
		if err != nil {
			return false
		}
		defer m.Close()
		res, err := distribute(scheme, m, g, part, Options{Method: method})
		if err != nil {
			return false
		}
		if Verify(g, part, res) != nil {
			return false
		}
		return check.Distribution(g, check.Pieces(part, res.PartArrays())) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
