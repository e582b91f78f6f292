package partition

import "testing"

func TestParseDescriptors(t *testing.T) {
	cases := []struct {
		desc string
		name string
	}{
		{"(Block,*)", "row"},
		{"( block , * )", "row"},
		{"(*,Block)", "col"},
		{"(Block,Block)", "mesh2x2"},
		{"(Cyclic,*)", "cyclic-row"},
		{"(*,Cyclic)", "cyclic-col"},
		{"(Cyclic(3),*)", "brs-b3"},
		{"(Cyclic,Cyclic)", "cyclic-mesh2x2-b1x1"},
		{"(Cyclic(2),Cyclic(3))", "cyclic-mesh2x2-b2x3"},
	}
	for _, c := range cases {
		p, err := Parse(c.desc, 12, 12, 4)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.desc, err)
			continue
		}
		if p.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.desc, p.Name(), c.name)
		}
		if err := Validate(p); err != nil {
			t.Errorf("Parse(%q) invalid: %v", c.desc, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "(Block)", "(*,*)", "(Frob,*)", "(Cyclic(0),*)",
		"(Cyclic(x),*)", "(*,Cyclic(4))", "Block,Block,Block",
	} {
		if _, err := Parse(bad, 8, 8, 2); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParseMatchesDirectConstructors(t *testing.T) {
	a, err := Parse("(Block,Block)", 10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewMesh(10, 8, 2, 2)
	for k := 0; k < 4; k++ {
		am, bm := a.RowMap(k), b.RowMap(k)
		if len(am) != len(bm) {
			t.Fatalf("part %d row counts differ", k)
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("part %d row %d differs", k, i)
			}
		}
	}
}

func TestSquareGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 6: {2, 3}, 16: {4, 4}, 7: {1, 7}, 36: {6, 6}}
	for p, want := range cases {
		pr, pc := SquareGrid(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("SquareGrid(%d) = %dx%d, want %dx%d", p, pr, pc, want[0], want[1])
		}
	}
}

// TestCheckDescriptorAgreesWithParse: the syntax check and the builder
// share one grammar, so they accept and reject the same descriptors.
func TestCheckDescriptorAgreesWithParse(t *testing.T) {
	for _, desc := range []string{
		"(Block,*)", "( block , * )", "(*,Block)", "(Block,Block)", "(Cyclic,*)", "(*,Cyclic)",
		"(Cyclic(3),*)", "(Cyclic,Cyclic)", "(Cyclic(2),Cyclic(3))",
		"", "(Block", "(Block)", "(*,*)", "(Bogus,*)", "(Cyclic(0),*)", "(Cyclic(x),*)",
		"(*,Cyclic(2))", "(Block,Cyclic)", "Block,Block,Block",
	} {
		_, perr := Parse(desc, 12, 12, 4)
		cerr := CheckDescriptor(desc)
		if (perr == nil) != (cerr == nil) {
			t.Errorf("%q: Parse error %v, CheckDescriptor error %v", desc, perr, cerr)
		}
	}
}
