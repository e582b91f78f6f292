package partition

import (
	"fmt"
	"strings"
)

// Parse builds a partition from an HPF-style distribution descriptor,
// the notation the paper borrows from Fortran 90/HPF ("(Block,*)",
// "(*,Block)", "(Block,Block)"):
//
//	(Block,*)        row partition
//	(*,Block)        column partition
//	(Block,Block)    2-D mesh on the most square pr x pc grid
//	(Cyclic,*)       row-cyclic
//	(*,Cyclic)       column-cyclic
//	(Cyclic(b),*)    block-cyclic rows with block size b (BRS)
//	(Cyclic,Cyclic)  2-D cyclic on the most square grid
//
// Descriptors are case-insensitive and whitespace-tolerant.
func Parse(desc string, rows, cols, p int) (Partition, error) {
	rk, rb, ck, cb, err := parseAxes(desc)
	if err != nil {
		return nil, err
	}
	switch {
	case rk == "block" && ck == "*":
		return NewRow(rows, cols, p)
	case rk == "*" && ck == "block":
		return NewCol(rows, cols, p)
	case rk == "block":
		pr, pc := SquareGrid(p)
		return NewMesh(rows, cols, pr, pc)
	case ck == "*" && rb == 1:
		return NewCyclicRow(rows, cols, p)
	case ck == "*":
		return NewBlockCyclicRow(rows, cols, p, rb)
	case rk == "*":
		return NewCyclicCol(rows, cols, p)
	default:
		pr, pc := SquareGrid(p)
		return NewCyclicMesh(rows, cols, pr, pc, rb, cb)
	}
}

// CheckDescriptor reports whether desc is a descriptor Parse accepts,
// without building anything: the grammar and the supported axis
// combinations are independent of the array shape and the processor
// count, so a request can be rejected before either is known.
func CheckDescriptor(desc string) error {
	_, _, _, _, err := parseAxes(desc)
	return err
}

// DescriptorAxes reports which axes a descriptor Parse accepts
// distributes: rows (cols) is false when that axis is "*".
func DescriptorAxes(desc string) (rows, cols bool, err error) {
	rk, _, ck, _, err := parseAxes(desc)
	return rk != "*", ck != "*", err
}

// parseAxes is the shape-independent front half of Parse: it splits the
// descriptor into its row and column axes — kind "*", "block" or
// "cyclic", with the cyclic block size — and rejects the combinations
// no constructor implements, so Parse only ever sees a buildable pair.
func parseAxes(desc string) (rk string, rb int, ck string, cb int, err error) {
	s := strings.ToLower(strings.ReplaceAll(desc, " ", ""))
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return "", 0, "", 0, fmt.Errorf("partition: descriptor %q: want two comma-separated axes", desc)
	}
	if rk, rb, err = parseAxis(parts[0]); err != nil {
		return "", 0, "", 0, err
	}
	if ck, cb, err = parseAxis(parts[1]); err != nil {
		return "", 0, "", 0, err
	}
	switch {
	case rk == "*" && ck == "*":
		err = fmt.Errorf("partition: descriptor %q distributes nothing", desc)
	case rk == "*" && ck == "cyclic" && cb != 1:
		err = fmt.Errorf("partition: block-cyclic columns not supported in descriptor %q", desc)
	case rk != "*" && ck != "*" && rk != ck:
		err = fmt.Errorf("partition: unsupported combination in %q", desc)
	}
	return rk, rb, ck, cb, err
}

// parseAxis resolves one axis spec to its kind and cyclic block size.
func parseAxis(axis string) (kind string, block int, err error) {
	switch {
	case axis == "*" || axis == "block":
		return axis, 0, nil
	case axis == "cyclic":
		return "cyclic", 1, nil
	case strings.HasPrefix(axis, "cyclic(") && strings.HasSuffix(axis, ")"):
		if _, err := fmt.Sscanf(axis, "cyclic(%d)", &block); err != nil || block <= 0 {
			return "", 0, fmt.Errorf("partition: bad cyclic block in %q", axis)
		}
		return "cyclic", block, nil
	default:
		return "", 0, fmt.Errorf("partition: unknown axis spec %q", axis)
	}
}

// SquareGrid returns the most square pr x pc factorisation of p
// (pr <= pc): the processor grid every mesh-shaped partition, cost
// formula and network topology defaults to.
func SquareGrid(p int) (int, int) {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return best, p / best
}
