// Package deadcodetest exercises the deadcode analyzer, checked under an
// import path inside internal/: an uncalled function, a function only its
// own body calls, and unused methods are findings; a called function, a
// method a local interface names and a method a standard-library interface
// names (fmt.Stringer) are not.
package deadcodetest

import "fmt"

type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func (s square) String() string { return fmt.Sprint(s.side) }

func (s square) perimeter() int { return 4 * s.side } // want `\(repro/internal/deadcodetest\.square\)\.perimeter is never used`

func (s *square) grow() { s.side++ } // want `\(\*repro/internal/deadcodetest\.square\)\.grow is never used`

func called() int { return 1 }

func orphan() int { return 2 } // want `repro/internal/deadcodetest\.orphan is never used: no non-test file`

func countdown(n int) int { // want `deadcodetest\.countdown is never used`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

var total = called()

func init() {
	var s shape = square{side: total}
	total = s.area()
}
