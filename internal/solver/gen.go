package solver

import "math/rand"

// Random3SAT generates a random 3-SAT instance with nVars variables and
// nClauses clauses, deterministically from seed. Clause/variable ratios
// near 4.26 sit at the phase transition; the incremental experiments use
// easier ratios so both arms finish.
func Random3SAT(nVars, nClauses int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, 0, nClauses)
	for len(out) < nClauses {
		cl := make([]int, 0, 3)
		used := map[int]bool{}
		for len(cl) < 3 {
			v := rng.Intn(nVars) + 1
			if used[v] {
				continue
			}
			used[v] = true
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl = append(cl, v)
		}
		out = append(out, cl)
	}
	return out
}

// MaxVar returns the largest variable index in a clause set.
func MaxVar(clauses [][]int) int {
	m := 0
	for _, cl := range clauses {
		for _, l := range cl {
			if l < 0 {
				l = -l
			}
			if l > m {
				m = l
			}
		}
	}
	return m
}

// BruteForce decides satisfiability by enumeration (≤ 24 vars), for
// cross-checking the CDCL solver in property tests.
func BruteForce(clauses [][]int) Status {
	n := MaxVar(clauses)
	if n > 24 {
		panic("solver: brute force limited to 24 vars")
	}
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				if (mask>>(v-1))&1 == 1 == (l > 0) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return Sat
		}
	}
	return Unsat
}
