package match

// Exact computes a maximum-weight perfect matching on the complete n×n
// bipartite graph using the Jonker–Volgenant shortest-augmenting-path
// algorithm with dual potentials (the same family as the Hungarian method
// the paper uses via igraph), O(n³) worst case. n must be >= 1, and any
// int64 weight is accepted. It is the test oracle for every exact kernel
// in this package.
func Exact(n int, w WeightFunc) *Result {
	const inf = int64(1) << 62
	// Minimize cost = -w with the e-maxx JV formulation (1-indexed).
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j (0 = none)
	way := make([]int, n+1) // predecessor column on alternating path
	minv := make([]int64, n+1)
	used := make([]bool, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	res := &Result{Col: make([]int, n), Row: make([]int, n)}
	for j := 1; j <= n; j++ {
		res.Col[p[j]-1] = j - 1
		res.Row[j-1] = p[j] - 1
	}
	for i := 0; i < n; i++ {
		res.Total += w(i, res.Col[i])
	}
	return res
}
