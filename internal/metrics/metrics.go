// Package metrics measures the topology-quality quantities reported in the
// paper's evaluation: length and hop stretch factors (average and maximum
// over all connected node pairs), degree statistics, and edge counts.
//
// The stretch computation follows the paper's routing procedure: when two
// nodes are adjacent in the unit disk graph they communicate directly
// (ratio 1); otherwise the route runs inside the evaluated structure (for
// the primed graphs that is source → dominator → backbone → dominator →
// destination, whose edges the structure already contains).
//
// All shortest-path sweeps run on immutable graph.Frozen CSR snapshots
// with reused scratch buffers: a Stretcher freezes the base graph once,
// precomputes its all-source hop and length distances, and amortizes them
// across every structure measured against that base (Table I measures
// seven structures per instance against the same UDG).
package metrics

import (
	"math"

	"geospanner/internal/graph"
)

// StretchOptions configures the stretch computation.
type StretchOptions struct {
	// DirectEdges applies the paper's routing rule: node pairs adjacent
	// in the base graph count with ratio 1 (direct transmission) even if
	// the structure omits the edge. Enable it for CDS', ICDS', and
	// LDel(ICDS'), whose routing procedure sends directly when possible.
	DirectEdges bool
}

// StretchStats reports stretch factors over all connected pairs.
type StretchStats struct {
	// LengthAvg and LengthMax are the mean and maximum ratio of
	// shortest-path Euclidean length in the structure to that in the
	// base graph.
	LengthAvg, LengthMax float64
	// HopAvg and HopMax are the corresponding ratios for hop counts.
	HopAvg, HopMax float64
	// Pairs is the number of node pairs measured.
	Pairs int
	// Disconnected counts pairs connected in the base graph but not in
	// the structure (infinite stretch; excluded from the averages). A
	// correct spanner yields zero.
	Disconnected int
}

// Stretcher measures structures against one fixed base graph. It freezes
// the base once and precomputes every source's hop and length distances,
// so measuring k structures against the same base performs the base
// sweeps once instead of k times. A Stretcher is immutable after
// construction and safe for concurrent use by multiple goroutines.
type Stretcher struct {
	n      int
	hop    [][]int     // hop[u][v]: base hop distance
	length [][]float64 // length[u][v]: base Euclidean distance
}

// NewStretcher precomputes all-source base distances (n BFS + n Dijkstra
// runs on the frozen snapshot).
func NewStretcher(base *graph.Graph) *Stretcher {
	f := base.Freeze()
	n := f.N()
	st := &Stretcher{
		n:      n,
		hop:    make([][]int, n),
		length: make([][]float64, n),
	}
	parent := make([]int, n)
	queue := make([]int32, 0, n)
	scratch := graph.NewDijkstraScratch(n)
	for u := 0; u < n; u++ {
		hop := make([]int, n)
		f.BFSInto(u, hop, parent, queue)
		st.hop[u] = hop
		length := make([]float64, n)
		f.DijkstraInto(u, length, parent, scratch)
		st.length[u] = length
	}
	return st
}

// Stretch measures the stretch factors of structure sub relative to the
// base graph. sub must share the base's node set and positions.
func (st *Stretcher) Stretch(sub *graph.Graph, opt StretchOptions) StretchStats {
	f := sub.Freeze()
	n := st.n
	var s StretchStats
	var lengthSum, hopSum float64
	subHop := make([]int, n)
	parent := make([]int, n)
	queue := make([]int32, 0, n)
	subLen := make([]float64, n)
	scratch := graph.NewDijkstraScratch(n)
	for u := 0; u < n; u++ {
		baseHop := st.hop[u]
		baseLen := st.length[u]
		f.BFSInto(u, subHop, parent, queue)
		f.DijkstraInto(u, subLen, parent, scratch)
		for v := u + 1; v < n; v++ {
			if baseHop[v] == graph.Unreachable {
				continue
			}
			var lr, hr float64
			// Base hop distance 1 is exactly adjacency in the base graph.
			if opt.DirectEdges && baseHop[v] == 1 {
				lr, hr = 1, 1
			} else {
				if subHop[v] == graph.Unreachable {
					s.Disconnected++
					continue
				}
				lr = subLen[v] / baseLen[v]
				hr = float64(subHop[v]) / float64(baseHop[v])
			}
			s.Pairs++
			lengthSum += lr
			hopSum += hr
			s.LengthMax = math.Max(s.LengthMax, lr)
			s.HopMax = math.Max(s.HopMax, hr)
		}
	}
	if s.Pairs > 0 {
		s.LengthAvg = lengthSum / float64(s.Pairs)
		s.HopAvg = hopSum / float64(s.Pairs)
	}
	return s
}

// Stretch measures the stretch factors of structure sub relative to base.
// Both graphs must share the same node set and positions. When several
// structures are measured against one base, build a Stretcher once
// instead.
func Stretch(base, sub *graph.Graph, opt StretchOptions) StretchStats {
	return NewStretcher(base).Stretch(sub, opt)
}

// DegreeStats summarizes node degrees over an optional node subset.
type DegreeStats struct {
	Max int
	Avg float64
}

// Degrees returns degree statistics of g. When nodes is non-nil the
// statistics are restricted to that subset (the paper reports backbone
// graph degrees over backbone nodes only).
func Degrees(g *graph.Graph, nodes []int) DegreeStats {
	if nodes == nil {
		return DegreeStats{Max: g.MaxDegree(), Avg: g.AvgDegree()}
	}
	maxDeg, avgDeg := g.DegreeOver(nodes)
	return DegreeStats{Max: maxDeg, Avg: avgDeg}
}

// PowerStretch measures the power stretch factor with path loss exponent
// beta (paper Section I: link cost = length^beta, beta in [2,5]): the ratio
// of the minimum-power path cost in sub to that in base. It reports average
// and maximum over connected pairs, with the same direct-edge rule. The
// power-weighted shortest paths run on MapLengths views of the frozen
// snapshots, so the CSR topology is built once per graph.
func PowerStretch(base, sub *graph.Graph, beta float64, opt StretchOptions) StretchStats {
	pow := func(l float64) float64 { return math.Pow(l, beta) }
	basePow := base.Freeze().MapLengths(pow)
	subPow := sub.Freeze().MapLengths(pow)
	n := basePow.N()
	var s StretchStats
	var sum float64
	baseDist := make([]float64, n)
	subDist := make([]float64, n)
	parent := make([]int, n)
	scratch := graph.NewDijkstraScratch(n)
	for u := 0; u < n; u++ {
		basePow.DijkstraInto(u, baseDist, parent, scratch)
		subPow.DijkstraInto(u, subDist, parent, scratch)
		for v := u + 1; v < n; v++ {
			if math.IsInf(baseDist[v], 1) {
				continue
			}
			var r float64
			if opt.DirectEdges && base.HasEdge(u, v) {
				r = 1
			} else {
				if math.IsInf(subDist[v], 1) {
					s.Disconnected++
					continue
				}
				r = subDist[v] / baseDist[v]
			}
			s.Pairs++
			sum += r
			s.LengthMax = math.Max(s.LengthMax, r)
		}
	}
	if s.Pairs > 0 {
		s.LengthAvg = sum / float64(s.Pairs)
	}
	return s
}
