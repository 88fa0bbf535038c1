package apps

import (
	"math"

	"repro/internal/nanos"
	"repro/internal/redist"
)

// CGChunk is a rank's share of the CG solve: a block of matrix rows plus
// the corresponding pieces of the four vectors (§VII-B2: "a matrix
// flat-stored and four vectors" form the data dependencies). The global
// scalar recurrence state travels with every chunk so respawned sets
// resume exactly where the old set stopped.
type CGChunk struct {
	Lo, N int
	Rows  []float64 // len(X)*N, row-major, rows Lo..Lo+len(X)
	X     []float64 // iterate
	B     []float64 // right-hand side
	R     []float64 // residual
	P     []float64 // search direction
	RR    float64   // global r·r
	Wire  int64
}

// cgInvPow2[d] is 2^-d, exact in float64 for every d a matrix entry uses.
var cgInvPow2 = func() (t [53]float64) {
	for d := range t {
		t[d] = 1 / float64(uint64(1)<<d)
	}
	return t
}()

// cgMatrix returns entry (i, j) of the synthetic SPD system: a
// symmetric, strictly diagonally dominant matrix with exponential
// off-diagonal decay (well conditioned, so CG converges fast in tests).
func cgMatrix(i, j int) float64 {
	if i == j {
		return 3
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if d > 52 { // below double precision relevance
		return 0
	}
	return cgInvPow2[d]
}

// cgRHS returns entry i of the right-hand side.
func cgRHS(i int) float64 { return 1 + 0.25*float64(i%5) }

// CG is the Conjugate Gradient application (§VII-B2).
type CG struct{}

// Name implements App.
func (*CG) Name() string { return "CG" }

// Init implements App: build this rank's row block and start the CG
// recurrence (x=0, r=b, p=r).
func (*CG) Init(w *nanos.Worker, cfg Config) Chunk {
	n := cfg.ProblemN
	p, r := w.R.Size(), w.R.Rank()
	lo, hi := redist.Offset(n, p, r), redist.Offset(n, p, r+1)
	nloc := hi - lo
	c := &CGChunk{Lo: lo, N: n,
		Rows: make([]float64, nloc*n),
		X:    make([]float64, nloc),
		B:    make([]float64, nloc),
		R:    make([]float64, nloc),
		P:    make([]float64, nloc),
	}
	for i := 0; i < nloc; i++ {
		for j := 0; j < n; j++ {
			c.Rows[i*n+j] = cgMatrix(lo+i, j)
		}
		c.B[i] = cgRHS(lo + i)
		c.R[i] = c.B[i]
		c.P[i] = c.B[i]
	}
	// Global r·r: every rank computes the same full sum.
	rr := 0.0
	for i := 0; i < n; i++ {
		v := cgRHS(i)
		rr += v * v
	}
	c.RR = rr
	if n > 0 {
		c.Wire = cfg.DataBytes * int64(nloc) / int64(n)
	}
	return c
}

// Step implements App: one parallel CG iteration. The direction vector
// is allgathered for the local block-row mat-vec; the two inner products
// are allreduced.
func (*CG) Step(w *nanos.Worker, cfg Config, s Chunk, t int) {
	c := s.(*CGChunk)
	nloc := len(c.X)
	pFull := w.R.AllgatherFloats(c.P)
	q := make([]float64, nloc)
	for i := 0; i < nloc; i++ {
		row := c.Rows[i*c.N : (i+1)*c.N]
		sum := 0.0
		for j, pv := range pFull {
			sum += row[j] * pv
		}
		q[i] = sum
	}
	pq := 0.0
	for i := 0; i < nloc; i++ {
		pq += c.P[i] * q[i]
	}
	pq = w.R.AllreduceScalar(nanosSum, pq)
	if pq == 0 {
		return // converged to round-off
	}
	alpha := c.RR / pq
	rrNew := 0.0
	for i := 0; i < nloc; i++ {
		c.X[i] += alpha * c.P[i]
		c.R[i] -= alpha * q[i]
		rrNew += c.R[i] * c.R[i]
	}
	rrNew = w.R.AllreduceScalar(nanosSum, rrNew)
	beta := rrNew / c.RR
	c.RR = rrNew
	for i := 0; i < nloc; i++ {
		c.P[i] = c.R[i] + beta*c.P[i]
	}
}

// Residual returns the current global residual norm (sqrt of the shared
// recurrence scalar).
func (c *CGChunk) Residual() float64 { return math.Sqrt(c.RR) }

// Split implements Chunk.
func (c *CGChunk) Split(parts int) []Chunk {
	nloc := len(c.X)
	out := make([]Chunk, parts)
	off := 0
	for k := 0; k < parts; k++ {
		lo, hi := redist.Offset(nloc, parts, k), redist.Offset(nloc, parts, k+1)
		sub := &CGChunk{Lo: c.Lo + lo, N: c.N, RR: c.RR,
			Rows: append([]float64(nil), c.Rows[lo*c.N:hi*c.N]...),
			X:    append([]float64(nil), c.X[lo:hi]...),
			B:    append([]float64(nil), c.B[lo:hi]...),
			R:    append([]float64(nil), c.R[lo:hi]...),
			P:    append([]float64(nil), c.P[lo:hi]...),
		}
		if nloc > 0 {
			sub.Wire = c.Wire * int64(hi-lo) / int64(maxI(nloc, 1))
		}
		out[k] = sub
		off += hi - lo
	}
	return out
}

// Append implements Chunk.
func (c *CGChunk) Append(tail ...Chunk) Chunk {
	out := &CGChunk{Lo: c.Lo, N: c.N, RR: c.RR, Wire: c.Wire,
		Rows: append([]float64(nil), c.Rows...),
		X:    append([]float64(nil), c.X...),
		B:    append([]float64(nil), c.B...),
		R:    append([]float64(nil), c.R...),
		P:    append([]float64(nil), c.P...),
	}
	for _, t := range tail {
		tc := t.(*CGChunk)
		out.Rows = append(out.Rows, tc.Rows...)
		out.X = append(out.X, tc.X...)
		out.B = append(out.B, tc.B...)
		out.R = append(out.R, tc.R...)
		out.P = append(out.P, tc.P...)
		out.Wire += tc.Wire
	}
	return out
}

// WireBytes implements Chunk.
func (c *CGChunk) WireBytes() int64 { return c.Wire }

// CloneData implements mpi.Cloner.
func (c *CGChunk) CloneData() any {
	out := *c
	out.Rows = append([]float64(nil), c.Rows...)
	out.X = append([]float64(nil), c.X...)
	out.B = append([]float64(nil), c.B...)
	out.R = append([]float64(nil), c.R...)
	out.P = append([]float64(nil), c.P...)
	return &out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nanosSum avoids re-exporting mpi.OpSum through this package's API.
func nanosSum(a, b float64) float64 { return a + b }
