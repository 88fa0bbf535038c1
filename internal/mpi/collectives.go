package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// collState tracks one collective rendezvous on a Comm. SPMD discipline
// means at most one collective is active per communicator at a time; the
// op name is asserted to catch mismatched calls. A state is idle when
// every expected rank has arrived (or, before first use, none is
// expected), and is then reused, with its vals and done signal, by a
// later collective.
type collState struct {
	op       string
	expected int
	arrived  int
	vals     []any
	done     *sim.Signal
	fire     func() // done.Fire, bound once
	result   any
}

// ceilLog2 returns ceil(log2(p)) with ceilLog2(1) == 0, used as the tree
// depth of collective algorithms.
func ceilLog2(p int) int {
	d := 0
	for n := 1; n < p; n <<= 1 {
		d++
	}
	return d
}

// rendezvous implements the generic "all ranks arrive, combine, all leave
// together" pattern. combine runs once, on the last arrival's values; all
// ranks resume after cost and receive a per-rank clone of the result.
//
// The Comm's two states serve collectives in turn. Collective k's state
// must survive until its slowest rank has resumed and read the result,
// and a fast rank may enter k+1 before then; but k+2 cannot start until
// every rank has arrived at k+1, so by the time k+2 reuses k's state no
// rank still reads it.
func (c *Comm) rendezvous(r *Rank, op string, val any, combine func(vals []any) any, cost sim.Time) any {
	st := &c.coll[c.collTurn]
	if st.arrived == st.expected {
		if st.done == nil {
			st.vals = make([]any, c.Size())
			st.done = sim.NewSignal(c.cluster.K)
			st.fire = st.done.Fire
		}
		st.op, st.expected, st.arrived, st.result = op, c.Size(), 0, nil
		st.done.Reset()
	} else if st.op != op {
		panic(fmt.Sprintf("mpi: collective mismatch on comm %d: rank %d called %s while %s in progress", c.id, r.rank, op, st.op))
	}
	// Clone on arrival: a rank that resumes first may mutate its buffer
	// before slower ranks read the combined result.
	st.vals[r.rank] = cloneData(val)
	st.arrived++
	if st.arrived == st.expected {
		if combine != nil {
			st.result = combine(st.vals)
		}
		clear(st.vals)
		c.collTurn ^= 1 // the next collective starts on the other state
		c.cluster.K.After(cost, st.fire)
	}
	st.done.Wait(r.proc)
	return cloneData(st.result)
}

// Barrier blocks until every rank of the communicator has entered it.
func (r *Rank) Barrier() {
	cost := r.comm.cluster.Net().Latency * sim.Time(ceilLog2(r.Size()))
	r.comm.rendezvous(r, "barrier", nil, nil, cost)
}

// Bcast distributes root's data to every rank and returns it. bytes is
// the modeled payload size; the cost follows a binomial tree.
func (r *Rank) Bcast(root int, data any, bytes int64) any {
	cost := r.comm.cluster.Net().TransferTime(bytes) * sim.Time(ceilLog2(r.Size()))
	return r.comm.rendezvous(r, "bcast", data, func(vals []any) any { return vals[root] }, cost)
}

// ReduceOp combines two float64 values in reductions.
type ReduceOp func(a, b float64) float64

// Predefined reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Allreduce combines equal-length vectors elementwise across all ranks
// and returns the result on every rank.
func (r *Rank) Allreduce(op ReduceOp, vec []float64) []float64 {
	bytes := int64(len(vec) * 8)
	cost := 2 * r.comm.cluster.Net().TransferTime(bytes) * sim.Time(ceilLog2(r.Size()))
	res := r.comm.rendezvous(r, "allreduce", vec, func(vals []any) any {
		acc := make([]float64, len(vec))
		copy(acc, vals[0].([]float64))
		for _, v := range vals[1:] {
			for i, x := range v.([]float64) {
				acc[i] = op(acc[i], x)
			}
		}
		return acc
	}, cost)
	return res.([]float64)
}

// AllreduceScalar is Allreduce for a single value.
func (r *Rank) AllreduceScalar(op ReduceOp, x float64) float64 {
	return r.Allreduce(op, []float64{x})[0]
}

// Allgather collects each rank's contribution, returning them indexed by
// rank on every rank. bytesEach is the modeled size of one contribution.
func (r *Rank) Allgather(val any, bytesEach int64) []any {
	p := r.Size()
	cost := r.comm.cluster.Net().TransferTime(bytesEach*int64(p)) * sim.Time(ceilLog2(p))
	res := r.comm.rendezvous(r, "allgather", val, func(vals []any) any {
		out := make([]any, len(vals))
		copy(out, vals)
		return out
	}, cost)
	arr := res.([]any)
	out := make([]any, len(arr))
	for i, v := range arr {
		out[i] = cloneData(v)
	}
	return out
}

// AllgatherFloats concatenates per-rank float vectors in rank order.
func (r *Rank) AllgatherFloats(vec []float64) []float64 {
	parts := r.Allgather(vec, int64(len(vec)*8))
	var out []float64
	for _, p := range parts {
		out = append(out, p.([]float64)...)
	}
	return out
}

// Gather collects contributions at root; non-root ranks receive nil.
func (r *Rank) Gather(root int, val any, bytesEach int64) []any {
	p := r.Size()
	cost := r.comm.cluster.Net().TransferTime(bytesEach*int64(p)) * sim.Time(ceilLog2(p))
	res := r.comm.rendezvous(r, "gather", val, func(vals []any) any {
		out := make([]any, len(vals))
		copy(out, vals)
		return out
	}, cost)
	if r.rank != root {
		return nil
	}
	arr := res.([]any)
	out := make([]any, len(arr))
	for i, v := range arr {
		out[i] = cloneData(v)
	}
	return out
}

// Scatter delivers parts[i] (supplied by root) to rank i. Non-root ranks
// pass nil for parts. bytesEach is the modeled size of one part.
func (r *Rank) Scatter(root int, parts []any, bytesEach int64) any {
	p := r.Size()
	if r.rank == root && len(parts) != p {
		panic(fmt.Sprintf("mpi: Scatter needs %d parts, got %d", p, len(parts)))
	}
	if r.rank == root {
		// Deep-clone each part: cloneData on []any is shallow.
		cloned := make([]any, len(parts))
		for i, v := range parts {
			cloned[i] = cloneData(v)
		}
		parts = cloned
	}
	cost := r.comm.cluster.Net().TransferTime(bytesEach*int64(p)) * sim.Time(ceilLog2(p))
	res := r.comm.rendezvous(r, "scatter", parts, func(vals []any) any { return vals[root] }, cost)
	return cloneData(res.([]any)[r.rank])
}
