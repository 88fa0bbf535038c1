package mpi

import "testing"

// BenchmarkPingPong measures point-to-point round trips between two
// simulated ranks, including matching and virtual-time accounting.
func BenchmarkPingPong(b *testing.B) {
	c := testCluster(2)
	w := NewWorld(c, c.Nodes[:2])
	n := b.N
	w.Start("bench", func(r *Rank) {
		peer := 1 - r.Rank()
		for i := 0; i < n; i++ {
			if r.Rank() == 0 {
				r.Send(peer, 0, nil, 8)
				r.Recv(peer, 0)
			} else {
				r.Recv(peer, 0)
				r.Send(peer, 0, nil, 8)
			}
		}
	})
	b.ResetTimer()
	c.K.Run()
}

// BenchmarkAllreduce8 measures an 8-rank allreduce rendezvous per op.
func BenchmarkAllreduce8(b *testing.B) {
	c := testCluster(8)
	w := NewWorld(c, c.Nodes[:8])
	n := b.N
	w.Start("bench", func(r *Rank) {
		v := []float64{1, 2, 3, 4}
		for i := 0; i < n; i++ {
			r.Allreduce(OpSum, v)
		}
	})
	b.ResetTimer()
	c.K.Run()
}

// BenchmarkCommSpawn measures dynamic process creation plus one task
// handoff, the heart of a DMR reconfiguration.
func BenchmarkCommSpawn(b *testing.B) {
	c := testCluster(9)
	parent := NewWorld(c, c.Nodes[:1])
	n := b.N
	parent.Start("bench", func(r *Rank) {
		for i := 0; i < n; i++ {
			ic := r.CommSpawn("child", c.Nodes[1:9], func(cr *Rank) {
				cr.RecvRemote(cr.Comm().Parent(), 0, 1)
			})
			for d := 0; d < 8; d++ {
				r.SendRemote(ic, d, 1, nil, 1024)
			}
		}
	})
	b.ResetTimer()
	c.K.Run()
}

// BenchmarkBcastRendezvous measures one Bcast rendezvous over 32 ranks
// per op, the collective every rank of a DMR process set joins at each
// reconfiguring point: 32 arrivals, the completion timer and 32 resumes.
// The payload is a pointer, as the runtime's check verdict is.
func BenchmarkBcastRendezvous(b *testing.B) {
	const p = 32
	c := testCluster(p)
	w := NewWorld(c, c.Nodes[:p])
	payload := new(int)
	n := b.N
	w.Start("bench", func(r *Rank) {
		var data any
		if r.Rank() == 0 {
			data = payload
		}
		for i := 0; i < n; i++ {
			r.Bcast(0, data, 16)
		}
	})
	c.K.RunUntil(0) // every rank has arrived at the first collective
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/collective")
}
