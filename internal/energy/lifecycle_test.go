package energy

import (
	"testing"

	"repro/internal/sim"
)

// TestLifecycleTransitions drives one node through each power-off,
// boot, failure and repair transition from every state it may start
// in, and pins the resulting state and draw — no-ops included, since
// the controller relies on stale timers landing harmlessly.
func TestLifecycleTransitions(t *testing.T) {
	p := DefaultProfile()
	const job = 7
	sleep := func(a *Accountant) { a.NodeSleep(0, 1) }
	active := func(a *Accountant) { a.NodeActive(0, job, 0) }
	off := func(a *Accountant) { a.NodeOff(0) }
	boot := func(a *Accountant) { a.NodeOff(0); a.StartBoot(0) }
	fail := func(a *Accountant) { a.NodeFail(0) }
	for _, tc := range []struct {
		name  string
		setup func(*Accountant)
		step  func(*Accountant)
		state NodeState
		drawW float64
	}{
		{"NodeOff from idle", nil, off, Off, p.OffW},
		{"NodeOff from sleep", sleep, off, Off, p.OffW},
		{"NodeOff leaves an active node", active, off, Active, p.ActiveW(0)},
		{"NodeOff leaves a booting node", boot, off, Booting, p.ActiveW(0)},
		{"StartBoot from sleep", sleep, func(a *Accountant) { a.StartBoot(0) }, Booting, p.ActiveW(0)},
		{"StartBoot from off", off, func(a *Accountant) { a.StartBoot(0) }, Booting, p.ActiveW(0)},
		{"StartBoot leaves an idle node", nil, func(a *Accountant) { a.StartBoot(0) }, Idle, p.IdleW},
		{"FinishBoot lands idle", boot, func(a *Accountant) { a.FinishBoot(0) }, Idle, p.IdleW},
		{"FinishBoot leaves a node allocated mid-boot", func(a *Accountant) { boot(a); active(a) },
			func(a *Accountant) { a.FinishBoot(0) }, Active, p.ActiveW(0)},
		{"ReleaseBooting detaches an active node", active, func(a *Accountant) { a.ReleaseBooting(0) }, Booting, p.ActiveW(0)},
		{"ReleaseBooting leaves an idle node", nil, func(a *Accountant) { a.ReleaseBooting(0) }, Idle, p.IdleW},
		{"NodeFail from idle", nil, fail, Failed, p.OffW},
		{"NodeFail from active", active, fail, Failed, p.OffW},
		{"NodeFail from sleep", sleep, fail, Failed, p.OffW},
		{"NodeFail from boot", boot, fail, Failed, p.OffW},
		{"NodeFail leaves an off node", off, fail, Off, p.OffW},
		{"FinishRepair lands idle", fail, func(a *Accountant) { a.FinishRepair(0) }, Idle, p.IdleW},
		{"FinishRepair leaves a live node", sleep, func(a *Accountant) { a.FinishRepair(0) }, Sleeping, p.SleepW(1)},
		{"AbortBoot drops to off", boot, func(a *Accountant) { a.AbortBoot(0) }, Off, p.OffW},
		{"AbortBoot leaves a sleeping node", sleep, func(a *Accountant) { a.AbortBoot(0) }, Sleeping, p.SleepW(1)},
	} {
		k := sim.NewKernel()
		a := New(k, Uniform(p, 1))
		if tc.setup != nil {
			tc.setup(a)
		}
		k.At(10*sim.Second, func() { tc.step(a) })
		k.At(20*sim.Second, func() {})
		k.Run()
		if got := a.State(0); got != tc.state {
			t.Errorf("%s: state %v, want %v", tc.name, got, tc.state)
		}
		if got := a.NodePowerW(0); !almost(got, tc.drawW) {
			t.Errorf("%s: draw %.1f W, want %.1f W", tc.name, got, tc.drawW)
		}
	}
}

// StartBoot prices the transition by where it starts: a sleeper pays
// its rung's wake latency, a powered-off node the full boot, and either
// counts as a wake.
func TestStartBootLatency(t *testing.T) {
	p := DefaultProfile()
	a := New(sim.NewKernel(), Uniform(p, 2))
	a.NodeSleep(0, 1)
	a.NodeOff(1)
	if got, want := a.StartBoot(0), p.WakeLatency(1); got != want {
		t.Errorf("wake from S1: %v, want %v", got, want)
	}
	if got, want := a.StartBoot(1), p.BootDelay(); got != want {
		t.Errorf("boot from off: %v, want %v", got, want)
	}
	if got := a.StartBoot(0); got != 0 {
		t.Errorf("second StartBoot on a booting node: %v, want 0", got)
	}
	if a.Wakes() != 2 {
		t.Errorf("%d wakes, want 2", a.Wakes())
	}
}

// A node that leaves its job mid-boot or by crashing stops charging the
// job: the draw after the transition is unattributed.
func TestDetachedDrawIsUnattributed(t *testing.T) {
	p := DefaultProfile()
	for _, tc := range []struct {
		name   string
		detach func(*Accountant)
	}{
		{"ReleaseBooting", func(a *Accountant) { a.ReleaseBooting(0) }},
		{"NodeFail", func(a *Accountant) { a.NodeFail(0) }},
	} {
		k := sim.NewKernel()
		a := New(k, Uniform(p, 1))
		a.NodeActive(0, 7, 0)
		k.At(10*sim.Second, func() { tc.detach(a) })
		k.At(20*sim.Second, func() {})
		k.Run()
		if got, want := a.JobJoules(7), 10*p.ActiveW(0); !almost(got, want) {
			t.Errorf("%s: job charged %.1f J, want %.1f J (its 10 s of service only)", tc.name, got, want)
		}
		if got, want := a.UnattributedJoules(), 10*a.NodePowerW(0); !almost(got, want) {
			t.Errorf("%s: unattributed %.1f J, want %.1f J", tc.name, got, want)
		}
	}
}
