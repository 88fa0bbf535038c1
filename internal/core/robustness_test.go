package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// Regression: a crash while a malleable job's nodes were still waking
// (start logged, Launch deferred behind the wake latency) requeued the
// job, and the deferred Launch then fired anyway. Two process sets ran
// the relaunched job: both shrank it ("ShrinkJob 8 -> 8 nodes") and
// both completed it ("JobComplete on COMPLETED job"). Sparse arrivals
// on a deep-sleeping fleet make every start a 30 s wake window, and a
// harsh MTBF lands a crash inside one on each of these seeds.
func TestCrashDuringWakeWindowLaunchesOnce(t *testing.T) {
	for _, seed := range []int64{1, 8, 9} {
		p := workload.Preliminary(12, 1, seed)
		p.MeanArrival = 200 * sim.Second
		specs := workload.Generate(p)
		cfg := DefaultConfig()
		cfg.Nodes = 20
		cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: 20 * sim.Second, State: 1}}
		cfg.Faults = &faults.Config{MTBF: 8000 * sim.Second, MTTR: 100 * sim.Second, Horizon: 20000 * sim.Second, Seed: seed}
		sys := NewSystem(cfg)
		sys.SubmitAll(specs)
		res := sys.Run()
		if res.Jobs != len(specs) {
			t.Fatalf("seed %d: %d of %d jobs completed", seed, res.Jobs, len(specs))
		}
		if fs := sys.Ctl.FaultStats(); fs.Requeues == 0 {
			t.Fatalf("seed %d: no crash landed in a wake window (%d failures); the regression is not exercised", seed, fs.Failures)
		}
	}
}

// Validate rejects every setting NewSystem cannot honour, and only
// those: the stock configuration and a fully featured one pass.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"all-features", func(c *Config) {
			c.PowerCapW, c.CkptEvery = 12000, 5
			c.SleepLadder = slurm.DefaultSleepLadder()
			c.Faults = &faults.Config{MTBF: sim.Hour, MTTR: sim.Minute, BootFailP: 1}
		}, true},
		{"negative nodes", func(c *Config) { c.Nodes = -3 }, false},
		{"negative power cap", func(c *Config) { c.PowerCapW = -1 }, false},
		{"negative checkpoint interval", func(c *Config) { c.CkptEvery = -1 }, false},
		{"negative sleep timeout", func(c *Config) { c.SleepLadder = []slurm.SleepRung{{AfterIdle: -sim.Second}} }, false},
		{"shallower second rung", func(c *Config) {
			c.SleepLadder = []slurm.SleepRung{{AfterIdle: sim.Second, State: 1}, {AfterIdle: sim.Minute, State: 0}}
		}, false},
		{"negative MTBF", func(c *Config) { c.Faults = &faults.Config{MTBF: -sim.Second} }, false},
		{"negative MTTR", func(c *Config) { c.Faults = &faults.Config{MTBF: sim.Hour, MTTR: -sim.Second} }, false},
		{"boot-failure probability above 1", func(c *Config) { c.Faults = &faults.Config{BootFailP: 1.5} }, false},
		{"negative boot-failure probability", func(c *Config) { c.Faults = &faults.Config{BootFailP: -0.1} }, false},
		{"negative event log cap", func(c *Config) { c.EventLogCap = -1 }, false},
		{"elastic envelope", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 3, Max: 5} }, true},
		{"elastic minimum only", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 3} }, true},
		{"inverted elastic envelope", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 5, Max: 3} }, false},
		{"negative elastic minimum", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: -1} }, false},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// NewSystem derives the energy switch: each feature that runs on the
// accountant's meters, set alone on a default config, attaches one.
func TestFeaturesDeriveEnergy(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"sleep ladder", func(c *Config) { c.SleepLadder = slurm.DefaultSleepLadder() }},
		{"power cap", func(c *Config) { c.PowerCapW = 12000 }},
		{"thermal", func(c *Config) { c.Thermal = true }},
		{"elastic", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 8} }},
		{"faults", func(c *Config) { c.Faults = &faults.Config{MTBF: sim.Hour} }},
		{"migration", func(c *Config) { c.Migration = &slurm.MigrationConfig{} }},
		{"energy policy", func(c *Config) { c.EnergyPolicy = true }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		sys := NewSystem(cfg)
		if sys.Energy == nil || !sys.Cfg.Energy {
			t.Errorf("%s: accountant %v, Cfg.Energy %v; want both on", tc.name, sys.Energy != nil, sys.Cfg.Energy)
		}
	}
	if sys := NewSystem(DefaultConfig()); sys.Energy != nil || sys.Cfg.Energy {
		t.Errorf("default config attached an accountant")
	}
}
