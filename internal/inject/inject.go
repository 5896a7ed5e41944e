// Package inject is a seeded, deterministic fault injector for the
// simulator. It perturbs the machine — random cache-line evictions and
// I-cache flushes, bus transaction delay jitter, extra interrupts,
// forced scheduler migrations — without ever being allowed to change
// what the programs compute: under any injection the invariant checker
// (internal/check) must still report zero violations. Faults move
// performance counters; they must never move correctness.
//
// All randomness comes from one rand.Rand seeded from the configuration,
// so a failing injected run replays exactly from its seed.
package inject

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/arch"
)

// Config selects the fault modes and their intensity. A zero period
// disables that mode.
type Config struct {
	// Seed seeds the injector's private random stream; if zero, the
	// simulator derives one from its own seed.
	Seed int64

	// EvictPeriod is the mean interval in cycles between eviction storms
	// on each CPU; EvictBurst is how many randomly chosen resident lines
	// are evicted per storm (dirty victims are written back, never
	// dropped).
	EvictPeriod arch.Cycles
	EvictBurst  int
	// IFlushPeriod is the mean interval between forced full
	// instruction-cache flushes of one CPU.
	IFlushPeriod arch.Cycles
	// JitterPct is the percentage of bus transactions whose latency is
	// stretched; JitterMax the maximum extra cycles added to one.
	JitterPct int
	JitterMax arch.Cycles
	// IntrPeriod is the mean interval between extra injected network
	// interrupts on each CPU.
	IntrPeriod arch.Cycles
	// MigratePeriod is the mean interval between forced migrations: the
	// running process is preempted and rescheduled with affinity hints
	// ignored.
	MigratePeriod arch.Cycles
}

// Enabled reports whether any fault mode is active.
func (c Config) Enabled() bool {
	return c.EvictPeriod > 0 || c.IFlushPeriod > 0 ||
		(c.JitterPct > 0 && c.JitterMax > 0) ||
		c.IntrPeriod > 0 || c.MigratePeriod > 0
}

// Modes names the active fault modes.
func (c Config) Modes() string {
	var m []string
	if c.EvictPeriod > 0 || c.IFlushPeriod > 0 {
		m = append(m, "evict")
	}
	if c.JitterPct > 0 && c.JitterMax > 0 {
		m = append(m, "jitter")
	}
	if c.IntrPeriod > 0 {
		m = append(m, "intr")
	}
	if c.MigratePeriod > 0 {
		m = append(m, "migrate")
	}
	if m == nil {
		return "none"
	}
	return strings.Join(m, ",")
}

// Preset builds a Config from a comma-separated mode list: "evict",
// "jitter", "intr", "migrate", or "all". An empty string disables
// injection.
func Preset(modes string) (Config, error) {
	var c Config
	if modes == "" || modes == "none" {
		return c, nil
	}
	for _, m := range strings.Split(modes, ",") {
		switch strings.TrimSpace(m) {
		case "evict":
			c.EvictPeriod, c.EvictBurst = 4_000, 16
			c.IFlushPeriod = 400_000
		case "jitter":
			c.JitterPct, c.JitterMax = 30, 24
		case "intr":
			c.IntrPeriod = 20_000
		case "migrate":
			c.MigratePeriod = 60_000
		case "all":
			c.EvictPeriod, c.EvictBurst = 4_000, 16
			c.IFlushPeriod = 400_000
			c.JitterPct, c.JitterMax = 30, 24
			c.IntrPeriod = 20_000
			c.MigratePeriod = 60_000
		default:
			return Config{}, fmt.Errorf("inject: unknown fault mode %q (want evict, jitter, intr, migrate, all)", m)
		}
	}
	return c, nil
}

// Stats counts the faults actually delivered.
type Stats struct {
	Evictions        int64
	IFlushes         int64
	JitteredTxns     int64
	JitterCycles     int64
	ExtraInterrupts  int64
	ForcedMigrations int64
}

// Injector drives fault delivery for one simulation. Next-due times are
// kept per CPU so fault pressure is uniform across processors regardless
// of how the per-CPU clocks advance relative to each other.
type Injector struct {
	Cfg   Config
	Stats Stats

	rng         *rand.Rand
	nextEvict   []arch.Cycles
	nextIFlush  []arch.Cycles
	nextIntr    []arch.Cycles
	nextMigrate []arch.Cycles
}

// New builds an injector for ncpu processors. The caller must have
// resolved Cfg.Seed to a nonzero value.
func New(cfg Config, ncpu int) *Injector {
	in := &Injector{
		Cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		nextEvict:   make([]arch.Cycles, ncpu),
		nextIFlush:  make([]arch.Cycles, ncpu),
		nextIntr:    make([]arch.Cycles, ncpu),
		nextMigrate: make([]arch.Cycles, ncpu),
	}
	for q := 0; q < ncpu; q++ {
		in.nextEvict[q] = in.jittered(cfg.EvictPeriod)
		in.nextIFlush[q] = in.jittered(cfg.IFlushPeriod)
		in.nextIntr[q] = in.jittered(cfg.IntrPeriod)
		in.nextMigrate[q] = in.jittered(cfg.MigratePeriod)
	}
	return in
}

// Rng exposes the injector's random stream for victim selection.
func (in *Injector) Rng() *rand.Rand { return in.rng }

// jittered draws the next due offset for a mean period: uniform in
// [period/2, 3*period/2) so storms on different CPUs drift apart.
func (in *Injector) jittered(period arch.Cycles) arch.Cycles {
	if period <= 0 {
		return 0
	}
	return period/2 + arch.Cycles(in.rng.Int63n(int64(period)))
}

func due(next []arch.Cycles, cpu int, now arch.Cycles) bool {
	return next[cpu] > 0 && now >= next[cpu]
}

// DueEvict reports whether an eviction storm is due on cpu and, if so,
// schedules the next one.
func (in *Injector) DueEvict(cpu int, now arch.Cycles) bool {
	if !due(in.nextEvict, cpu, now) {
		return false
	}
	in.nextEvict[cpu] = now + in.jittered(in.Cfg.EvictPeriod)
	return true
}

// DueIFlush reports whether a forced I-cache flush is due on cpu.
func (in *Injector) DueIFlush(cpu int, now arch.Cycles) bool {
	if !due(in.nextIFlush, cpu, now) {
		return false
	}
	in.nextIFlush[cpu] = now + in.jittered(in.Cfg.IFlushPeriod)
	return true
}

// DueIntr reports whether an extra interrupt is due on cpu.
func (in *Injector) DueIntr(cpu int, now arch.Cycles) bool {
	if !due(in.nextIntr, cpu, now) {
		return false
	}
	in.nextIntr[cpu] = now + in.jittered(in.Cfg.IntrPeriod)
	return true
}

// DueMigrate reports whether a forced migration is due on cpu.
func (in *Injector) DueMigrate(cpu int, now arch.Cycles) bool {
	if !due(in.nextMigrate, cpu, now) {
		return false
	}
	in.nextMigrate[cpu] = now + in.jittered(in.Cfg.MigratePeriod)
	return true
}

// Jitter returns the extra latency for one bus transaction (zero for
// most). It is installed as the bus's jitter hook.
func (in *Injector) Jitter() arch.Cycles {
	if in.Cfg.JitterPct <= 0 || in.Cfg.JitterMax <= 0 {
		return 0
	}
	if in.rng.Intn(100) >= in.Cfg.JitterPct {
		return 0
	}
	d := 1 + arch.Cycles(in.rng.Int63n(int64(in.Cfg.JitterMax)))
	in.Stats.JitteredTxns++
	in.Stats.JitterCycles += int64(d)
	return d
}

// String summarizes delivered faults.
func (s Stats) String() string {
	return fmt.Sprintf("evictions=%d iflushes=%d jittered-txns=%d (+%d cyc) extra-intrs=%d forced-migrations=%d",
		s.Evictions, s.IFlushes, s.JitteredTxns, s.JitterCycles, s.ExtraInterrupts, s.ForcedMigrations)
}
