// Package machineflag is the CLI surface of the runtime machine model: a
// -machine preset flag plus individual geometry override flags, registered
// for charos and sweep by internal/runflag.
package machineflag

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// Preset resolves a -machine preset name to its descriptor.
func Preset(name string) (arch.Machine, error) {
	switch strings.ToLower(name) {
	case "", "4d340":
		// The measured SGI 4D/340: 4×33 MHz, 64 KB I, 64 KB + 256 KB D,
		// 32 MB memory.
		return arch.Default(), nil
	case "4d380":
		// A 4D/380-like top configuration: twice the CPUs and memory of
		// the measured machine, same cache geometry.
		m := arch.Default()
		m.NCPU = 8
		m.MemBytes = 64 * 1024 * 1024
		return m, nil
	default:
		return arch.Machine{}, fmt.Errorf("unknown machine preset %q (have: 4d340, 4d380)", name)
	}
}

// ParseSize parses a byte count with an optional K/M suffix ("256K",
// "1M", "65536").
func ParseSize(s string) (int, error) {
	mult := 1
	t := strings.TrimSpace(s)
	switch {
	case strings.HasSuffix(t, "K"), strings.HasSuffix(t, "k"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"), strings.HasSuffix(t, "m"):
		mult, t = 1<<20, t[:len(t)-1]
	}
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("bad size %q (want bytes with optional K/M suffix)", s)
	}
	return n * mult, nil
}

// ParseCycles parses a simulated-cycle count with an optional decimal
// K/M/G suffix ("800K", "12M", "1G" — 1e3/1e6/1e9, cycles are not bytes)
// or scientific notation ("1e9", "2.5e8"). Plain digit strings parse as
// before, so existing invocations keep working. The value must be a
// non-negative integer that fits in an int64.
func ParseCycles(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	if len(t) > 0 {
		switch t[len(t)-1] {
		case 'K', 'k':
			mult, t = 1_000, t[:len(t)-1]
		case 'M', 'm':
			mult, t = 1_000_000, t[:len(t)-1]
		case 'G', 'g':
			mult, t = 1_000_000_000, t[:len(t)-1]
		}
	}
	if t == "" {
		return 0, fmt.Errorf("bad cycle count %q (want digits with optional K/M/G suffix or scientific notation)", s)
	}
	if n, err := strconv.ParseInt(t, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("bad cycle count %q (must be non-negative)", s)
		}
		if n > math.MaxInt64/mult {
			return 0, fmt.Errorf("bad cycle count %q (overflows int64)", s)
		}
		return n * mult, nil
	}
	// Scientific or fractional notation: "1e9", "2.5e8", "1.5M".
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("bad cycle count %q (want digits with optional K/M/G suffix or scientific notation)", s)
	}
	v := f * float64(mult)
	if v < 0 {
		return 0, fmt.Errorf("bad cycle count %q (must be non-negative)", s)
	}
	// Beyond 2^53 the float mantissa can no longer represent every
	// integer, so "exact" stops being meaningful — and no simulated
	// window comes near it.
	if v > 1<<53 {
		return 0, fmt.Errorf("bad cycle count %q (too large)", s)
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("bad cycle count %q (not a whole number of cycles)", s)
	}
	return int64(v), nil
}

// cyclesValue adapts an int64 cycle count to flag.Value with ParseCycles
// syntax.
type cyclesValue int64

func (c *cyclesValue) String() string { return strconv.FormatInt(int64(*c), 10) }

func (c *cyclesValue) Set(s string) error {
	n, err := ParseCycles(s)
	if err != nil {
		return err
	}
	*c = cyclesValue(n)
	return nil
}

// CyclesFlag registers a cycle-count flag on fs that accepts K/M/G
// suffixes and scientific notation ("-window 1e9"), returning the value
// pointer like fs.Int64 would. Every -window and -warmup flag routes
// through this one parser.
func CyclesFlag(fs *flag.FlagSet, name string, def int64, usage string) *int64 {
	p := new(int64)
	*p = def
	fs.Var((*cyclesValue)(p), name, usage)
	return p
}

// Flags holds the registered flag values until Machine resolves them.
type Flags struct {
	preset      *string
	icache      *string
	icacheAssoc *int
	dl1         *string
	dl1Assoc    *int
	dl2         *string
	dl2Assoc    *int
	mem         *string
	tlb         *int
	missStall   *int
	l2Stall     *int
}

// Register installs the -machine preset flag and the geometry override
// flags on fs (use flag.CommandLine for a command's default set). Call
// Machine after fs.Parse to resolve them.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.preset = fs.String("machine", "4d340",
		"machine preset: 4d340 (the measured machine) or 4d380 (8 CPUs, 64 MB)")
	f.icache = fs.String("icache", "", "override I-cache size (bytes; K/M suffix ok)")
	f.icacheAssoc = fs.Int("icache-assoc", 0, "override I-cache associativity (0 = preset)")
	f.dl1 = fs.String("dcache-l1", "", "override first-level D-cache size (bytes; K/M suffix ok)")
	f.dl1Assoc = fs.Int("dcache-l1-assoc", 0, "override first-level D-cache associativity (0 = preset)")
	f.dl2 = fs.String("dcache-l2", "", "override second-level D-cache size (bytes; K/M suffix ok)")
	f.dl2Assoc = fs.Int("dcache-l2-assoc", 0, "override second-level D-cache associativity (0 = preset)")
	f.mem = fs.String("mem", "", "override main-memory size (bytes; K/M suffix ok)")
	f.tlb = fs.Int("tlb", 0, "override TLB entries per CPU (0 = preset)")
	f.missStall = fs.Int("miss-stall", 0, "override per-bus-access stall cycles (0 = preset)")
	f.l2Stall = fs.Int("l2hit-stall", -1, "override L1-miss/L2-hit stall cycles (-1 = preset)")
	return f
}

// Machine resolves the preset plus overrides into a validated descriptor.
func (f *Flags) Machine() (arch.Machine, error) {
	m, err := Preset(*f.preset)
	if err != nil {
		return m, err
	}
	size := func(dst *int, s string) error {
		if s == "" {
			return nil
		}
		n, err := ParseSize(s)
		if err != nil {
			return err
		}
		*dst = n
		return nil
	}
	if err := size(&m.ICacheSize, *f.icache); err != nil {
		return m, err
	}
	if err := size(&m.DCacheL1Size, *f.dl1); err != nil {
		return m, err
	}
	if err := size(&m.DCacheL2Size, *f.dl2); err != nil {
		return m, err
	}
	if err := size(&m.MemBytes, *f.mem); err != nil {
		return m, err
	}
	if *f.icacheAssoc > 0 {
		m.ICacheAssoc = *f.icacheAssoc
	}
	if *f.dl1Assoc > 0 {
		m.DCacheL1Assoc = *f.dl1Assoc
	}
	if *f.dl2Assoc > 0 {
		m.DCacheL2Assoc = *f.dl2Assoc
	}
	if *f.tlb > 0 {
		m.TLBEntries = *f.tlb
	}
	if *f.missStall > 0 {
		m.MissStallCycles = arch.Cycles(*f.missStall)
	}
	if *f.l2Stall >= 0 {
		m.L1MissL2HitCycles = arch.Cycles(*f.l2Stall)
	}
	return m, m.Validate()
}
