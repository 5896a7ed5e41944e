package machineflag

import (
	"flag"
	"testing"

	"repro/internal/arch"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		bad  bool
	}{
		{"65536", 65536, false},
		{"64K", 64 << 10, false},
		{"64k", 64 << 10, false},
		{"1M", 1 << 20, false},
		{" 256K ", 256 << 10, false},
		{"64KB", 0, true},
		{"", 0, true},
		{"big", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseSize(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// parseCyclesCases is TestParseCycles' table and FuzzParseCycles' seed
// corpus.
var parseCyclesCases = []struct {
	in   string
	want int64
	bad  bool
}{
	{"12000000", 12_000_000, false},
	{"0", 0, false},
	{"800K", 800_000, false},
	{"800k", 800_000, false},
	{"12M", 12_000_000, false},
	{"1.5M", 1_500_000, false},
	{"1G", 1_000_000_000, false},
	{" 2M ", 2_000_000, false},
	{"1e9", 1_000_000_000, false},
	{"2.5e8", 250_000_000, false},
	{"1e3", 1_000, false},
	// Bad inputs: suffixes are decimal cycles, not binary bytes, and
	// fractions of a cycle do not exist.
	{"", 0, true},
	{"K", 0, true},
	{"12X", 0, true},
	{"-1", 0, true},
	{"-2M", 0, true},
	{"1.5", 0, true},
	{"2.5e-8", 0, true},
	{"1e20", 0, true},
	{"9223372036854775807K", 0, true},
	{"window", 0, true},
	{"1e", 0, true},
}

func TestParseCycles(t *testing.T) {
	for _, c := range parseCyclesCases {
		got, err := ParseCycles(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseCycles(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseCycles(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

// FuzzParseCycles: no input panics the parser, and whatever it accepts is a
// non-negative integer that a cycle flag prints back in a form that parses
// to the same value.
func FuzzParseCycles(f *testing.F) {
	for _, c := range parseCyclesCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n, err := ParseCycles(in)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("ParseCycles(%q) accepted negative %d", in, n)
		}
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(nullWriter{})
		w := CyclesFlag(fs, "window", 0, "")
		if err := fs.Set("window", in); err != nil || *w != n {
			t.Fatalf("flag set to %q = %d, %v; ParseCycles gave %d", in, *w, err, n)
		}
		printed := fs.Lookup("window").Value.String()
		if back, err := ParseCycles(printed); err != nil || back != n {
			t.Fatalf("%q parsed to %d, printed as %q, which parses to %d, %v", in, n, printed, back, err)
		}
	})
}

func TestCyclesFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(nullWriter{})
	w := CyclesFlag(fs, "window", 12_000_000, "traced window")
	if err := fs.Parse([]string{"-window", "1e9"}); err != nil {
		t.Fatal(err)
	}
	if *w != 1_000_000_000 {
		t.Fatalf("-window 1e9 parsed to %d", *w)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs2.SetOutput(nullWriter{})
	d := CyclesFlag(fs2, "window", 12_000_000, "traced window")
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *d != 12_000_000 {
		t.Fatalf("default window = %d, want 12000000", *d)
	}
	fs3 := flag.NewFlagSet("test", flag.ContinueOnError)
	fs3.SetOutput(nullWriter{})
	CyclesFlag(fs3, "window", 0, "traced window")
	if err := fs3.Parse([]string{"-window", "64KB"}); err == nil {
		t.Fatal("bad -window suffix accepted")
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

func resolve(t *testing.T, args ...string) (arch.Machine, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Machine()
}

func TestDefaultPresetIsTheMeasuredMachine(t *testing.T) {
	m, err := resolve(t)
	if err != nil {
		t.Fatal(err)
	}
	if m != arch.Default() {
		t.Fatalf("default preset = %+v, want arch.Default()", m)
	}
}

func TestPreset4d380(t *testing.T) {
	m, err := resolve(t, "-machine", "4d380")
	if err != nil {
		t.Fatal(err)
	}
	if m.NCPU != 8 || m.MemBytes != 64<<20 {
		t.Fatalf("4d380 = %+v, want 8 CPUs / 64 MB", m)
	}
	want := arch.Default()
	want.NCPU, want.MemBytes = 8, 64<<20
	if m != want {
		t.Fatalf("4d380 changes more than NCPU/MemBytes: %+v", m)
	}
}

func TestOverridesApplyOnTopOfPreset(t *testing.T) {
	m, err := resolve(t, "-machine", "4d380",
		"-icache", "128K", "-dcache-l2", "1M", "-dcache-l2-assoc", "2",
		"-tlb", "128", "-miss-stall", "40", "-l2hit-stall", "0")
	if err != nil {
		t.Fatal(err)
	}
	if m.NCPU != 8 || m.ICacheSize != 128<<10 || m.DCacheL2Size != 1<<20 ||
		m.DCacheL2Assoc != 2 || m.TLBEntries != 128 ||
		m.MissStallCycles != 40 || m.L1MissL2HitCycles != 0 {
		t.Fatalf("overrides not applied: %+v", m)
	}
}

func TestBadInputsAreRejected(t *testing.T) {
	if _, err := resolve(t, "-machine", "4d999"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := resolve(t, "-icache", "64KB"); err == nil {
		t.Error("bad size suffix accepted")
	}
	// A syntactically fine override that produces a degenerate machine
	// must fail Validate with the field named.
	_, err := resolve(t, "-dcache-l2", "48K")
	if err == nil {
		t.Fatal("non-power-of-two cache size accepted")
	}
}
