package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/bus"
)

func TestEventAddressesAreOddAndDistinct(t *testing.T) {
	seen := map[arch.PAddr]bool{}
	for e := Event(0); e < numEvents; e++ {
		a := EventAddr(e)
		if a&1 != 1 {
			t.Errorf("EventAddr(%v) = %#x is even", e, a)
		}
		if seen[a] {
			t.Errorf("duplicate event address %#x", a)
		}
		seen[a] = true
		got, ok := DecodeEventAddr(a)
		if !ok || got != e {
			t.Errorf("DecodeEventAddr(EventAddr(%v)) = %v,%v", e, got, ok)
		}
	}
}

func TestOperandRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		v %= MaxOperand
		a := OperandAddr(v)
		if a&1 != 1 {
			return false
		}
		if _, isEvent := DecodeEventAddr(a); isEvent {
			return false // operands must not alias event codes
		}
		return DecodeOperandAddr(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMissesAreNeverEscapes(t *testing.T) {
	// Cache-miss transactions are block-aligned, hence even.
	txn := bus.Txn{Addr: 0x12340, Kind: bus.TxnRead}
	if IsEscape(txn) {
		t.Error("block-aligned read classified as escape")
	}
	// Device-register uncached reads use even addresses.
	dev := bus.Txn{Addr: 0x680000, Kind: bus.TxnUncached}
	if IsEscape(dev) {
		t.Error("even uncached read classified as escape")
	}
	esc := bus.Txn{Addr: EventAddr(EvExitOS), Kind: bus.TxnUncached}
	if !IsEscape(esc) {
		t.Error("escape not recognized")
	}
}

func TestDecoderEventWithArgs(t *testing.T) {
	d := NewDecoder()
	// EnterOS on CPU 2 with op=3, pid=17.
	if _, ok := d.Feed(bus.Txn{Addr: EventAddr(EvEnterOS), CPU: 2, Kind: bus.TxnUncached, Ticks: 7}); ok {
		t.Fatal("event with args completed before operands")
	}
	if _, ok := d.Feed(bus.Txn{Addr: OperandAddr(3), CPU: 2, Kind: bus.TxnUncached}); ok {
		t.Fatal("completed after first of two operands")
	}
	r, ok := d.Feed(bus.Txn{Addr: OperandAddr(17), CPU: 2, Kind: bus.TxnUncached})
	if !ok || !r.IsEvent || r.Event != EvEnterOS || r.Args[0] != 3 || r.Args[1] != 17 {
		t.Fatalf("decoded %+v ok=%v", r, ok)
	}
	if r.Txn.Ticks != 7 || r.Txn.CPU != 2 {
		t.Errorf("event record lost txn metadata: %+v", r.Txn)
	}
}

func TestDecoderInterleavedCPUs(t *testing.T) {
	d := NewDecoder()
	// CPU 0 starts RunProc, CPU 1 starts PageFree, operands interleave.
	d.Feed(bus.Txn{Addr: EventAddr(EvRunProc), CPU: 0, Kind: bus.TxnUncached})
	d.Feed(bus.Txn{Addr: EventAddr(EvPageFree), CPU: 1, Kind: bus.TxnUncached})
	r1, ok1 := d.Feed(bus.Txn{Addr: OperandAddr(99), CPU: 1, Kind: bus.TxnUncached})
	r0, ok0 := d.Feed(bus.Txn{Addr: OperandAddr(42), CPU: 0, Kind: bus.TxnUncached})
	if !ok1 || r1.Event != EvPageFree || r1.Args[0] != 99 {
		t.Errorf("CPU1 event: %+v ok=%v", r1, ok1)
	}
	if !ok0 || r0.Event != EvRunProc || r0.Args[0] != 42 {
		t.Errorf("CPU0 event: %+v ok=%v", r0, ok0)
	}
}

func TestDecoderPassesThroughMisses(t *testing.T) {
	d := NewDecoder()
	// A miss between an event start and its operand must pass through
	// (the paper: instruction misses during an escape sequence access
	// even addresses and are therefore unambiguous).
	d.Feed(bus.Txn{Addr: EventAddr(EvICacheInval), CPU: 0, Kind: bus.TxnUncached})
	r, ok := d.Feed(bus.Txn{Addr: 0x4000, CPU: 0, Kind: bus.TxnRead})
	if !ok || r.IsEvent {
		t.Fatalf("miss during escape sequence mishandled: %+v ok=%v", r, ok)
	}
	r, ok = d.Feed(bus.Txn{Addr: OperandAddr(5), CPU: 0, Kind: bus.TxnUncached})
	if !ok || r.Event != EvICacheInval || r.Args[0] != 5 {
		t.Fatalf("event after interleaved miss: %+v ok=%v", r, ok)
	}
}

func TestDecoderMalformed(t *testing.T) {
	d := NewDecoder()
	if _, ok := d.Feed(bus.Txn{Addr: OperandAddr(1), CPU: 0, Kind: bus.TxnUncached}); ok {
		t.Error("stray operand produced a record")
	}
	if d.Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", d.Malformed)
	}
}

func TestDecodeWholeTrace(t *testing.T) {
	trace := []bus.Txn{
		{Addr: EventAddr(EvTraceStart), CPU: 0, Kind: bus.TxnUncached},
		{Addr: 0x1000, CPU: 0, Kind: bus.TxnRead},
		{Addr: EventAddr(EvExitOS), CPU: 1, Kind: bus.TxnUncached},
		{Addr: 0x2000, CPU: 1, Kind: bus.TxnReadEx},
	}
	d := NewDecoder()
	var recs []Record
	for _, txn := range trace {
		if r, ok := d.Feed(txn); ok {
			recs = append(recs, r)
		}
	}
	if len(recs) != 4 {
		t.Fatalf("decoded %d records, want 4", len(recs))
	}
	if !recs[0].IsEvent || recs[0].Event != EvTraceStart {
		t.Error("first record should be TraceStart")
	}
	if recs[1].IsEvent || recs[1].Txn.Addr != 0x1000 {
		t.Error("second record should be the miss")
	}
}

func TestEventArityAndString(t *testing.T) {
	if EvTLBChange.Arity() != 4 || EvExitOS.Arity() != 0 || EvEnterOS.Arity() != 2 {
		t.Error("arities wrong")
	}
	if Event(200).Arity() != 0 {
		t.Error("out-of-range arity should be 0")
	}
	if EvTLBChange.String() != "TLBChange" || Event(200).String() == "" {
		t.Error("event strings wrong")
	}
}

func TestDiscardRecorder(t *testing.T) {
	d := &Discard{}
	d.Record(bus.Txn{})
	d.Record(bus.Txn{})
	if d.Total != 2 {
		t.Errorf("Discard.Total = %d, want 2", d.Total)
	}
}

// TestQuickDecoderInterleavedRoundTrip: events emitted by different CPUs
// with their operand reads arbitrarily interleaved on the bus decode back
// to exactly the events each CPU emitted, in per-CPU order — the
// postprocessor property the paper's escape encoding depends on.
func TestQuickDecoderInterleavedRoundTrip(t *testing.T) {
	type emitted struct {
		cpu arch.CPUID
		ev  Event
		arg uint32
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build per-CPU event queues using one-operand events.
		var want [4][]emitted
		var streams [4][]bus.Txn
		for i := 0; i < int(n%40)+1; i++ {
			cpu := arch.CPUID(rng.Intn(4))
			e := emitted{cpu: cpu, ev: EvUTLB, arg: rng.Uint32() % MaxOperand}
			want[cpu] = append(want[cpu], e)
			streams[cpu] = append(streams[cpu],
				bus.Txn{Kind: bus.TxnUncached, CPU: cpu, Addr: EventAddr(e.ev)},
				bus.Txn{Kind: bus.TxnUncached, CPU: cpu, Addr: OperandAddr(e.arg)})
		}
		// Interleave the four streams randomly, preserving per-CPU order.
		var trace []bus.Txn
		idx := [4]int{}
		for {
			live := []int{}
			for c := 0; c < 4; c++ {
				if idx[c] < len(streams[c]) {
					live = append(live, c)
				}
			}
			if len(live) == 0 {
				break
			}
			c := live[rng.Intn(len(live))]
			trace = append(trace, streams[c][idx[c]])
			idx[c]++
		}
		dec := NewDecoder()
		var got [4][]emitted
		for _, t := range trace {
			rec, done := dec.Feed(t)
			if done && rec.IsEvent {
				got[rec.Txn.CPU] = append(got[rec.Txn.CPU],
					emitted{cpu: rec.Txn.CPU, ev: rec.Event, arg: rec.Args[0]})
			}
		}
		if dec.Malformed != 0 {
			return false
		}
		for c := 0; c < 4; c++ {
			if len(got[c]) != len(want[c]) {
				return false
			}
			for i := range got[c] {
				if got[c][i] != want[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
